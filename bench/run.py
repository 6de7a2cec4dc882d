"""Benchmark of the `stabvax` CLI, end to end and (traced) per layer.

    python3 bench/run.py --workload alloc-mix --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. The workload's operations run
in-process, one at a time, through `stabvax.cli.main` with stdout captured,
on config files generated from `--seed` for the workload's fixed set of
instances (`Workload.instance_seeds`). A pass runs every operation on every
instance; passes repeat while another one fits in `--seconds`, and every
output is checked independently (`checks.py`).

Times are scaled to a reference machine speed. On a shared 2-vCPU host
(Intel Xeon, 2.0 GHz) each CPU switches for tens of seconds at a time between
two speeds about 1.8x apart, and identical operations follow it, so that raw
times of one input spread by half their median. So a fixed calibration loop is
timed before and after every operation and every set-up probe, and each raw
time t is reported as t * CAL_REF / (geometric mean of the two calibration
times): the time the operation takes on a machine where the loop takes
CAL_REF. The two CPUs change speed independently, so the run is pinned to
one CPU, the set-up probes with it; only a sweep's worker pool gets them all.
The raw times and calibration times are kept in results.json.

The only line on stdout is one JSON
object, `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) of
BENCHMARK.json. The raw per-operation times, the checks' findings and the run
manifest go to `.bench_out/<workload>/seed<seed>-trace<trace>/results.json`;
`bench/report.py` turns those into tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

from workloads import SWEEP_WORKERS, WORKLOADS  # noqa: E402


CPUS = os.sched_getaffinity(0)


# BLAS threads per process, so that sweep workers x threads <= nproc. Set
# here, before numpy loads, and inherited by every process the run starts.
BLAS_THREADS = max(1, len(CPUS) // SWEEP_WORKERS)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SETUP_REPS = 3
# calibration loop time of the Intel Xeon 2.0 GHz 2-vCPU host in its fast state
CAL_REF = 0.005
CAL_SAMPLES = 5
CAL_MATRIX = np.random.default_rng(0).standard_normal((60, 60))
# bound now, before a traced run wraps numpy.linalg.eigvals
CAL_EIGVALS = np.linalg.eigvals
# a fresh interpreter imports the CLI and builds the run's instances
SETUP_PROBE = """
import sys
import stabvax.cli
from checks import build_instance
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
for iseed in workload.instance_seeds(int(sys.argv[2])):
    for model, n in workload.instances:
        build_instance(model, n, iseed)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Median time of a fixed CPU-bound loop: Python arithmetic and small
    eigen-solves, the two kinds of work the operations do most."""
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(5):
            CAL_EIGVALS(CAL_MATRIX)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def speed_factor(cal_before: float, cal_after: float) -> float:
    """Multiplier taking a raw time to the reference machine speed."""
    return CAL_REF / (cal_before * cal_after) ** 0.5


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled times of SETUP_REPS fresh-interpreter set-ups."""
    raw, scaled = [], []
    cal = calibrate()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        cal_after = calibrate()
        raw.append(seconds)
        scaled.append(seconds * speed_factor(cal, cal_after))
        cal = cal_after
    return raw, scaled


def run_op(cli, argv) -> tuple[float, object, str]:
    """Time one CLI call; returns (seconds, exit code or error, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, err.getvalue()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name != "config.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(CPUS)})
    if not (SRC / "stabvax" / "cli.py").is_file():
        print(f"no stabvax source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed, traced = args.seed, bool(args.trace)
    run_dir = ROOT / ".bench_out" / workload.name / f"seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_raw, setup_times = measure_setup(workload.name, seed)

    from stabvax import cli, policies

    import checks
    import metrics
    import tracing

    epoch_times: list[float] = []
    tracer = None
    if traced:
        tracer = tracing.Tracer(run_dir / "spans")
        tracing.install(tracer)
    if workload.name == "daily-resolve":
        emit_doses = policies.emit_doses

        def timed_emit_doses(*a, **kw):
            t0 = time.perf_counter()
            try:
                return emit_doses(*a, **kw)
            finally:
                epoch_times.append(time.perf_counter() - t0)

        policies.emit_doses = timed_emit_doses

    iseeds = workload.instance_seeds(seed)
    instances = {iseed: {key: checks.build_instance(*key, iseed)
                         for key in workload.instances}
                 for iseed in iseeds}
    # per operation: times and check figures keyed by instance seed
    records = [{"label": op.label, "roadmap_case": op.roadmap_case,
                "times_s": {str(i): [] for i in iseeds},
                "scaled_s": {str(i): [] for i in iseeds},
                "cal_s": {str(i): [] for i in iseeds},
                "figures": {}, "problems": [], "bytes": 0}
               for op in workload.ops]
    attempted = failed = passes = 0
    correct = True
    pass_elapsed: list[float] = []
    deadline = time.perf_counter() + args.seconds
    cal = calibrate()
    # a new pass starts only if a typical pass still fits in the time left
    while not pass_elapsed or (time.perf_counter()
                               + statistics.median(pass_elapsed) <= deadline):
        t_start = time.perf_counter()
        for iseed in iseeds:
            for op, rec in zip(workload.ops, records):
                out = run_dir / "ops" / op.label
                out.mkdir(parents=True, exist_ok=True)
                config = out / "config.json"
                config.write_text(json.dumps(op.config(iseed, str(out)), indent=1))
                epochs_before = len(epoch_times)
                if op.sweep:
                    os.sched_setaffinity(0, CPUS)
                seconds, rc, stderr = run_op(cli, op.argv(str(config)))
                os.sched_setaffinity(0, {min(CPUS)})
                cal_after = calibrate()
                factor = speed_factor(cal, cal_after)
                epoch_times[epochs_before:] = [
                    t * factor for t in epoch_times[epochs_before:]]
                attempted += 1
                rec["times_s"][str(iseed)].append(seconds)
                rec["scaled_s"][str(iseed)].append(seconds * factor)
                rec["cal_s"][str(iseed)].append([cal, cal_after])
                cal = cal_after
                rec["bytes"] = output_bytes(out)
                problems, figures = ([("exit", f"exit {rc}: {stderr.strip()}")], {})
                if rc == 0:
                    problems, figures = checks.check(
                        op, instances[iseed][op.model, op.n], out)
                rec["figures"].setdefault(str(iseed), figures)
                if problems:
                    failed += 1
                    correct &= all(kind != "output" for kind, _ in problems)
                    rec["problems"].append({"instance_seed": iseed, "pass": passes,
                                            "problems": problems})
        passes += 1
        pass_elapsed.append(time.perf_counter() - t_start)

    e2e = metrics.end_to_end(workload, seed, records, setup_times,
                             epoch_times, attempted, failed)
    result = {
        "workload": workload.name,
        "manifest": metrics.manifest(workload, seed, args.seconds,
                                     BLAS_THREADS, e2e, CAL_REF, CPUS),
        "passes": passes,
        "pass_elapsed_s": pass_elapsed,
        "setup_raw_s": setup_raw,
        "setup_times_s": setup_times,
        "epoch_times_s": epoch_times,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "end_to_end": e2e,
        "ops": records,
    }
    if traced:
        tracer.write()
        summary = tracing.summarize(tracing.load(tracer.spool))
        result["per_layer"] = metrics.per_layer(summary, workload, records,
                                                passes * len(iseeds))
        result["trace_coverage"] = metrics.trace_coverage(summary, records)
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics.gated(result, traced)}
    (run_dir / "results.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
