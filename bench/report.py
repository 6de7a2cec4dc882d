"""Tables of every metric by workload, from the runs of `bench/run.py`.

    python3 bench/report.py --run --seeds 0,1

With `--run` it first runs every workload untraced and traced, one run at a
time and for BENCHMARK.json's run_seconds each, for each seed (the first is
the default seed, the others held out).
It then reads `.bench_out/<workload>/seed<seed>-trace<0|1>/results.json` and
prints, per seed: the end-to-end metrics with unit and better-direction and
the output-check failures; the per-layer metrics with units, the tracing
overhead (traced minus untraced wall_s) and the share of wall_s the traced
self times cover; and the per-operation times (`metrics.op_time`) of the
ROADMAP baseline cases.
`--save FILE` also writes these figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, op_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def results_path(workload: str, seed: int, trace: int) -> Path:
    return ROOT / ".bench_out" / workload / f"seed{seed}-trace{trace}" / "results.json"


def run_all(seeds) -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in seeds:
        for name in WORKLOADS:
            for trace in (0, 1):
                print(f"running {name} seed {seed} trace {trace}", file=sys.stderr)
                subprocess.run([sys.executable, str(BENCH / "run.py"),
                                "--workload", name, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)],
                               cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def collect(seed) -> dict:
    out = {}
    for name in WORKLOADS:
        plain = json.loads(results_path(name, seed, 0).read_text())
        traced = json.loads(results_path(name, seed, 1).read_text())
        out[name] = {
            "end_to_end": plain["end_to_end"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "correct": plain["correct"], "passes": plain["passes"],
            "failures": [(op["label"], f["instance_seed"], msg)
                         for op in plain["ops"] for f in op["problems"]
                         for _, msg in f["problems"]],
            "per_layer": traced["per_layer"],
            "trace_overhead_s": (traced["end_to_end"]["wall_s"]
                                 - plain["end_to_end"]["wall_s"]),
            "trace_coverage": traced["trace_coverage"],
            "roadmap_cases": {op["roadmap_case"]:
                              op_time(op, WORKLOADS[name].anchor_seeds)
                              for op in plain["ops"] if op["roadmap_case"]},
            "manifest": plain["manifest"],
        }
    return out


def print_seed(seed: int, figures: dict) -> None:
    names = list(figures)
    width = max(14, *(len(n) + 2 for n in names))
    head = "".join(f"{n:>{width}}" for n in names)
    print(f"\n== seed {seed}: end to end (untraced) ==")
    print(f"{'metric':<22}{'unit':<15}{'better':<8}{head}")
    for metric, (unit, better, _, _) in END_TO_END.items():
        cells = "".join(
            f"{figures[n]['end_to_end'][metric]:>{width}.5g}"
            if metric in figures[n]["end_to_end"] else f"{'-':>{width}}"
            for n in names)
        print(f"{metric:<22}{unit:<15}{better:<8}{cells}")
    for n in names:
        e2e = figures[n]["end_to_end"]
        if e2e.get("epoch_tail_percentile") is not None:
            print(f"{n}: epoch_tail_s is p{e2e['epoch_tail_percentile']:g} of "
                  f"{e2e['epoch_samples']} epochs")
        f = figures[n]
        print(f"{n}: {f['passes']} passes, {f['failed']}/{f['attempted']} "
              f"operations failed, outputs correct: {f['correct']}")
        for label, iseed, msg in f["failures"]:
            print(f"  FAILED {label} (instance seed {iseed}): {msg}")

    print(f"\n== seed {seed}: per layer (traced, per pass over the operations on one instance) ==")
    print(f"{'metric':<38}{'unit':<8}{'better':<8}{head}")
    for metric, (unit, better, _) in PER_LAYER.items():
        cells = "".join(f"{figures[n]['per_layer'][metric]:>{width}.5g}"
                        for n in names)
        print(f"{metric:<38}{unit:<8}{better:<8}{cells}")
    for label, key, unit, better in (
            ("tracing overhead", "trace_overhead_s", "s", "lower"),
            ("self-time share of wall_s", "trace_coverage", "ratio", "-")):
        cells = "".join(f"{figures[n][key]:>{width}.5g}" for n in names)
        print(f"{label:<38}{unit:<8}{better:<8}{cells}")

    print(f"\n== seed {seed}: ROADMAP baseline cases (op_time, s) ==")
    for n in names:
        for case, seconds in figures[n]["roadmap_cases"].items():
            print(f"{case:<22}{seconds:>10.4f}  ({n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run", action="store_true",
                        help="run every workload (untraced and traced) first")
    parser.add_argument("--seeds", default="0,1",
                        help="comma-separated workload seeds; the first is "
                             "the default seed, the rest are held out")
    parser.add_argument("--save", type=Path, help="also write the figures as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.run:
        run_all(seeds)
    report = {str(seed): collect(seed) for seed in seeds}
    for seed in seeds:
        print_seed(seed, report[str(seed)])
    if args.save:
        args.save.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
