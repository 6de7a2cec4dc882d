"""Metric definitions and their computation from one run's records."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np
import scipy

from workloads import SWEEP_WORKERS

ROOT = Path(__file__).resolve().parent.parent
ALL = ("alloc-mix", "policy-sim", "daily-resolve", "sweep")

# name -> (unit, better, workloads, definition); every time is scaled to the
# reference machine speed (run.CAL_REF) and, but for heldout_wall_s, taken on
# the anchor instances; raw times stay in results.json
END_TO_END = {
    "setup_s": ("s", "lower", ALL,
                "median wall time of a fresh interpreter importing stabvax.cli "
                "and building the run's instances"),
    "wall_s": ("s", "lower", ALL,
               "wall time of one pass over the workload's operations on one "
               "anchor instance: the sum over operations of op_time"),
    "heldout_wall_s": ("s", "lower", ALL,
                       "wall_s on the instances drawn from the workload seed"),
    "fail_frac": ("ratio", "lower", ALL,
                  "failed / attempted operations (nonzero exit, exception or "
                  "an independent output check that fails)"),
    "alloc_budget_s": ("s", "lower", ("alloc-mix",),
                       "summed op_time of the budgeted allocate operations"),
    "alloc_fixed_s": ("s", "lower", ("alloc-mix",),
                      "summed op_time of the fixed-alpha allocate operations"),
    "alpha_mean": ("1/day", "higher", ("alloc-mix",),
                   "mean achieved_alpha over the budgeted allocate operations"),
    "dose_frac": ("fraction", "lower", ("alloc-mix",),
                  "doses over population, summed over the fixed-alpha "
                  "operations; median over the instances"),
    "sim_days_per_s": ("policy-days/s", "higher",
                       ("policy-sim", "daily-resolve", "sweep"),
                       "simulated policy-days of one pass on one instance "
                       "divided by wall_s"),
    "cases_averted_frac": ("ratio", "higher", ("policy-sim", "sweep"),
                           "1 - cases(optimal-stabilizing) / cases(population-"
                           "weighted), mean over the instances and sweep "
                           "points that ran both"),
    "epoch_p50_s": ("s", "lower", ("daily-resolve",),
                    "median time of one policies.emit_doses call (one epoch)"),
    "epoch_tail_s": ("s", "lower", ("daily-resolve",),
                     "epoch time at the highest percentile with >= 10 samples "
                     "beyond it (percentile and count in the manifest)"),
}

# name -> (unit, better, definition); all per pass over the operations on
# one instance, from the traced run
PER_LAYER = {
    "ingest.synthetic_instance.s": ("s", "lower", "self time"),
    "model.calibrate_transmission.calls": ("count", "lower", "calls"),
    "model.calibrate_transmission.s": ("s", "lower", "self time"),
    "model.build_flow_matrix.calls": ("count", "lower", "calls"),
    "model.build_flow_matrix.s": ("s", "lower", "self time"),
    "model.check_decay_certificate.calls": ("count", "lower", "calls"),
    "model.check_decay_certificate.s": ("s", "lower", "self time"),
    "allocator.max_decay_binary_search.s": ("s", "lower", "self time"),
    "allocator.probes": ("count", "lower", "solve_allocation calls per bisection"),
    "allocator.probe_feasible_frac": ("ratio", "higher", "feasible probes / probes"),
    "allocator.solve_allocation.calls": ("count", "lower", "calls"),
    "allocator.solve_allocation.s": ("s", "lower", "self time"),
    "allocator.lmi_route_frac": ("ratio", "higher",
                                 "share of results solved on the LMI route"),
    "allocator.lmi_box_maximize.s": ("s", "lower", "self time"),
    "allocator.cuts": ("count", "lower", "sum of lmi_box_maximize stats.cuts"),
    "allocator.spectral_box_minimize.s": ("s", "lower", "self time"),
    "allocator.slp_iterations": ("count", "lower",
                                 "sum of spectral_box_minimize stats.iterations"),
    "allocator.uncertified": ("count", "lower", "solve_allocation results whose "
                                                "own certificate is unsatisfied"),
    "kernel.lp.calls": ("count", "lower", "scipy.optimize.linprog calls"),
    "kernel.lp.s": ("s", "lower", "self time of linprog"),
    "kernel.eig.calls": ("count", "lower", "eig/eigvals/eigh/eigvalsh calls"),
    "kernel.eig.s": ("s", "lower", "self time of the eigen-solves"),
    "kernel.eig.m3_sum": ("dim3", "lower",
                          "sum of dim^3 over eigen-calls (computed, not measured)"),
    "kernel.inv.calls": ("count", "lower", "inv calls"),
    "dynamics.simulate_policy.s": ("s", "lower", "self time"),
    "dynamics.integrate.calls": ("count", "lower", "calls"),
    "dynamics.integrate.s": ("s", "lower", "self time (includes the RHS calls)"),
    "dynamics.rhs.calls": ("count", "lower", "calls of the RHS closures"),
    "dynamics.clamp_events": ("count", "lower", "Trajectory.clamp_events summed"),
    "policies.emit_doses.calls": ("count", "lower", "calls"),
    "policies.emit_doses.s": ("s", "lower", "self time"),
    "policies.plan_s": ("s", "lower", "inclusive time building DosePlanner"),
    "bubar.solve_bubar_allocation.calls": ("count", "lower", "calls"),
    "bubar.solve_bubar_allocation.s": ("s", "lower", "self time"),
    "bubar.simulate_bubar.calls": ("count", "lower", "calls"),
    "bubar.simulate_bubar.s": ("s", "lower", "self time"),
    "cli.io_s": ("s", "lower", "Trajectory.to_csv and the atomic summary, "
                               "allocation.json and sweep.csv writes, inclusive"),
    "cli.bytes_written": ("bytes", "lower", "size of the files the operations wrote"),
    "cli.sweep.busy_s": ("s", "lower", "summed time of the workers' _sweep_point calls"),
    "cli.sweep.parallel_eff": ("ratio", "higher", "busy_s / (workers x sweep wall)"),
}

DERIVED_COUNTS = ("kernel.eig.m3_sum", "allocator.cuts",
                  "allocator.slp_iterations", "allocator.uncertified",
                  "dynamics.clamp_events")


def op_time(rec, iseeds) -> float:
    """An operation's scaled time on the given instances: the mean over them
    of each instance's median repeat (medians, not minima, so that the
    figure does not fall as more repeats fit in a run)."""
    return statistics.fmean(statistics.median(rec["scaled_s"][str(i)])
                            for i in iseeds)


def _time_sum(records, iseeds, keep=lambda r: True) -> float:
    return sum(op_time(r, iseeds) for r in records if keep(r))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of a fixed ladder with >= 10 samples beyond it."""
    for p in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def end_to_end(workload, seed, records, setup_times, epoch_times, attempted,
               failed):
    ops = {op.label: op for op in workload.ops}
    anchors = workload.anchor_seeds
    wall = _time_sum(records, anchors)
    out = {"setup_s": statistics.median(setup_times), "wall_s": wall,
           "heldout_wall_s": _time_sum(records, [workload.drawn_seed(seed)]),
           "fail_frac": failed / attempted}
    figures = {r["label"]: r["figures"] for r in records}
    if workload.name == "alloc-mix":
        budgeted = [label for label, op in ops.items() if op.budget is not None]
        fixed = [label for label, op in ops.items() if op.alpha is not None]
        out["alloc_budget_s"] = _time_sum(
            records, anchors, lambda r: r["label"] in budgeted)
        out["alloc_fixed_s"] = _time_sum(
            records, anchors, lambda r: r["label"] in fixed)
        alphas = [f["alpha"] for label in budgeted
                  for f in figures[label].values() if "alpha" in f]
        out["alpha_mean"] = statistics.fmean(alphas) if alphas else math.nan
        per_instance = [sum(figures[label][i].get("dose_frac", math.nan)
                            for label in fixed)
                        for i in figures[fixed[0]]]
        out["dose_frac"] = statistics.median(per_instance)
    days = sum(op.policy_days for op in workload.ops)
    if days:
        out["sim_days_per_s"] = days / wall
    if workload.name in ("policy-sim", "sweep"):
        averted = [1 - point["optimal-stabilizing"] / point["population-weighted"]
                   for label in ops for f in figures[label].values()
                   for point in f.get("cases", {}).values()
                   if "optimal-stabilizing" in point
                   and point.get("population-weighted")]
        out["cases_averted_frac"] = (statistics.fmean(averted) if averted
                                     else math.nan)
    if workload.name == "daily-resolve":
        out["epoch_p50_s"] = statistics.median(epoch_times)
        p = tail_percentile(len(epoch_times))
        out["epoch_tail_s"] = (float(np.percentile(epoch_times, p))
                               if p is not None else math.nan)
        out["epoch_tail_percentile"] = p
        out["epoch_samples"] = len(epoch_times)
    return out


def per_layer(summary, workload, records, rounds: int) -> dict:
    """Per-layer metrics from the summarized spans, per round: one pass over
    the operations on one instance (passes x instances in a run).
    Times are scaled by the run's overall speed factor, scaled / raw time."""
    speed = (sum(_all_times(r, "scaled_s") for r in records)
             / sum(_all_times(r) for r in records))
    calls, incl = summary["calls"], summary["incl_s"]
    self_s = {name: t * speed for name, t in summary["self_s"].items()}
    derived = summary["derived"]
    out = {}
    for name in PER_LAYER:
        span, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls.get(span, 0) / rounds
        elif what == "s":
            out[name] = self_s.get(span, 0.0) / rounds
        elif name in DERIVED_COUNTS:
            out[name] = derived.get(name, 0) / rounds
    bisections = calls.get("allocator.max_decay_binary_search", 0)
    probes = derived.get("probes", 0)
    out["allocator.probes"] = probes / bisections if bisections else 0.0
    out["allocator.probe_feasible_frac"] = (derived.get("feasible_probes", 0)
                                            / probes if probes else 0.0)
    results = derived.get("results", 0)
    out["allocator.lmi_route_frac"] = (derived.get("lmi_results", 0) / results
                                       if results else 0.0)
    out["policies.plan_s"] = speed * incl.get("policies.DosePlanner", 0.0) / rounds
    out["cli.io_s"] = speed * incl.get("cli.io", 0.0) / rounds
    out["cli.bytes_written"] = float(sum(r["bytes"] for r in records))
    busy = incl.get("cli.sweep_point", 0.0) / rounds
    out["cli.sweep.busy_s"] = speed * busy
    sweep_wall = sum(_all_times(r) for r, op in zip(records, workload.ops)
                     if op.sweep) / rounds
    out["cli.sweep.parallel_eff"] = (busy / (SWEEP_WORKERS * sweep_wall)
                                     if sweep_wall else 0.0)
    return {name: out[name] for name in PER_LAYER}


def _all_times(rec, key="times_s") -> float:
    return sum(sum(ts) for ts in rec[key].values())


def trace_coverage(summary, records) -> float:
    """Share of the traced operations' time covered by the self time of spans
    below cli.main; worker spans add up across processes in the sweep."""
    covered = sum(t for name, t in summary["self_s"].items() if name != "cli.main")
    return covered / sum(_all_times(r) for r in records)


def gated(result: dict, traced: bool) -> dict:
    """The metrics of the result line, with units: BENCHMARK.json's per_layer
    list (traced) or end_to_end list.

    BENCHMARK.json gates wall_s and setup_s, the end-to-end metrics every
    workload reports nonzero. Of the per-layer metrics it gates each one that
    a gated workload reports nonzero, except a time that reads 0.0 on some
    seed of a gated workload: a time that reads the same on every run is
    refused, and a layer a workload never enters would read 0.0 on every run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        return {m["name"]: {"value": result["per_layer"][m["name"]],
                            "unit": PER_LAYER[m["name"]][0]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": result["end_to_end"][m["name"]],
                        "unit": END_TO_END[m["name"]][0]}
            for m in spec["end_to_end"]}


def _blas() -> list[dict]:
    """OpenBLAS libraries loaded in this process and their thread counts."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload, seed: int, seconds: float, blas_threads: int,
             e2e: dict, cal_ref: float, cpus: set) -> dict:
    """Where, on what and on which inputs the run was measured."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_env": blas_threads,
        "sweep_workers": SWEEP_WORKERS,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "calibration_reference_s": cal_ref,
        "instance_seeds": workload.instance_seeds(seed),
        "anchor_seeds": workload.anchor_seeds,
        "ops_per_pass": len(workload.ops) * len(workload.instance_seeds(seed)),
        "epoch_tail_percentile": e2e.get("epoch_tail_percentile"),
        "loop": "closed, one process, one operation at a time",
    }

