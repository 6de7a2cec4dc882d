"""Independent checks of the CLI's outputs.

Nothing the program prints is trusted: an allocation's certificate is
recomputed from `allocation.json` on an instance the benchmark builds itself,
and doses are summed again from the per-cell allocation.

Each problem is (kind, message). Every problem fails its operation. Kind
"output" also marks the run incorrect: a missing or malformed file, a
non-finite value, negative cases or doses over budget. Kind "certificate"
(the recomputed certificate is unsatisfied) is a solver-accuracy failure
that the program is known to produce today; it is counted, not hidden.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from stabvax import bubar, ingest, model
from workloads import BUDGET, SWEEP_RANGE

DOSE_SLACK = 1e-9


def build_instance(model_name: str, n, seed: int):
    """The instance the CLI builds for an op (its defaults, same seed)."""
    if model_name == "bubar":
        return bubar.us_like_instance(r0=1.15, seed=seed)
    return ingest.synthetic_instance(seed, n,
                                     groups=model_name == "covid-demographic")


def total_population(op, inst) -> float:
    if op.model == "bubar":
        return float(inst[0].populations.sum())
    return float(inst.net.total_population)


def check_allocation(op, inst, out: Path) -> tuple[list[tuple[str, str]], dict]:
    """Problems found in allocation.json, and the figures the metrics use."""
    doc = json.loads((out / "allocation.json").read_text())
    v = np.asarray(doc["v"], dtype=float)
    alpha = op.alpha if op.alpha is not None else float(doc["achieved_alpha"])
    problems = []
    if op.model == "bubar":
        params, state0 = inst
        cert = bubar.bubar_certificate(state0, params, v, alpha)
        doses = float((v * (state0.S + state0.I + state0.R)).sum())
    else:
        try:
            cert = model.check_decay_certificate(inst.state0, inst.net,
                                                 inst.params, inst.contacts,
                                                 v, alpha)
        except ValueError as exc:
            return [("output", f"allocation outside the box: {exc}")], {}
        doses = float((inst.cell_populations() * v).sum())
    if not cert.satisfied:
        problems.append(("certificate",
                         f"certificate unsatisfied at alpha={alpha:.6g}: "
                         f"lambda_max={cert.lambda_max:.6g}, "
                         f"rho={cert.spectral_radius:.6f}"))
    pop = total_population(op, inst)
    if op.budget is not None and doses > op.budget * pop * (1 + DOSE_SLACK):
        problems.append(("output", f"doses {doses:.1f} exceed budget "
                                   f"{op.budget * pop:.1f}"))
    if not (math.isfinite(doses) and math.isfinite(alpha)):
        problems.append(("output", "non-finite doses or alpha"))
    return problems, {"alpha": alpha, "doses": doses, "dose_frac": doses / pop,
                      "rho": cert.spectral_radius}


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_summary(op, inst, out: Path) -> tuple[list[tuple[str, str]], dict]:
    """Problems in summary.csv or sweep.csv, and the final cases as
    {sweep value or "-": {policy: cases}}."""
    pop = total_population(op, inst)
    if op.sweep:
        rows = _read_rows(out / "sweep.csv")
        values = np.linspace(*SWEEP_RANGE)
    else:
        rows = _read_rows(out / "summary.csv")
        values = [None]
    expected = [(v, p) for v in values for p in op.policy_names]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    problems += _check_rows(rows, expected, pop)
    return [("output", p) for p in problems], {"cases": _cases(rows, expected)}


def _check_rows(rows, expected, pop) -> list[str]:
    problems = []
    for row, (value, policy) in zip(rows, expected):
        budget = BUDGET if value is None else value
        nums = [float(row[k]) for k in
                ("final_cum_cases", "final_cum_deaths", "total_doses")]
        if row["policy"] != policy:
            problems.append(f"row policy {row['policy']!r}, expected {policy!r}")
        if value is not None and not math.isclose(float(row["value"]), value,
                                                  rel_tol=1e-5):
            problems.append(f"row value {row['value']}, expected {value:.6g}")
        if not all(math.isfinite(x) for x in nums):
            problems.append(f"{policy}: non-finite value in {nums}")
            continue
        if nums[0] < 0:
            problems.append(f"{policy}: negative final cases {nums[0]}")
        if nums[2] > budget * pop * (1 + DOSE_SLACK):
            problems.append(f"{policy}: doses {nums[2]:.1f} exceed budget "
                            f"{budget * pop:.1f}")
    return problems


def _cases(rows, expected) -> dict:
    cases: dict = {}
    for row, (value, policy) in zip(rows, expected):
        point = "-" if value is None else f"{value:.6g}"
        cases.setdefault(point, {})[policy] = float(row["final_cum_cases"])
    return cases


def check(op, inst, out: Path) -> tuple[list[tuple[str, str]], dict]:
    try:
        if op.command == "allocate":
            return check_allocation(op, inst, out)
        return check_summary(op, inst, out)
    except (OSError, KeyError, ValueError) as exc:
        return [("output", f"unreadable output: {type(exc).__name__}: {exc}")], {}
