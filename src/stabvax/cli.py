"""Command-line interface: calibrate instances, solve allocations, simulate
and compare policies, and run sensitivity sweeps.

Configuration comes from a JSON file (--config) with flag overrides. Exit
codes: 0 success, 2 infeasible allocation, 3 input error, 4 solver failure.

Every command runs on numpy alone (see the package docstring).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import allocator, bubar, dynamics, ingest, policies
from .allocator import InfeasibleAllocationError, SolverError
from .model import effective_reproduction_number

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4

DEFAULT_SCHEDULE = {"daily_rate": 0.0033, "interval_days": 1,
                    "budget": 0.05, "leftover_rule": "even-split"}

DEFAULT_POLICIES = [
    {"kind": "optimal-stabilizing"},
    {"kind": "population-weighted"},
    {"kind": "infection-weighted"},
    {"kind": "no-vaccine"},
]


class InputError(ValueError):
    pass


# numeric config keys per section ("" is the top level) and the type each is
# read as; a null value counts as absent
NUMERIC_KEYS = {
    "": {"seed": int, "n": int, "horizon": int, "workers": int,
         "budget": float, "alpha": float, "target_rt": float,
         "target_r0": float, "psi": float, "alpha_hat": float},
    "synthetic": {"seed": int, "n": int, "target_rt": float},
    "schedule": {"daily_rate": float, "interval_days": int, "budget": float},
}


def _convert_numbers(config: dict) -> None:
    """Convert the numeric keys in place, or raise InputError."""
    for name, kinds in NUMERIC_KEYS.items():
        section = config.get(name, {}) if name else config
        if not isinstance(section, dict):
            raise InputError(f"config key {name} must be a JSON object")
        for key, kind in kinds.items():
            value = section.pop(key, None)
            where = f"{name}.{key}" if name else key
            if value is None:
                continue
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float, str)):
                raise InputError(f"config key {where} must be a number, "
                                 f"got {value!r}")
            try:
                section[key] = kind(value)
            except ValueError as exc:
                raise InputError(f"config key {where}: {exc}") from exc


def _load_config(args) -> dict:
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError("config must be a JSON object")
    for key in ("out", "seed", "model", "budget", "alpha", "axis",
                "range", "horizon", "target_rt", "workers", "step"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "policy", None):
        config["policies"] = [{"kind": kind} for kind in args.policy]
    _convert_numbers(config)
    config.setdefault("model", "covid")
    config.setdefault("out", ".")
    config.setdefault("horizon", 500)
    step = config.setdefault("step", dynamics.DEFAULT_STEP)
    per_day = 1.0 / step if isinstance(step, (int, float)) and step > 0 else 0.0
    if per_day < 1 or abs(per_day - round(per_day)) > 1e-9:
        raise InputError(f"step must be positive and divide one day, got {step!r}")
    return config


def _build_instance(config) -> ingest.EpidemicInstance:
    model = config.get("model", "covid")
    if "instance" in config:
        inst = ingest.load_instance(config["instance"])
        if "target_rt" in config:
            from .model import calibrate_transmission
            inst.params = calibrate_transmission(
                inst.net, inst.params, inst.state0,
                float(config["target_rt"]), inst.contacts)
        return inst
    if "files" in config:
        files = config["files"]
        net, state = ingest.load_instance_from_files(
            files["trips"], files["dwell"], files["cases"])
        params = ingest.default_disease_params(
            psi=config.get("psi", ingest.DEFAULT_EFFICACY),
            alpha_hat=_require_alpha_hat(config))
        from .model import calibrate_transmission
        params = calibrate_transmission(net, params, state,
                                        config.get("target_rt", 1.0))
        return ingest.EpidemicInstance(net=net, params=params, state0=state)
    synth = config.get("synthetic", {})
    seed = int(config.get("seed", synth.get("seed", 0)))
    n = int(synth.get("n", config.get("n", 5)))
    return ingest.synthetic_instance(
        seed, n, groups=(model == "covid-demographic"),
        target_rt=float(config.get("target_rt", synth.get("target_rt", 1.2))),
        alpha_hat=_require_alpha_hat(config),
        psi=float(config.get("psi", ingest.DEFAULT_EFFICACY)))


def _require_alpha_hat(config) -> float:
    # no published default exists for the asymptomatic discount; require it
    # explicitly unless the caller accepts the fixture convention
    return float(config.get("alpha_hat", 0.5))


def _schedule(config) -> dynamics.VaccinationSchedule:
    sched = dict(DEFAULT_SCHEDULE)
    sched.update(config.get("schedule", {}))
    if "budget" in config:
        sched["budget"] = config["budget"]
    return dynamics.VaccinationSchedule(
        daily_rate=float(sched["daily_rate"]),
        interval_days=int(sched["interval_days"]),
        total_budget=float(sched["budget"]),
        leftover_rule=sched["leftover_rule"])


def _policy_specs(config) -> list[policies.PolicySpec]:
    specs = []
    for doc in config.get("policies", DEFAULT_POLICIES):
        specs.append(policies.PolicySpec(
            kind=doc["kind"],
            resolve_mode=doc.get("resolve_mode", "static"),
            priority_groups=tuple(tuple(t) if isinstance(t, list) else t
                                  for t in doc.get("priority_groups", ()))))
    return specs


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_calibrate(config) -> int:
    inst = _build_instance(config)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "instance.json"
    ingest.save_instance(inst, path)
    rt = effective_reproduction_number(inst.state0, inst.net, inst.params,
                                       inst.contacts)
    print(f"calibrated instance written to {path}; Rt = {rt:.6f}")
    return EXIT_OK


def cmd_allocate(config) -> int:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    if config.get("model") == "bubar":
        params, state0 = bubar.us_like_instance(
            r0=float(config.get("target_r0", 1.15)),
            seed=int(config.get("seed", 0)))
        supply = None
        if config.get("budget") is not None:
            supply = float(config["budget"]) * float(params.populations.sum())
        alpha, result = bubar.solve_bubar_allocation(
            state0, params, alpha=config.get("alpha"), supply=supply)
        labels = list(params.labels)
    else:
        inst = _build_instance(config)
        if config.get("alpha") is not None:
            prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                           inst.contacts, float(config["alpha"]))
            result = allocator.solve_allocation(prob)
            alpha = float(config["alpha"])
        else:
            budget = float(config.get("budget", 0.0)) * inst.net.total_population
            alpha, result = allocator.max_decay_binary_search(
                inst.state0, inst.net, inst.params, inst.contacts, budget)
        labels = dynamics._cell_labels(inst)
    doc = allocator.result_to_dict(result)
    doc["achieved_alpha"] = alpha
    _write_atomic(out / "allocation.json", json.dumps(doc, indent=2))
    with open(out / "allocation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "v", "doses"])
        for label, v, d in zip(labels, result.v, result.dose_vector):
            writer.writerow([label, f"{v:.10g}", f"{d:.10g}"])
    print(f"alpha = {alpha:.6f}; doses = {result.doses:.1f}; "
          f"certificate lambda_max = {result.certificate.lambda_max:.6f} "
          f"(satisfied={result.certificate.satisfied})")
    return EXIT_OK


def _simulate_covid(config) -> tuple[list, list]:
    specs = _policy_specs(config)
    trajs = dynamics.simulate_policies(_build_instance(config), specs,
                                       _schedule(config), int(config["horizon"]),
                                       step=config["step"])
    return [spec.name for spec in specs], trajs


def _summary_rows(names, trajs) -> list[dict]:
    return [{"policy": name, "final_cum_cases": traj.final_cumulative_cases(),
             "final_cum_deaths": traj.final_cumulative_deaths(),
             "total_doses": traj.total_doses()}
            for name, traj in zip(names, trajs)]


def cmd_simulate(config) -> int:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    if config.get("model") == "bubar":
        params, state0 = bubar.us_like_instance(
            r0=float(config.get("target_r0", 1.15)),
            seed=int(config.get("seed", 0)))
        names = config.get("bubar_policies",
                           ["optimal-stabilizing", *bubar.PRIORITY_PRESETS])
        trajs = bubar.simulate_bubar_policies(params, state0, names,
                                              _schedule(config),
                                              int(config["horizon"]),
                                              step=config["step"])
    else:
        names, trajs = _simulate_covid(config)
        for name, traj in zip(names, trajs):
            traj.to_csv(out / f"trajectory_{name}.csv")
    rows = _summary_rows(names, trajs)
    _write_summary(out / "summary.csv", rows)
    for row in rows:
        print(f"{row['policy']:24s} cases={row['final_cum_cases']:.1f} "
              f"deaths={row['final_cum_deaths']:.1f} doses={row['total_doses']:.1f}")
    return EXIT_OK


def _write_summary(path: Path, rows) -> None:
    lines = ["policy,final_cum_cases,final_cum_deaths,total_doses"]
    for row in rows:
        lines.append(f"{row['policy']},{row['final_cum_cases']:.6f},"
                     f"{row['final_cum_deaths']:.6f},{row['total_doses']:.6f}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _parse_range(spec) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    try:
        lo, hi, steps = spec.split(":")
        return np.linspace(float(lo), float(hi), int(steps))
    except (ValueError, AttributeError) as exc:
        raise InputError(f"range must be lo:hi:steps, got {spec!r}") from exc


def _sweep_point(payload):
    (config, axis, value) = payload
    config = dict(config)
    if axis == "budget":
        config["budget"] = value
    elif axis == "rt":
        config["target_rt"] = value
    elif axis == "interval":
        sched = dict(config.get("schedule", DEFAULT_SCHEDULE))
        sched["interval_days"] = int(round(value))
        config["schedule"] = sched
    else:
        raise InputError(f"unknown sweep axis {axis!r}")
    return [{"axis": axis, "value": value, **row}
            for row in _summary_rows(*_simulate_covid(config))]


def cmd_sweep(config) -> int:
    if config.get("model") == "bubar":
        raise InputError("sweep runs the covid models only, not bubar")
    axis = config.get("axis")
    if axis not in ("budget", "rt", "interval"):
        raise InputError("sweep needs --axis budget|rt|interval")
    values = _parse_range(config.get("range"))
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    payloads = [(config, axis, float(v)) for v in values]
    workers = int(config.get("workers", 0)) or min(len(payloads),
                                                   os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_point, payloads))
    else:
        chunks = [_sweep_point(p) for p in payloads]
    lines = ["axis,value,policy,final_cum_cases,final_cum_deaths,total_doses"]
    for chunk in chunks:
        for row in chunk:
            lines.append(f"{row['axis']},{row['value']:.6g},{row['policy']},"
                         f"{row['final_cum_cases']:.6f},"
                         f"{row['final_cum_deaths']:.6f},"
                         f"{row['total_doses']:.6f}")
    _write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep written to {out / 'sweep.csv'} ({len(values)} points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabvax",
        description="stabilizing vaccine allocation for networked epidemics")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--model", choices=["covid", "covid-demographic", "bubar"])
    parser.add_argument("--budget", type=float,
                        help="total budget as a fraction of the population")
    parser.add_argument("--alpha", type=float, help="target decay rate (1/day)")
    parser.add_argument("--target-rt", dest="target_rt", type=float)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--step", type=float,
                        help="RK4 step in days, dividing one day (default "
                             f"{dynamics.DEFAULT_STEP}: final cases and deaths "
                             "within 1e-10 relative of a quarter step for "
                             "the covid models, 1e-9 for bubar)")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--policy", action="append",
                        help="policy kind (repeatable)")
    parser.add_argument("--axis", choices=["budget", "rt", "interval"])
    parser.add_argument("--range", help="sweep grid lo:hi:steps")
    parser.add_argument("command",
                        choices=["calibrate", "allocate", "simulate",
                                 "compare", "sweep"])
    return parser


COMMANDS = {
    "calibrate": cmd_calibrate,
    "allocate": cmd_allocate,
    "simulate": cmd_simulate,
    "compare": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return COMMANDS[args.command](config)
    except (InputError, ingest.IngestError, FileNotFoundError, KeyError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleAllocationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
