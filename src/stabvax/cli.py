"""Command-line interface: calibrate instances, solve allocations, simulate
and compare policies, and run sensitivity sweeps.

Configuration comes from a JSON file (--config) with flag overrides;
CONFIG_KEYS lists every accepted key and the type a number in either is read
as; any other key exits as an input error. Exit codes: 0 success, 2
infeasible (or an unknown flag or choice), 3 input error, 4 solver failure.

Every command runs on numpy alone (see the package docstring). Loading this
module loads `model`, `ingest` and `bubar`, which build every instance; the
rest loads as a command needs it: `allocate` the solvers (`allocator`,
`_lp`), and `simulate`, `compare` and `sweep` the simulator (`dynamics`, with
the solvers and `policies`). `calibrate` loads nothing more.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import bubar, ingest
from .ingest import write_atomic as _write_atomic
from .model import (DEFAULT_STEP, CalibrationError, InfeasibleAllocationError,
                    InfeasibleRateError, SolverError, calibrate_transmission,
                    effective_reproduction_number)

if TYPE_CHECKING:  # loaded by the commands that use them
    from . import dynamics, policies

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4

MODELS = ("covid", "covid-demographic", "bubar")

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


# every accepted config key per section ("" is the top level, and each entry
# of policies is a section of its own) with the type a number is read as,
# str or list for a value that must be a JSON string or list, or None for a
# value used as given; a null value counts as absent
CONFIG_KEYS = {
    "": {"seed": int, "horizon": int, "workers": int, "budget": float,
         "alpha": float, "target_rt": float, "psi": float, "alpha_hat": float,
         "step": float, "model": None, "out": str, "axis": None,
         "range": None, "policies": list, "instance": str, "files": None,
         "synthetic": None, "schedule": None},
    "synthetic": {"seed": int, "n": int},
    "schedule": {"daily_rate": float, "interval_days": int, "budget": float,
                 "leftover_rule": None},
    "files": {"trips": str, "dwell": str, "cases": str},
    "policies": {"kind": None, "resolve_mode": None, "priority_groups": list},
}
# keys of the covid instance and dose planner, which the SEIR model lacks
COVID_ONLY = ("synthetic", "instance", "files", "alpha_hat", "resolve_mode")
# top-level keys an instance source never reads, which exit as input errors
SOURCE_IGNORES = {"instance": ("psi", "seed", "alpha_hat", "synthetic",
                               "files"), "files": ("seed", "synthetic")}


def _check_section(name: str, section, seir: bool) -> None:
    """Drop the null values of one config section and read its numbers as
    their CONFIG_KEYS type, in place; raise InputError on an unknown key, a
    value of the wrong type, a fraction for an int, a non-finite float or a
    covid-only key with the SEIR model."""
    if not isinstance(section, dict):
        raise InputError(f"config section {name} must be a JSON object")
    for key, value in list(section.items()):
        where = f"{name}.{key}" if name else key
        if key not in CONFIG_KEYS[name]:
            raise InputError(f"unknown config key {where}")
        if seir and key in COVID_ONLY:
            raise InputError(f"config key {where} is for the covid models, "
                             "not bubar")
        kind = CONFIG_KEYS[name][key]
        if value is None:
            del section[key]
        elif kind in (str, list) and not isinstance(value, kind):
            raise InputError(f"config key {where} must be a JSON "
                             f"{'string' if kind is str else 'list'}, got "
                             f"{value!r}")
        elif kind not in (None, str, list):
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float, str)):
                raise InputError(f"config key {where} must be a number, "
                                 f"got {value!r}")
            try:  # an int, or a flag's digits, reads exactly
                number = (int(value) if kind is int and str(value).isdigit()
                          else float(value))
            except (ValueError, OverflowError) as exc:  # float of a huge int
                raise InputError(f"config key {where}: {exc}") from exc
            if kind is float and not np.isfinite(number):
                raise InputError(f"{where} must be finite, got {value!r}")
            if kind is int and number % 1:  # a fraction, inf or nan
                raise InputError(f"{where} must be an integer, got {value!r}")
            section[key] = kind(number)


def _load_config(args) -> dict:
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError("config must be a JSON object")
    # --policy fills policies below; config and command are no config keys
    config.update((key, value) for key, value in vars(args).items()
                  if value is not None
                  and key not in ("config", "policy", "command"))
    if args.policy:
        config["policies"] = [{"kind": kind} for kind in args.policy]
    seir = config.get("model") == "bubar"
    _check_section("", config, seir)
    for key in ("horizon", "workers"):  # 0 workers: one per CPU
        if config.get(key, 0) < 0:
            raise InputError(f"{key} must be nonnegative, got {config[key]!r}")
    for source, ignored in SOURCE_IGNORES.items():
        unread = [key for key in ignored if source in config and key in config]
        if unread:
            raise InputError(f"config keys {unread} have no effect with "
                             f"{source}")
    for name in ("synthetic", "schedule", "files"):
        _check_section(name, config.get(name, {}), seir)
    for policy in config.get("policies", []):
        _check_section("policies", policy, seir)
    if config.setdefault("model", "covid") not in MODELS:
        raise InputError(f"model must be one of {MODELS}")
    config.setdefault("out", ".")
    config.setdefault("horizon", 500)
    step = config.setdefault("step", DEFAULT_STEP)
    per_day = 1.0 / step if step > 0 else 0.0
    if per_day < 1 or abs(per_day - round(per_day)) > 1e-9:
        raise InputError(f"step must be positive and divide one day, got {step!r}")
    return config


def _build_instance(config) -> ingest.EpidemicInstance:
    if "instance" in config:
        inst = ingest.load_instance(config["instance"])
        if "target_rt" in config:
            inst.params = calibrate_transmission(
                inst.net, inst.params, inst.state0, config["target_rt"],
                inst.contacts)
        return inst
    if "files" in config:
        files = config["files"]
        net, state = ingest.load_instance_from_files(
            files["trips"], files["dwell"], files["cases"])
        params = ingest.default_disease_params(
            psi=config.get("psi", ingest.DEFAULT_EFFICACY),
            alpha_hat=_alpha_hat(config))
        params = calibrate_transmission(net, params, state,
                                        config.get("target_rt", 1.0))
        return ingest.EpidemicInstance(net=net, params=params, state0=state)
    synthetic = config.get("synthetic", {})
    return ingest.synthetic_instance(
        config.get("seed", synthetic.get("seed", 0)), synthetic.get("n", 5),
        groups=(config["model"] == "covid-demographic"),
        target_rt=config.get("target_rt", 1.2), alpha_hat=_alpha_hat(config),
        psi=config.get("psi", ingest.DEFAULT_EFFICACY))


def _alpha_hat(config) -> float:
    # no published default exists for the asymptomatic discount; 0.5 is the
    # fixture convention
    return config.get("alpha_hat", 0.5)


def _seir_fixture(config) -> tuple[bubar.BubarParams, bubar.BubarState]:
    """The SEIR fixture, with target_rt as its R0."""
    return bubar.us_like_instance(
        r0=config.get("target_rt", 1.15), seed=config.get("seed", 0),
        psi=config.get("psi", bubar.DEFAULT_EFFICACY))


def _schedule(config) -> dynamics.VaccinationSchedule:
    from . import dynamics
    schedule = dict(DEFAULT_SCHEDULE)
    schedule.update(config.get("schedule", {}))
    if "budget" in config:
        schedule["budget"] = config["budget"]
    return dynamics.VaccinationSchedule(
        daily_rate=schedule["daily_rate"],
        interval_days=schedule["interval_days"],
        total_budget=schedule["budget"],
        leftover_rule=schedule["leftover_rule"])


def _policy_specs(config) -> tuple[list, list[policies.PolicySpec]]:
    """Names and specs of the configured policies, each named by its spec's
    name, on every model."""
    from . import policies
    default = DEFAULT_POLICIES if config["model"] != "bubar" else [
        {"kind": k} for k in ("optimal-stabilizing", *policies.AGE_BANDS)]
    specs = [policies.PolicySpec(
        kind=policy["kind"],
        resolve_mode=policy.get("resolve_mode", "static"),
        priority_groups=tuple(tuple(t) if isinstance(t, list) else t
                              for t in policy.get("priority_groups", ())))
        for policy in config.get("policies", default)]
    return _distinct([spec.name for spec in specs]), specs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_calibrate(config) -> int:
    if config["model"] == "bubar":
        raise InputError("calibrate writes covid instances, not bubar")
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
    if "alpha" in config and "budget" in config:
        raise InputError("give alpha or budget, not both")
    from . import allocator
    if config["model"] == "bubar":
        params, state0 = _seir_fixture(config)
        supply = None if "alpha" in config else config.get(
            "budget", 0.0) * float(params.populations.sum())
        alpha, result = bubar.solve_bubar_allocation(
            state0, params, alpha=config.get("alpha"), supply=supply)
        labels = list(bubar.DECADE_LABELS)
    else:
        inst = _build_instance(config)
        if "alpha" in config:
            alpha = config["alpha"]
            result = allocator.solve_allocation(allocator.build_problem(
                inst.state0, inst.net, inst.params, inst.contacts), alpha)
        else:
            budget = config.get("budget", 0.0) * inst.net.total_population
            alpha, result = allocator.max_decay_binary_search(
                inst.state0, inst.net, inst.params, inst.contacts, budget)
        labels = inst.cell_labels()
    doc = allocator.result_to_dict(result)
    doc["achieved_alpha"] = alpha
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "allocation.json", json.dumps(doc, indent=2))
    rows = io.StringIO()
    csv.writer(rows).writerows([["cell", "v", "doses"]] + [
        [label, f"{v:.10g}", f"{d:.10g}"]
        for label, v, d in zip(labels, result.v, result.dose_vector)])
    _write_atomic(out / "allocation.csv", rows.getvalue())
    print(f"alpha = {alpha:.6f}; doses = {result.doses:.1f}; "
          f"certificate lambda_max = {result.certificate.lambda_max:.6f} "
          f"(satisfied={result.certificate.satisfied})")
    return EXIT_OK


def _instance(config):
    """The calibrated instance of the configured model: the SEIR fixture's
    (params, state0), or a covid `EpidemicInstance`."""
    return (_seir_fixture(config) if config["model"] == "bubar"
            else _build_instance(config))


def _simulate(config, instance=None) -> tuple[list, list]:
    """Names and trajectories of the configured policies, for every model,
    on instance, or on the config's own when it is None."""
    from . import dynamics
    names, specs = _policy_specs(config)
    instance = _instance(config) if instance is None else instance
    model = (bubar.bubar_model(*instance) if config["model"] == "bubar"
             else dynamics.covid_model(instance))
    return names, dynamics.simulate(model, specs, _schedule(config),
                                    config["horizon"], config["step"])


def _distinct(names: list) -> list:
    """names, checked to be distinct: each names its own outputs."""
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise InputError(f"policy names {repeated} are repeated; each policy "
                         "needs a name of its own")
    return names


def _summary_rows(names, trajs) -> list[dict]:
    return [{"policy": name, "final_cum_cases": traj.final_cumulative_cases(),
             "final_cum_deaths": traj.final_cumulative_deaths(),
             "total_doses": traj.total_doses()}
            for name, traj in zip(names, trajs)]


def cmd_simulate(config) -> int:
    names, trajs = _simulate(config)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    if config["model"] != "bubar":
        for name, traj in zip(names, trajs):
            traj.to_csv(out / f"trajectory_{name}.csv")
    rows = _summary_rows(names, trajs)
    _write_summary(out / "summary.csv", rows)
    for row in rows:
        print(f"{row['policy']:24s} cases={row['final_cum_cases']:.1f} "
              f"deaths={row['final_cum_deaths']:.1f} doses={row['total_doses']:.1f}")
    return EXIT_OK


# summary.csv's columns and their formats; sweep.csv puts axis and value first
SUMMARY_COLUMNS = {"policy": "", "final_cum_cases": ".6f",
                   "final_cum_deaths": ".6f", "total_doses": ".6f"}


def _write_summary(path: Path, rows, columns=SUMMARY_COLUMNS) -> None:
    """A line of column names, then a line of each row's values, formatted."""
    lines = [",".join(columns)] + [",".join(
        format(row[key], spec) for key, spec in columns.items())
        for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _parse_range(spec) -> np.ndarray:
    """The sweep grid of a flat list of numbers or a 'lo:hi:steps' string."""
    try:
        if isinstance(spec, (list, tuple)):  # a non-number, bools too, is nan
            values = np.array([v if type(v) in (int, float) else np.nan
                               for v in spec], dtype=float)
        else:
            lo, hi, steps = spec.split(":")
            values = np.linspace(float(lo), float(hi), int(steps))
    except (ValueError, AttributeError, OverflowError) as exc:
        raise InputError(f"range must be lo:hi:steps, got {spec!r}") from exc
    if not np.isfinite(values).all():
        raise InputError(f"range must hold finite numbers only, got {spec!r}")
    return values


def _sweep_point(payload):
    (config, axis, value, instance) = payload
    config = dict(config)
    if axis == "budget":
        config["budget"] = value
    elif axis == "rt":
        config["target_rt"] = value
    elif axis == "interval":
        schedule = dict(config.get("schedule", DEFAULT_SCHEDULE))
        schedule["interval_days"] = int(round(value))
        config["schedule"] = schedule
    return [{"axis": axis, "value": value, **row}
            for row in _summary_rows(*_simulate(config, instance))]


def cmd_sweep(config) -> int:
    axis = config.get("axis")
    if axis not in ("budget", "rt", "interval"):
        raise InputError("sweep needs --axis budget|rt|interval")
    values = _parse_range(config.get("range"))
    if not values.size:
        raise InputError(f"range must hold a point, got {config['range']!r}")
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    # only the rt axis changes the instance, so the others build it once
    instance = None if axis == "rt" else _instance(config)
    payloads = [(config, axis, float(v), instance) for v in values]
    workers = int(config.get("workers", 0)) or min(len(payloads),
                                                   os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # fork with the simulator loaded, so that no worker compiles it again
        importlib.import_module(".dynamics", __package__)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_point, payloads))
    else:
        chunks = [_sweep_point(p) for p in payloads]
    _write_summary(out / "sweep.csv", sum(chunks, []),
                   {"axis": "", "value": ".6g", **SUMMARY_COLUMNS})
    print(f"sweep written to {out / 'sweep.csv'} ({len(values)} points)")
    return EXIT_OK


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabvax",
        description="stabilizing vaccine allocation for networked epidemics")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--budget",
                        help="total budget as a fraction of the population")
    parser.add_argument("--alpha", help="target decay rate (1/day)")
    parser.add_argument("--target-rt", dest="target_rt",
                        help="reproduction number to calibrate to: Rt for "
                             "the covid models, R0 for bubar")
    parser.add_argument("--horizon")
    parser.add_argument("--step",
                        help="RK4 step in days, dividing one day (default "
                             f"{DEFAULT_STEP}: final cases and deaths "
                             "within 1e-10 relative of a quarter step for "
                             "the covid models, 1e-9 for bubar)")
    parser.add_argument("--workers")
    parser.add_argument("--policy", action="append",
                        help="policy kind (repeatable) on every model (an "
                             "unknown kind's error lists them); an age band "
                             "needs age groups, age-priority a config's "
                             "priority_groups")
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
    except (InfeasibleAllocationError, InfeasibleRateError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputError, ingest.IngestError, FileNotFoundError, KeyError,
            ValueError, CalibrationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
