"""The benchmark's workloads: fixed lists of `stabvax` CLI operations.

Every operation gets a config file for each instance of the run's fixed
set (`Workload.instance_seeds`): the anchor instances, instance seeds
0 .. `Workload.anchor_count` - 1 in every run, and one instance drawn from
the workload seed (`Workload.drawn_seed`). Each pass runs every operation on
every instance of the set; the set does not depend on how many passes fit in
a run.

The gated times come from the anchors alone. The solver's cost is
heavy-tailed across instances: the budgeted bisection on homogeneous n=50
takes 0.2 s on most instances and 3-8 s on about one in five, and the
alpha=0 n=100/200 solves take about 2x on a third of them. With the three or
four instances a run has time for, a set drawn per seed moved wall_s by
0.15-0.25 of its median from seed to seed through the draw alone. The drawn
instance is timed and checked all the same and reported as the held-out
figure (`heldout_wall_s`), so that a claim can be checked on inputs it was
not tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

BUDGET = 0.05
SEIR_POLICIES = ("optimal-stabilizing", "under-20", "adults-20-49",
                 "adults-20-plus", "seniors-60-plus", "all-ages")
COVID_POLICIES = ("optimal-stabilizing", "population-weighted",
                  "infection-weighted", "no-vaccine")
# seniors first, then down the age groups of the six-group NY structure
AGE_PRIORITY = {"kind": "age-priority", "priority_groups": [5, 4, 3, 2, 1, 0]}
DAILY_RESOLVE = {"kind": "optimal-stabilizing", "resolve_mode": "daily-resolve"}
SWEEP_POLICIES = ({"kind": "population-weighted"}, {"kind": "optimal-stabilizing"})
SWEEP_RANGE = (0.01, 0.08, 8)
SWEEP_WORKERS = 2
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    """One CLI call. `model` is the CLI `--model`; `n` is the number of
    locations of the synthetic instance (None for the SEIR fixture)."""

    label: str
    command: str
    model: str
    n: Optional[int] = None
    budget: Optional[float] = None
    alpha: Optional[float] = None
    horizon: Optional[int] = None
    policies: Optional[tuple] = None
    sweep: bool = False
    roadmap_case: Optional[str] = None

    @property
    def policy_names(self) -> list[str]:
        """Policy names the CLI writes to summary.csv / sweep.csv."""
        if self.model == "bubar":
            return list(SEIR_POLICIES)
        docs = self.policies if self.policies is not None else [
            {"kind": k} for k in COVID_POLICIES]
        return ["optimal-daily" if d.get("resolve_mode") == "daily-resolve"
                else d["kind"] for d in docs]

    @property
    def policy_days(self) -> int:
        points = SWEEP_RANGE[2] if self.sweep else 1
        return points * len(self.policy_names) * (self.horizon or 0)

    def config(self, seed: int, out: str) -> dict:
        cfg: dict = {"model": self.model, "out": out}
        if self.model == "bubar":
            cfg["seed"] = seed
        else:
            cfg["synthetic"] = {"seed": seed, "n": self.n}
        if self.horizon is not None:
            cfg["horizon"] = self.horizon
        if self.policies is not None:
            cfg["policies"] = [dict(p) for p in self.policies]
        return cfg

    def argv(self, config_path: str) -> list[str]:
        argv = ["--config", config_path]
        if self.budget is not None and self.command == "allocate":
            argv += ["--budget", repr(self.budget)]
        if self.alpha is not None:
            argv += ["--alpha", repr(self.alpha)]
        if self.sweep:
            lo, hi, steps = SWEEP_RANGE
            argv += ["--axis", "budget", "--range", f"{lo}:{hi}:{steps}",
                     "--workers", str(SWEEP_WORKERS)]
        return argv + [self.command]


def _alloc(label, model, n=None, budget=None, alpha=None, case=None):
    return Op(label, "allocate", model, n=n, budget=budget, alpha=alpha,
              roadmap_case=case)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    # anchors include synthetic_instance(0, n), which holds the uncertified
    # allocations of budgeted n=50 and age-structured n=20
    anchor_count: int = 2

    @property
    def anchor_seeds(self) -> list[int]:
        return list(range(self.anchor_count))

    def drawn_seed(self, seed: int) -> int:
        return SEED_STRIDE * seed + self.anchor_count

    def instance_seeds(self, seed: int) -> list[int]:
        """The fixed instance set of a run with workload seed `seed`."""
        return self.anchor_seeds + [self.drawn_seed(seed)]

    @property
    def instances(self) -> list[tuple[str, Optional[int]]]:
        """Distinct (model, n) instances the operations build."""
        seen = []
        for op in self.ops:
            key = (op.model, op.n)
            if key not in seen:
                seen.append(key)
        return seen


WORKLOADS = {w.name: w for w in (
    Workload(
        "alloc-mix",
        "allocate only: LMI cutting plane, alpha bisection and the bilinear "
        "SLP route, plus certificate eigen-solves; no simulation",
        (
            _alloc("budget-covid-n5", "covid", 5, budget=BUDGET, case="lmi-n5"),
            _alloc("budget-covid-n20", "covid", 20, budget=BUDGET, case="lmi-n20"),
            _alloc("budget-covid-n50", "covid", 50, budget=BUDGET, case="lmi-n50"),
            _alloc("budget-age-n5", "covid-demographic", 5, budget=BUDGET),
            _alloc("budget-age-n10", "covid-demographic", 10, budget=BUDGET),
            _alloc("budget-age-n20", "covid-demographic", 20, budget=BUDGET),
            _alloc("alpha0-covid-n100", "covid", 100, alpha=0.0,
                   case="bilinear-n100"),
            _alloc("alpha0-covid-n200", "covid", 200, alpha=0.0,
                   case="bilinear-n200"),
            _alloc("budget-seir", "bubar", budget=BUDGET, case="seir-5pct"),
            _alloc("alpha0-seir", "bubar", alpha=0.0),
        )),
    Workload(
        "policy-sim",
        "compare static policies: RK4 integration dominates; the allocator "
        "runs once per static optimal plan; CLI writes trajectory CSVs",
        (
            Op("compare-covid-n5", "compare", "covid", n=5, horizon=300,
               roadmap_case="simulation-n5"),
            Op("compare-covid-n50", "compare", "covid", n=50, horizon=200),
            Op("compare-age-n5", "compare", "covid-demographic", n=5,
               horizon=200,
               policies=tuple({"kind": k} for k in COVID_POLICIES)
               + (AGE_PRIORITY,)),
            Op("compare-seir", "compare", "bubar", horizon=300),
        ),
        # four operations give few samples a run; with two anchors the
        # run-to-run spread of wall_s was 0.135 of its median, mostly noise
        # of the host, so it measures four
        anchor_count=4),
    Workload(
        "daily-resolve",
        "optimal-daily dosing: a budgeted bisection re-solved every epoch on "
        "a state that barely moved, i.e. many small similar solves",
        (
            Op("daily-covid-n5", "compare", "covid", n=5, horizon=20,
               policies=(DAILY_RESOLVE,), roadmap_case="optimal-daily"),
            Op("daily-age-n5", "compare", "covid-demographic", n=5,
               horizon=20, policies=(DAILY_RESOLVE,)),
        )),
    Workload(
        "sweep",
        "budget sweep over a 2-process pool: the only workload that crosses "
        "the CLI fan-out and re-runs ingest calibration at every point",
        (
            Op("sweep-budget-covid-n20", "sweep", "covid", n=20, horizon=150,
               policies=SWEEP_POLICIES, sweep=True),
        )),
)}
