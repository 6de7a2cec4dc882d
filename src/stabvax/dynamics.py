"""Forward integration of the epidemic models with discrete vaccination
events and full case accounting.

Policies are simulated side by side: the K policies of one comparison share
one state array of shape (compartments * cells, K), one RK4 integration per
day and one day loop (`run_days`), which also serves the SEIR comparison
model. A model plugs into the loop with a dosing hook, which doses one
column at the start of a supply interval, and a recorder, which stores the
post-dosing state of every day; `simulate_policies` supplies both for the
covid models and `bubar.simulate_bubar_policies` for the SEIR model.

Every model integrates at `DEFAULT_STEP` = 0.25 day unless told otherwise.
Final cumulative cases and deaths then lie within 1e-10 relative of a run at
a quarter step for the covid models and 1e-9 for SEIR (TestDefaultStepAccuracy
in tests/test_dynamics.py); daily xa and xs err more, up to 3e-8 of their peak.

`Trajectory.to_csv` writes every value as exactly the bytes of '%.12g'. A
numpy kernel (`_text`) formats all of them at once; Python's % formats the few
it cannot prove: those within 1e-3 of a rounding tie (about 0.2% of a
trajectory's values), outside [1e-99, 1e12), negative, -0.0 or not finite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ingest import EpidemicInstance
from .model import (ContactStructure, DiseaseParams, EpidemicState,
                    NetworkInstance, flow_for_model, _cell_rates)

log = logging.getLogger(__name__)

DEFAULT_STEP = 0.25
# persons: a policy whose active infections (xa + xs; E and I in SEIR) fall
# below this doses by the schedule's leftover rule
EXTINCTION_THRESHOLD = 1.0

TRAJECTORY_HEADER = (b"t,cell,s,xa,xs,e,h,new_cases,cum_cases,cum_deaths,"
                     b"doses\r\n")


@dataclass
class VaccinationSchedule:
    """Dose supply pattern: daily_rate and total_budget are fractions of the
    total population; an interval's doses arrive at its start."""

    daily_rate: float
    interval_days: int = 1
    total_budget: float = 0.0
    leftover_rule: str = "even-split"

    def __post_init__(self):
        if self.daily_rate < 0:
            raise ValueError("daily rate must be nonnegative")
        if self.interval_days < 1:
            raise ValueError("supply interval must be at least one day")
        if not 0.0 <= self.total_budget <= 1.0:
            raise ValueError("budget must be a fraction of the population")
        if self.leftover_rule not in ("even-split", "none"):
            raise ValueError("leftover rule must be 'even-split' or 'none'")


@dataclass
class Trajectory:
    """Daily records of a simulated scenario. Compartment columns are
    fractions; counter columns are persons (cumulative doses administered)."""

    times: np.ndarray
    s: np.ndarray
    xa: np.ndarray
    xs: np.ndarray
    e: np.ndarray
    h: np.ndarray
    vax: np.ndarray
    new_cases: np.ndarray
    cum_cases: np.ndarray
    cum_deaths: np.ndarray
    doses: np.ndarray
    clamp_events: int = 0
    labels: Sequence[str] = field(default_factory=list)

    def final_cumulative_cases(self) -> float:
        return float(self.cum_cases[-1].sum())

    def final_cumulative_deaths(self) -> float:
        return float(self.cum_deaths[-1].sum())

    def total_doses(self) -> float:
        return float(self.doses[-1].sum())

    def to_csv(self, path) -> None:
        """One row per day and cell, the bytes csv.writer writes for them
        (cell labels hold no comma, quote, line break or NUL): t as '%.6g',
        then every value as exactly the bytes of '%.12g' (see the module
        docstring). Raises ValueError if labels are not one per cell."""
        from . import _text  # its tables load with the first file written

        cells = self.s.shape[1]
        labels = list(self.labels) or [str(i) for i in range(cells)]
        if len(labels) != cells:
            raise ValueError(f"{len(labels)} labels for {cells} cells")
        values = np.stack([self.s, self.xa, self.xs, self.e, self.h,
                           self.new_cases, self.cum_cases, self.cum_deaths,
                           self.doses], axis=-1)
        rows = _text.csv_rows(["%.6g" % t for t in self.times.tolist()],
                              labels, values)
        with open(path, "wb") as fh:
            fh.write(TRAJECTORY_HEADER)
            fh.write(rows)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def rhs_covid(state: EpidemicState, net: NetworkInstance,
              params: DiseaseParams,
              contacts: Optional[ContactStructure] = None) -> tuple:
    """Derivatives (ds, dxa, dxs, de, dh) at one state of the homogeneous
    model or, given contacts, of the age-structured one; infection inflow
    into the asymptomatic track is positive in both."""
    rhs = covid_rhs_factory(net, params, contacts)
    return tuple(rhs(state.t, _state_to_flat(state)).reshape(5, -1))


def covid_rhs_factory(net: NetworkInstance, params: DiseaseParams,
                      contacts: Optional[ContactStructure] = None,
                      ) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side over y = [s | xa | xs | e | h], of shape (5m,) or,
    for K scenarios side by side, (5m, K).

    One stacked matrix over (xa, xs) gives the force of infection and the
    linear rows of all five blocks; the infection s * force then moves from
    the s rows into the xa rows."""
    flow = flow_for_model(net, params, contacts)
    m = flow.shape[0]
    beta_a, beta_s, r_s, kappa = _cell_rates(net, params)
    eps, r_a = params.eps, params.r_a
    eye, zero = np.eye(m), np.zeros((m, m))
    mix = np.block([[beta_a[:, None] * flow, beta_s[:, None] * flow],
                    [zero, zero],
                    [-(eps + r_a) * eye, zero],
                    [eps * eye, -np.diag(r_s + kappa)],
                    [zero, np.diag(kappa)],
                    [r_a * eye, np.diag(r_s)]])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        y2 = y.reshape(5 * m, -1)
        z = mix @ y2[m:3 * m]
        inf = y2[:m] * z[:m]
        z[m:2 * m] -= inf
        z[2 * m:3 * m] += inf
        return z[m:].reshape(y.shape)

    return rhs


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: np.ndarray, t_span: tuple[float, float], step: float,
              clamp: Optional[tuple[float, Optional[float]]] = (0.0, 1.0),
              ) -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta integration of y0 of
    shape (d,) or, for K systems side by side, (d, K).

    Returns (times, states, clamp_events) where states[k] is the state at
    times[k]. States are clamped into the given bounds after every step; a
    step whose clamp moves an entry of a column by more than 1e-12 is one
    clamp event of that column, and is logged. clamp_events is an int for
    1-D y0 and a length-K int array for 2-D y0.

    A step whose new state is finite and inside the bounds has nothing to
    clamp, which one min and one max show; only other steps check the
    derivative for non-finite values and clip. Stage sums are formed in
    buffers, in the order of y + h/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t0, t1 = t_span
    n_steps = int(round((t1 - t0) / step))
    if n_steps < 1 or abs(t0 + n_steps * step - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("span must be a whole number of steps")
    y = np.array(y0, dtype=float)
    times = t0 + step * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1,) + y.shape)
    out[0] = y
    clamp_events = np.zeros(y.shape[1:], dtype=int)
    half = 0.5 * step
    # bounds a state must meet to skip the clamp; +-inf and nan never do
    big = np.finfo(float).max
    lower = -big if clamp is None else clamp[0]
    upper = big if clamp is None or clamp[1] is None else clamp[1]
    # one buffer per stage input, so an rhs returning its input stays intact
    y2, y3, y4, acc, tmp = np.empty((5,) + y.shape)
    for k in range(n_steps):
        t = times[k]
        k1 = rhs(t, y)
        k2 = rhs(t + half, np.add(y, np.multiply(half, k1, out=y2), out=y2))
        k3 = rhs(t + half, np.add(y, np.multiply(half, k2, out=y3), out=y3))
        k4 = rhs(t + step, np.add(y, np.multiply(step, k3, out=y4), out=y4))
        np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
        acc += np.multiply(2.0, k3, out=tmp)
        acc += k4
        acc *= step / 6.0
        y += acc
        if not lower <= y.min() <= y.max() <= upper:
            if not np.all(np.isfinite(k4)):
                raise FloatingPointError(f"non-finite derivative at t={t + step}")
            if clamp is not None:
                clipped = np.clip(y, *clamp)
                drift = np.abs(clipped - y).max(axis=0, initial=0.0)
                if (drift > 1e-12).any():
                    clamp_events += drift > 1e-12
                    log.debug("clamped state by %.3g at t=%.4f", drift.max(),
                              t + step)
                y = clipped
        out[k + 1] = y
    return times, out, int(clamp_events) if y.ndim == 1 else clamp_events


def apply_vaccination_event(state: EpidemicState, v: np.ndarray,
                            psi: float) -> EpidemicState:
    """Move psi*v of each cell from susceptible into the vaccinated-immune
    pool; v is the vaccinated fraction per cell and must not exceed s."""
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12) or np.any(v > state.s + 1e-9):
        raise ValueError("vaccination fractions must satisfy 0 <= v_i <= s_i")
    moved = psi * np.clip(v, 0.0, state.s)
    new = state.copy()
    new.s = np.clip(state.s - moved, 0.0, None)
    new.vax = state.vax + moved
    return new


# ---------------------------------------------------------------------------
# policy simulation loop
# ---------------------------------------------------------------------------

def run_days(rhs: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray,
             horizon: int, step: float, schedule: VaccinationSchedule,
             total_pop: float, dosing: Sequence[int],
             dose: Callable[[int, np.ndarray, float, float], tuple],
             record: Callable[[int, np.ndarray], None],
             clamp: Optional[tuple[float, Optional[float]]] = (0.0, 1.0),
             ) -> np.ndarray:
    """The day loop every model shares; y0 holds one scenario per column.

    At the start of each supply interval, each column k in `dosing` with a
    positive supply min(daily rate * population * interval, budget left)
    is dosed: dose(k, copy of column k, supply, budget left) returns the new
    column and the doses spent, charged to the column's budget. A budget
    left of at most 1e-12 of the total is a rounding residual and counts as
    spent. record(day, y) sees every day's state after dosing; one
    `integrate` call then advances all columns a day. Returns the clamp
    events per column."""
    y = np.array(y0, dtype=float)
    budget = schedule.total_budget * total_pop
    budget_left = np.full(y.shape[1], budget)
    epoch_supply = schedule.daily_rate * total_pop * schedule.interval_days
    clamp_events = np.zeros(y.shape[1], dtype=int)
    for day in range(horizon + 1):
        if day % schedule.interval_days == 0 and day < horizon:
            for k in dosing:
                supply = min(epoch_supply, budget_left[k])
                if supply > 0 and budget_left[k] > 1e-12 * budget:
                    y[:, k], spent = dose(k, y[:, k].copy(), supply,
                                          budget_left[k])
                    budget_left[k] -= spent
        record(day, y)
        if day < horizon:
            _, states, clamps = integrate(rhs, y, (float(day), float(day + 1)),
                                          step, clamp)
            clamp_events += clamps
            y = states[-1]
    return clamp_events


def simulate_policies(instance: EpidemicInstance, policies: Sequence,
                      schedule: VaccinationSchedule, horizon: int,
                      step: float = DEFAULT_STEP) -> list[Trajectory]:
    """Run several policies on one instance, one Trajectory per policy.

    Every supply interval each policy converts that epoch's doses into a
    vaccination event. New cases per day are the inflow into the infected
    chain scaled by residents; a policy's dosing switches to the leftover
    rule once its active infected persons drop below
    `EXTINCTION_THRESHOLD`."""
    from . import policies as policies_mod

    planners = [policies_mod.DosePlanner(policy, instance, schedule)
                for policy in policies]
    params = instance.params
    pops = instance.cell_populations()
    m, n_cols = pops.shape[0], len(planners)
    vax = np.repeat(instance.state0.vax[:, None], n_cols, axis=1)
    administered = np.zeros((m, n_cols))
    ys = np.empty((horizon + 1, 5 * m, n_cols))
    vax_days, dose_days = np.empty((2, horizon + 1, m, n_cols))

    def dose(k, col, supply, budget_left):
        state = EpidemicState(*col.reshape(5, m), vax=vax[:, k])
        if float(((state.xa + state.xs) * pops).sum()) < EXTINCTION_THRESHOLD:
            doses = policies_mod.leftover_redistribute(
                state, supply, schedule.leftover_rule, pops)
        else:
            doses = planners[k].epoch_doses(state, supply, budget_left)
        doses = np.minimum(doses, state.s * pops)
        if doses.sum() > supply * (1 + 1e-9):
            raise RuntimeError("policy emitted more doses than supplied")
        if doses.sum() > 0:
            state = apply_vaccination_event(state, doses / pops, params.psi)
            vax[:, k] = state.vax
            administered[:, k] += doses
        return _state_to_flat(state), float(doses.sum())

    def record(day, y):
        ys[day], vax_days[day], dose_days[day] = y, vax, administered

    y0 = np.repeat(_state_to_flat(instance.state0)[:, None], n_cols, axis=1)
    dosing = [k for k, policy in enumerate(policies)
              if getattr(policy, "kind", None) != "no-vaccine"]
    clamps = run_days(covid_rhs_factory(instance.net, params, instance.contacts),
                      y0, horizon, step, schedule, float(pops.sum()), dosing,
                      dose, record)

    # (block, column, day, cell)
    s, xa, xs, e, h = ys.reshape(horizon + 1, 5, m, n_cols).transpose(1, 3, 0, 2)
    cum_cases = (xa + xs + e + h) * pops
    new_cases = np.zeros_like(cum_cases)
    new_cases[:, 1:] = np.clip(np.diff(cum_cases, axis=1), 0.0, None)
    cols = dict(s=s, xa=xa, xs=xs, e=e, h=h, vax=vax_days.transpose(2, 0, 1),
                new_cases=new_cases, cum_cases=cum_cases, cum_deaths=e * pops,
                doses=dose_days.transpose(2, 0, 1))
    times = np.arange(horizon + 1, dtype=float)
    labels = _cell_labels(instance)
    return [Trajectory(times=times, clamp_events=int(clamps[k]), labels=labels,
                       **{name: arr[k] for name, arr in cols.items()})
            for k in range(n_cols)]


def simulate_policy(instance: EpidemicInstance, policy, schedule: VaccinationSchedule,
                    horizon: int, step: float = DEFAULT_STEP) -> Trajectory:
    """Run one policy; see `simulate_policies` (leftover dosing below
    `EXTINCTION_THRESHOLD`)."""
    return simulate_policies(instance, [policy], schedule, horizon, step)[0]


def _state_to_flat(state: EpidemicState) -> np.ndarray:
    return np.concatenate([state.s, state.xa, state.xs, state.e, state.h])


def _cell_labels(instance: EpidemicInstance) -> list[str]:
    n = instance.net.n
    if not instance.is_demographic:
        return [f"loc{i}" for i in range(n)]
    g = instance.net.n_groups
    return [f"loc{i}:g{b}" for i in range(n) for b in range(g)]
