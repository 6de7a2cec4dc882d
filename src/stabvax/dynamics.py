"""Forward integration of the epidemic models with discrete vaccination
events and full case accounting.

One driver, `simulate`, runs the K policies of one comparison side by side
on any model: they share one state array of shape (state size, K) and one
day loop, advanced in place by one RK4 stepper (`_RK4`, which `integrate`
drives too) that the model's right-hand side evaluates its weighted stages
into. A model plugs in as a `SimulationModel`, a small adapter:
`covid_model` for the homogeneous and age-structured models and
`bubar.bubar_model` for the SEIR comparison model.

Every model integrates at `DEFAULT_STEP` = 0.25 day unless told otherwise.
Final cumulative cases and deaths then lie within 1e-10 relative of a run at
a quarter step for the covid models and 1e-9 for SEIR (TestDefaultStepAccuracy
in tests/test_dynamics.py); daily xa and xs err more, up to 3e-8 of their peak.

`Trajectory.to_csv` writes every value as exactly the bytes of '%.12g'. A
numpy kernel (`_text`) formats all of them at once: it builds each value's
text left-aligned in an 18-byte slot from table rows keyed by exponent and
last nonzero digit, and one `translate` deletes the NUL padding. Python's %
formats the few values it cannot prove: those within 1e-3 of a rounding tie
(about 0.2% of a trajectory's values), outside [1e-99, 1e12), negative, -0.0
or not finite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import allocator, policies
from .ingest import AGE_GROUP_RANGES, EpidemicInstance, write_atomic
from .model import (DEFAULT_STEP, ContactStructure, DiseaseParams,
                    EpidemicState, NetworkInstance, build_flow_matrix,
                    flow_for_model, _cell_rates)

log = logging.getLogger(__name__)

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
    """Daily records of a simulated scenario: `fields` maps a name to its
    (days, cells) array, as the model's `columns` builds them, and each field
    reads as an attribute (traj.s, traj.cum_cases). Compartment fields of the
    covid models are fractions; the SEIR model's are persons, and counter
    fields are persons (cum_cases, cum_deaths, and doses administered)."""

    times: np.ndarray
    fields: dict
    clamp_events: int
    labels: Sequence[str]

    def __getattr__(self, name):
        try:
            return self.__dict__["fields"][name]
        except KeyError:
            raise AttributeError(name) from None

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
        docstring), through `ingest.write_atomic`. Raises ValueError if
        labels are not one per cell."""
        from . import _text  # its tables load with the first file written

        cells = self.s.shape[1]
        if len(self.labels) != cells:
            raise ValueError(f"{len(self.labels)} labels for {cells} cells")
        values = np.stack([self.s, self.xa, self.xs, self.e, self.h,
                           self.new_cases, self.cum_cases, self.cum_deaths,
                           self.doses], axis=-1)
        write_atomic(path, TRAJECTORY_HEADER, _text.csv_rows(
            ["%.6g" % t for t in self.times.tolist()], self.labels, values))


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

# Cells from which a covid stage applies the flow through its factors, as
# the stacked matrix's fewer calls win below. Per stage, stacked / factored
# us on synthetic_instance(0, n), 4 columns (age: 5), one CPU of a 2-vCPU
# Xeon, least of 100 interleaved rounds of 300 calls, median of 3 runs:
# n = 5, 10, 20, 25, 30, 50: 1.7/2.3, 2.0/2.3, 2.7/2.6, 3.8/2.9, 4.3/3.1,
# 7.2/3.4; age n = 2, 5, 8, 9, 10, 20 (6 cells each): 2.2/6.7, 5.3/8.4,
# 11.0/9.2, 13.1/9.7, 15.9/9.9, 58.3/14.1. Every stage product is np.dot
# with out=, which has less call overhead than np.matmul for the same BLAS
# call and bits; unlike np.matmul it does not check that out aliases no
# input, so a stage's out buffer must never overlap what it reads.
FACTORED_CELLS = 25
FACTORED_AGE_CELLS = 54


def covid_rhs_factory(net: NetworkInstance, params: DiseaseParams,
                      contacts: Optional[ContactStructure] = None,
                      ) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side over y = [s | xa | xs | e | h], of shape (5m,) or,
    for K scenarios side by side, (5m, K): the `bound_rhs` of its `bind`.
    bind(ys, weights) evaluates RK4 stage i into its own buffer as
    weights[i] times the derivative at ys[i]; `_RK4` runs only that.

    Below `FACTORED_CELLS` cells (`FACTORED_AGE_CELLS` in the age model) a
    stage is one matmul of a stacked (5m x 2m) matrix over (xa, xs), times
    the weight, giving the linear rows and, in the s rows, minus the force
    of infection, and two in-place ufuncs: times s that is the infection,
    which moves into the xa rows. From there on, one (5 x 2) product of the
    rates with the (2, m K) view of (xa, xs) gives the linear rows (the age
    model adds its groups' xs rates in a multiply and an add) and, in the s
    rows, minus the mix c_a xa + c_s xs; the force is the flow A times the
    mix, c = (beta_a, beta_s). In the age model beta_a = alpha_hat beta_s, so
    c = (alpha_hat, 1) and beta_s A = (Abar (x) diag(beta_s) Gamma) diag(N)
    acts through its factors, as Abar (N mix) (Gamma' diag(beta_s) (x) I_K)
    on the (n, g K) reshape: no (m x m) array is formed."""
    beta_a, beta_s, r_s, kappa = _cell_rates(net, params)
    eps, r_a, m, n = params.eps, params.r_a, len(beta_s), net.n
    demographic = params.is_demographic
    if demographic and contacts is None:
        raise ValueError("demographic parameters require a contact structure")

    def stacked(y, k, w):
        scaled_mix = w * mix
        s, xa_xs, ds, dxa = y[:m], y[m:3 * m], k[:m], k[m:2 * m]

        def evaluate():
            np.dot(scaled_mix, xa_xs, out=k)
            np.multiply(ds, s, out=ds)
            np.subtract(dxa, ds, out=dxa)

        return evaluate

    def factored(y, k, w):
        s, xs, pairs = y[:m], y[2 * m:3 * m], y[m:3 * m].reshape(2, -1)
        ds, dxa, rows = k[:m], k[m:2 * m], k.reshape(5, -1)
        xs_rows, cols = k[2 * m:].reshape(3, m, -1), y.shape[1]
        scaled_rates, force = w * rates, np.empty(s.shape)
        if demographic:
            pops = np.repeat(net.cell_populations()[:, None], cols, axis=1)
            gamma_k, scaled_xs = np.kron(gamma.T, np.eye(cols)), w * on_xs
            spread, mixed = np.empty((3, m, cols)), np.empty((n, m // n * cols))

        def evaluate():
            np.dot(scaled_rates, pairs, out=rows)
            if demographic:
                np.multiply(scaled_xs, xs, out=spread)
                np.add(xs_rows, spread, out=xs_rows)
                np.multiply(ds, pops, out=force)
                np.dot(abar, force.reshape(n, -1), out=mixed)
                np.dot(mixed, gamma_k, out=force.reshape(n, -1))
            else:
                np.dot(flow, ds, out=force)
            np.multiply(force, s, out=ds)
            np.subtract(dxa, ds, out=dxa)

        return evaluate

    if m < (FACTORED_AGE_CELLS if demographic else FACTORED_CELLS):
        stage, flow = stacked, flow_for_model(net, params, contacts)
        eye, zero = np.eye(m), np.zeros((m, m))
        mix = np.block([[-beta_a[:, None] * flow, -beta_s[:, None] * flow],
                        [-(eps + r_a) * eye, zero],
                        [eps * eye, -np.diag(r_s + kappa)],
                        [zero, np.diag(kappa)],
                        [r_a * eye, np.diag(r_s)]])
    else:
        stage, (flow, abar) = factored, build_flow_matrix(net)
        on_xs = np.stack([-(r_s + kappa), kappa, r_s])[:, :, None]
        # a cell's rows (mix, xa, xs, e, h) over (xa, xs)
        rates = np.array([[-beta_a[0], -eps - r_a, eps, 0.0, r_a],
                          [-beta_s[0], 0.0, *on_xs[:, 0, 0]]]).T
        if demographic:  # the groups' own xs rates come from on_xs
            rates[0], rates[2:, 1] = (-params.alpha_hat, -1.0), 0.0
            gamma = beta_s[:m // n, None] * contacts.gamma

    def bind(ys, weights):
        ks = np.empty(ys.shape)
        return ks, [stage(y, k, w) for y, k, w in zip(ys, ks, weights)]

    return bound_rhs(bind)


def bound_rhs(bind: Callable) -> Callable[[float, np.ndarray], np.ndarray]:
    """The derivative rhs(t, y) at y of shape (d,) or (d, K), one stage of
    weight 1 of `bind`, which it carries for `_RK4`; models are autonomous."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        ks, (evaluate,) = bind(y.reshape(1, len(y), -1), (1.0,))
        evaluate()
        return ks[0].reshape(y.shape)

    rhs.bind = bind
    return rhs


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def _whole_steps(t0: float, t1: float, step: float) -> int:
    """The number of steps of size `step` from t0 to t1; raises ValueError
    unless it is a positive whole number."""
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int(round((t1 - t0) / step))
    if n_steps < 1 or abs(t0 + n_steps * step - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("span must be a whole number of steps")
    return n_steps


class _RK4:
    """Classical fourth-order Runge-Kutta on one state of shape (d,) or
    (d, K), advanced in place; built once per simulation.

    It owns the stage inputs `ys` (ys[0] is the state) and the stage
    derivatives `ks` times their weights 1, 2, 2, 1 (exact: powers of two),
    both of shape (4,) + state shape. The rhs comes from a model factory, and
    its `bind` evaluates stage i straight into ks[i]: bind(ys, weights) takes
    the (4, d, K) stage inputs and returns ks and one evaluator per stage,
    its views bound once. With k2 and k3 doubled, the step is
    y + h/6 (k1 + k2 + k3 + k4) in that order, one add.reduce over ks. One
    minimum.reduce and one maximum.reduce show whether the new state lies in
    the model's clamp bounds, finite so that +-inf and nan never do; only a
    step where it does not checks k4 and clips.
    """

    def __init__(self, rhs: Callable[[float, np.ndarray], np.ndarray],
                 y0: np.ndarray, step: float, clamp: tuple[float, float]):
        y0 = np.asarray(y0, dtype=float)
        self.ys = np.empty((4,) + y0.shape)
        self.ys[0] = y0
        self.y, self.step, self.clamp = self.ys[0], step, clamp
        ks, self.stages = rhs.bind(self.ys.reshape(4, len(y0), -1),
                                   (1.0, 2.0, 2.0, 1.0))
        self.ks = ks.reshape(self.ys.shape)  # a view: drops a unit axis
        self.acc = np.empty(y0.shape)

    def advance(self, t0: float, n_steps: int) -> np.ndarray:
        """Take n_steps steps from time t0. Returns the clamp events per
        column: a step whose clamp moves an entry of a column by more than
        1e-12 is one event of that column."""
        y, y2, y3, y4 = self.ys
        k1, k2, k3, _ = ks = self.ks
        e1, e2, e3, e4 = self.stages
        step, half, quarter = self.step, 0.5 * self.step, 0.25 * self.step
        (lower, upper), sixth, acc = self.clamp, step / 6.0, self.acc
        least, most = np.minimum.reduce, np.maximum.reduce
        events = np.zeros(y.shape[1:], dtype=int)
        for k in range(n_steps):
            e1()
            np.add(y, np.multiply(half, k1, out=y2), out=y2)
            e2()
            np.add(y, np.multiply(quarter, k2, out=y3), out=y3)
            e3()
            np.add(y, np.multiply(half, k3, out=y4), out=y4)
            e4()
            np.add.reduce(ks, axis=0, out=acc)
            acc *= sixth
            y += acc
            if not lower <= least(y, None) <= most(y, None) <= upper:
                t = t0 + k * step + step
                if not np.all(np.isfinite(ks[3])):
                    raise FloatingPointError(f"non-finite derivative at t={t}")
                clipped = np.clip(y, lower, upper)
                drift = np.abs(clipped - y).max(axis=0, initial=0.0)
                if (drift > 1e-12).any():
                    events += drift > 1e-12
                    log.debug("clamped state by %.3g at t=%.4f", drift.max(), t)
                y[...] = clipped
        return events


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: np.ndarray, t_span: tuple[float, float], step: float,
              clamp: tuple[float, float] = (0.0, 1.0),
              ) -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta integration of y0 of
    shape (d,) or, for K systems side by side, (d, K), of a model factory's
    rhs through its `bind` (`covid_rhs_factory`, `bubar.bubar_rhs_factory`).

    Returns (times, states, clamp_events) where states[k] is the state at
    times[k]. States are clamped into the given bounds after every step; a
    step whose clamp moves an entry of a column by more than 1e-12 is one
    clamp event of that column, and is logged. clamp_events is an int for
    1-D y0 and a length-K int array for 2-D y0. It takes the steps of
    `_RK4`, the stepper of `simulate`, one at a time to keep every state.
    """
    t0, t1 = t_span
    times = t0 + step * np.arange(_whole_steps(t0, t1, step) + 1)
    stepper = _RK4(rhs, y0, step, clamp)
    states = np.empty(times.shape + stepper.y.shape)
    states[0] = stepper.y
    clamp_events = np.zeros(stepper.y.shape[1:], dtype=int)
    for k, t in enumerate(times[:-1]):
        clamp_events += stepper.advance(t, 1)
        states[k + 1] = stepper.y
    return times, states, (int(clamp_events) if states.ndim == 2
                           else clamp_events)


def _vaccinate(s: np.ndarray, v, psi: float) -> np.ndarray:
    """Move psi*v of each cell out of the susceptible fractions s, in place;
    v is the vaccinated fraction per cell and must not exceed s. Returns the
    fractions moved into the vaccinated-immune pool."""
    v = np.asarray(v, dtype=float)
    if (v < -1e-12).any() or (v > s + 1e-9).any():
        raise ValueError("vaccination fractions must satisfy 0 <= v_i <= s_i")
    moved = psi * np.clip(v, 0.0, s)
    np.clip(s - moved, 0.0, None, out=s)
    return moved


# ---------------------------------------------------------------------------
# policy simulation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationModel:
    """A model as `simulate` runs it. Per-cell counts are persons; headroom,
    active, infected and vaccinate read or dose, in place, the whole state
    array y (state size, K), C-ordered (K, cells) arrays going in and out.
    allocate takes one column and builds the model's own state from it."""

    y0: np.ndarray        # the initial state, flat
    rhs: Callable         # a model factory's right-hand side (`bound_rhs`)
    clamp: tuple          # finite (lower, upper) RK4 steps are clipped into
    labels: list          # one per cell
    populations: np.ndarray  # residents per cell
    n_groups: int         # age groups; cell c is group c % n_groups
    headroom: Callable    # y -> susceptible persons, (K, cells)
    active: Callable      # y -> active infected persons, (K,)
    infected: Callable    # y -> persons ever infected, (K, cells)
    vaccinate: Callable   # (y, doses (K, cells)) -> None
    allocate: Callable    # (column, dose budget) -> certified AllocationResult
    columns: Callable     # (day states, fields) -> every Trajectory field
    check: Optional[Callable] = None  # day's states -> raise if they fail
    age_ranges: tuple = ()  # (youngest, oldest) age per group, for age bands


def simulate(model: SimulationModel, specs: Sequence[policies.PolicySpec],
             schedule: VaccinationSchedule, horizon: int,
             step: float = DEFAULT_STEP) -> list:
    """Run several policies on one model, one `Trajectory` each; the state
    array holds one policy per column.

    The supply of an interval arrives at its start: each dosing column gets
    min(daily rate * population * interval, its budget left), and a budget
    left of at most 1e-12 of the total is a rounding residual that counts as
    spent. One dosing pass an epoch, `policies.emit_doses`, doses all
    columns with supply, each by its policy or, once its active infected
    persons drop below `EXTINCTION_THRESHOLD`, by the schedule's leftover
    rule (an even split capped by headroom, or nothing), and vaccinates them
    in one call.
    A static optimal plan can leave doses unspent for long (see
    `DosePlanner`). Each day's states are recorded after dosing, and one RK4
    stepper (`_RK4`), built before day 0, then advances all columns a day in
    place. model.columns gets the day states, of shape (days, state size,
    K), and the fields with a leading policy axis.

    A policy's trajectory can differ in its last bits with the number of
    policies run beside it (by 2-4e-16 of a field's largest value on
    synthetic instances), likely because a stage's product over K columns
    rounds differently for K = 1 and K = 4; its `trajectory_*.csv` can then
    change in the last printed digit."""
    planner = policies.DosePlanner(specs, model, schedule)
    n_cols = len(specs)
    administered = np.zeros((n_cols, len(model.populations)))
    ys = np.empty((horizon + 1, len(model.y0), n_cols))
    dose_days = np.empty((horizon + 1,) + administered.shape)
    dosing = np.array([spec.kind != "no-vaccine" for spec in specs])
    even = schedule.leftover_rule == "even-split"
    total_pop = float(model.populations.sum())
    steps_per_day = _whole_steps(0.0, 1.0, step)
    stepper = _RK4(model.rhs, np.repeat(model.y0[:, None], n_cols, axis=1),
                   step, model.clamp)
    y = stepper.y
    budget = schedule.total_budget * total_pop
    budget_left = np.full(n_cols, budget)
    epoch_supply = schedule.daily_rate * total_pop * schedule.interval_days
    clamps = np.zeros(n_cols, dtype=int)
    supply = np.minimum(epoch_supply, budget_left)
    due = dosing & (supply > 0) & (budget_left > 1e-12 * budget)
    for day in range(horizon + 1):
        if day % schedule.interval_days == 0 and day < horizon and due.any():
            extinct = model.active(y) < EXTINCTION_THRESHOLD
            planned = due & ~(extinct | planner.spent)
            spread = due & extinct & even
            if (planned | spread).any():
                headroom = model.headroom(y)
                doses = np.minimum(policies.emit_doses(
                    planner, y, headroom, supply, budget_left, planned,
                    spread), headroom)
                totals = doses.sum(axis=1)
                if (due & (totals > supply * (1 + 1e-9))).any():
                    raise RuntimeError("policy emitted more doses than "
                                       "supplied")
                model.vaccinate(y, doses)  # zero doses change no bit
                administered += doses
                budget_left -= totals
                supply = np.minimum(epoch_supply, budget_left)
                due &= (supply > 0) & (budget_left > 1e-12 * budget)
        if model.check is not None:
            model.check(y)
        ys[day], dose_days[day] = y, administered
        if day < horizon:
            clamps += stepper.advance(float(day), steps_per_day)
    fields = model.columns(ys, {"doses": dose_days.transpose(1, 0, 2)})
    times = np.arange(horizon + 1, dtype=float)
    return [Trajectory(times, {name: arr[k] for name, arr in fields.items()},
                       int(clamps[k]), model.labels) for k in range(n_cols)]


def covid_model(instance: EpidemicInstance) -> SimulationModel:
    """The homogeneous or age-structured model of an instance. Its state is
    y = [s | xa | xs | e | h], fractions of each cell's residents; the
    vaccinated-immune pool is not integrated but read off the doses. New
    cases per day are the inflow into the infected chain scaled by
    residents."""
    inst, pops, psi = instance, instance.cell_populations(), instance.params.psi
    m = len(pops)

    def columns(ys, fields):
        # (block, column, day, cell)
        s, xa, xs, e, h = ys.reshape(len(ys), 5, len(pops), -1).transpose(
            1, 3, 0, 2)
        # a sum of four nonnegative terms times N rounds within 2 eps of its
        # value, so a daily change within 4 eps of the larger day is rounding
        cum_cases = (xa + xs + e + h) * pops
        change, new_cases = np.diff(cum_cases, axis=1), np.zeros_like(cum_cases)
        noise = 4 * np.finfo(float).eps * np.maximum(cum_cases[:, 1:],
                                                     cum_cases[:, :-1])
        new_cases[:, 1:] = np.where(change > noise, change, 0.0)
        return dict(fields, s=s, xa=xa, xs=xs, e=e, h=h,
                    vax=inst.state0.vax + psi * fields["doses"] / pops,
                    new_cases=new_cases, cum_cases=cum_cases,
                    cum_deaths=e * pops)

    return SimulationModel(
        y0=_state_to_flat(inst.state0),
        rhs=covid_rhs_factory(inst.net, inst.params, inst.contacts),
        clamp=(0.0, 1.0), labels=inst.cell_labels(), populations=pops,
        n_groups=inst.net.n_groups,
        headroom=lambda y: np.multiply(y[:m].T, pops, order="C"),
        active=lambda y: np.multiply((y[m:2 * m] + y[2 * m:3 * m]).T, pops,
                                     order="C").sum(axis=1),
        infected=lambda y: np.multiply((y[m:2 * m] + y[2 * m:3 * m] + y[
            3 * m:4 * m] + y[4 * m:]).T, pops, order="C"),
        vaccinate=lambda y, doses: _vaccinate(y[:m], doses.T / pops[:, None],
                                              psi),
        allocate=lambda col, budget: allocator.max_decay_binary_search(
            EpidemicState(*col.reshape(5, -1)), inst.net, inst.params,
            inst.contacts, budget=budget)[1],
        columns=columns, age_ranges=(
            AGE_GROUP_RANGES if inst.net.n_groups == len(AGE_GROUP_RANGES)
            else ()))


def simulate_policy(instance: EpidemicInstance, policy: policies.PolicySpec,
                    schedule: VaccinationSchedule, horizon: int,
                    step: float = DEFAULT_STEP) -> Trajectory:
    """Run one policy on a covid instance; see `simulate`."""
    return simulate(covid_model(instance), [policy], schedule, horizon, step)[0]


def _state_to_flat(state: EpidemicState) -> np.ndarray:
    return np.concatenate([state.s, state.xa, state.xs, state.e, state.h])
