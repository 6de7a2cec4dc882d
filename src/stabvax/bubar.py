"""Age-stratified SEIR comparison model with an all-or-nothing vaccine.

Compartments per age group (persons): S, Sx, Sv, E, Ex, Ev, I, Ix, Iv,
R, Rx, Rv, D. The x-subscript holds people vaccinated without protection
(or never vaccinated by choice); the v-subscript holds the protected.

Only model definitions live here: `bubar_problem` states the model's
`allocator.AllocationProblem`, which the shared solvers solve. Policies run
on the day loop of `dynamics.run_days`, all of one comparison side by side
as a (13 * groups, K) state; this module supplies the right-hand side, the
dosing hook (age tiers, the spectral greedy, `_vaccinate`, which doses the
state in place) and the recorder of `BubarTrajectory` columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .allocator import (AllocationProblem, AllocationResult,
                        InfeasibleAllocationError, _perron_pair, max_decay,
                        solve_allocation)
from .dynamics import (DEFAULT_STEP, EXTINCTION_THRESHOLD,
                       VaccinationSchedule, run_days)
from .ingest import ifr_by_age
from .model import CERTIFICATE_TOL, StabilityCertificate, cholesky_factor
from .policies import _named_once, _priority_fill, proportional_fill

COMPARTMENTS = ("S", "Sx", "Sv", "E", "Ex", "Ev", "I", "Ix", "Iv",
                "R", "Rx", "Rv", "D")

DECADE_LABELS = ("0-9", "10-19", "20-29", "30-39", "40-49", "50-59",
                 "60-69", "70-79", "80+")

# Common age-tier prioritizations: each preset is a sequence of tiers and a
# tier's groups are dosed together, proportionally to their headroom.
# Bracket choices are configurable; only the seniors tier is anchored
# upstream, the rest are conventional splits.
PRIORITY_PRESETS = {
    "under-20": ((0, 1),),
    "adults-20-49": ((2, 3, 4),),
    "adults-20-plus": ((2, 3, 4, 5, 6, 7, 8),),
    "seniors-60-plus": ((6, 7, 8),),
    "all-ages": (tuple(range(9)),),
}

# vaccine efficacy of the SEIR fixture: the protected share of the dosed
DEFAULT_EFFICACY = 0.9


@dataclass
class BubarParams:
    """Latent/infectious periods (days), per-group fatality, per-contact
    susceptibility, daily contact matrix, and group populations."""

    d_e: float
    d_i: float
    ifr: np.ndarray
    susceptibility: np.ndarray
    contacts: np.ndarray
    populations: np.ndarray
    psi: float = DEFAULT_EFFICACY
    labels: Sequence[str] = DECADE_LABELS

    def __post_init__(self):
        for name in ("ifr", "susceptibility", "populations"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.contacts = np.asarray(self.contacts, dtype=float)
        if self.d_e <= 0 or self.d_i <= 0:
            raise ValueError("latent and infectious periods must be positive")
        if np.any(self.populations <= 0):
            raise ValueError("group populations must be positive")
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError("efficacy psi must lie in [0, 1]")

    @property
    def n_groups(self) -> int:
        return self.populations.shape[0]

    def scaled_susceptibility(self, scale: float) -> "BubarParams":
        from dataclasses import replace
        return replace(self, susceptibility=self.susceptibility * scale)


@dataclass
class BubarState:
    compartments: np.ndarray  # shape (13, n_groups), persons
    t: float = 0.0

    def __post_init__(self):
        self.compartments = np.asarray(self.compartments, dtype=float)
        if self.compartments.shape[0] != len(COMPARTMENTS):
            raise ValueError("expected one row per compartment")

    def __getattr__(self, name):
        if name in COMPARTMENTS:
            return self.compartments[COMPARTMENTS.index(name)]
        raise AttributeError(name)

    @property
    def omega(self) -> np.ndarray:
        """Cumulative dead per group."""
        return self.compartments[COMPARTMENTS.index("D")]

    def copy(self) -> "BubarState":
        return BubarState(self.compartments.copy(), self.t)


def initial_bubar_state(params: BubarParams, infected_frac: float = 0.001,
                        exposed_frac: float = 0.001) -> BubarState:
    comp = np.zeros((len(COMPARTMENTS), params.n_groups))
    infected = infected_frac * params.populations
    exposed = exposed_frac * params.populations
    comp[COMPARTMENTS.index("I")] = infected
    comp[COMPARTMENTS.index("E")] = exposed
    comp[COMPARTMENTS.index("S")] = params.populations - infected - exposed
    return BubarState(comp)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def bubar_rhs_factory(params: BubarParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side over the flattened (13, groups) compartments, of
    shape (13 g,) or, for K populations side by side, (13 g, K); the force
    of infection is lambda_i = u_i sum_j c_ij (I + Ix + Iv)_j / (N - D)_j.
    It does not check that N - D stays positive: `simulate_bubar_policies`
    does, once a day.

    One stacked matrix over (E ... Iv) gives I + Ix + Iv and the linear
    rows of all 13 compartments; the infections lambda S and lambda Sx then
    move from S and Sx into E and Ex. As in `dynamics.covid_rhs_factory`,
    rhs.bind serves the RK4 stepper: a stage writes I + Ix + Iv above its
    derivative, in eight numpy calls."""
    g = params.n_groups
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    pops, u = params.populations[:, None], params.susceptibility[:, None]
    eye3, zero3, infectious = np.eye(3), np.zeros((3, 3)), [[0, 0, 0, 1, 1, 1]]
    mix = np.vstack([
        np.kron(infectious, np.eye(g)),
        np.zeros((3 * g, 6 * g)),
        np.kron(np.block([[-a * eye3, zero3], [a * eye3, -b * eye3]]), np.eye(g)),
        np.kron(np.hstack([zero3, eye3]), np.diag(b * (1 - params.ifr))),
        np.kron(infectious, np.diag(b * params.ifr))])

    def bind(ys):
        zs = np.empty((len(ys), 14 * g, ys.shape[2]))
        return zs[:, g:], [stage(y, z) for y, z in zip(ys, zs)]

    def stage(y, z):
        cols = y.shape[1]
        alive, ratio, lam = np.empty((3, g, cols))
        inf = np.empty((2, g, cols))
        dead, latent_infectious = y[12 * g:], y[3 * g:9 * g]
        susceptible = y[:2 * g].reshape(2, g, cols)
        infectious, ds, de = z[:g], z[g:3 * g], z[4 * g:6 * g]
        inf_rows = inf.reshape(2 * g, cols)

        def evaluate():
            np.subtract(pops, dead, out=alive)
            np.matmul(mix, latent_infectious, out=z)
            np.divide(infectious, alive, out=ratio)
            np.matmul(params.contacts, ratio, out=lam)
            np.multiply(u, lam, out=lam)
            np.multiply(lam, susceptible, out=inf)
            np.subtract(ds, inf_rows, out=ds)
            np.add(de, inf_rows, out=de)

        return evaluate

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        ks, (evaluate,) = bind(y.reshape(1, 13 * g, -1))
        evaluate()
        return ks[0].reshape(y.shape)

    rhs.bind = bind
    return rhs


def _vaccinate(comp: np.ndarray, v, params: BubarParams) -> np.ndarray:
    """All-or-nothing dosing, in place on the (13, groups) compartments: v_i
    is doses over (S+I+R)_i; the susceptible share v_i S_i splits
    psi-protected / (1-psi)-unprotected. Returns the spent dose counts."""
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12) or np.any(v > 1 + 1e-9):
        raise ValueError("vaccination fractions must lie in [0, 1]")
    v = np.clip(v, 0.0, 1.0)
    S, Sx, Sv, I, R = (comp[COMPARTMENTS.index(name)]
                       for name in ("S", "Sx", "Sv", "I", "R"))
    doses = v * (S + I + R)
    moved = v * S
    S -= moved
    Sv += params.psi * moved
    Sx += (1 - params.psi) * moved
    return doses


def basic_reproduction_number(params: BubarParams) -> float:
    """R0 = d_i * rho(diag(u) C) for the fully susceptible population."""
    mat = params.susceptibility[:, None] * params.contacts
    return params.d_i * float(np.max(np.linalg.eigvals(mat).real))


def calibrate_r0(params: BubarParams, target_r0: float) -> BubarParams:
    if target_r0 < 0:
        raise ValueError("target reproduction number must be nonnegative")
    base = basic_reproduction_number(params)
    if base <= 0:
        raise ValueError("no transmission path; cannot calibrate")
    return params.scaled_susceptibility(target_r0 / base)


# ---------------------------------------------------------------------------
# stabilizing allocation
# ---------------------------------------------------------------------------

def bubar_b1(params: BubarParams, alpha: float) -> float:
    """Spectral chain factor for the SEIR split.

    The latent-exit rate enters the numerator so that at alpha = 0 the
    certificate threshold coincides with R0 <= 1.
    """
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    if alpha >= min(a, b):
        raise InfeasibleAllocationError(
            "decay rate must stay below min(1/d_e, 1/d_i)")
    return a / ((a - alpha) * (b - alpha))


def bubar_flow_matrix(state: BubarState, params: BubarParams) -> np.ndarray:
    """A = diag(u) C diag(1/(N - Omega))."""
    alive = params.populations - state.omega
    return params.susceptibility[:, None] * params.contacts / alive[None, :]


def bubar_infection_submatrix(state: BubarState, params: BubarParams,
                              v: np.ndarray) -> np.ndarray:
    """Linearized (E*, I*) block after dosing with v."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    flow = bubar_flow_matrix(state, params)
    s_tilde = (1 - v) * state.S
    sx_tilde = state.Sx + (1 - params.psi) * v * state.S
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    g = params.n_groups
    eye = np.eye(g)
    zero = np.zeros((g, g))
    top = s_tilde[:, None] * flow
    mid = sx_tilde[:, None] * flow
    return np.block([
        [-a * eye, zero, zero, top, top, top],
        [zero, -a * eye, zero, mid, mid, mid],
        [zero, zero, -a * eye, zero, zero, zero],
        [a * eye, zero, zero, -b * eye, zero, zero],
        [zero, a * eye, zero, zero, -b * eye, zero],
        [zero, zero, a * eye, zero, zero, -b * eye],
    ])


def bubar_certificate(state: BubarState, params: BubarParams, v: np.ndarray,
                      alpha: float) -> StabilityCertificate:
    lam = float(np.max(np.linalg.eigvals(
        bubar_infection_submatrix(state, params, v)).real))
    try:
        b1 = bubar_b1(params, alpha)
        weight = (state.S + state.Sx - params.psi * np.asarray(v) * state.S)
        radius = float(np.max(np.abs(np.linalg.eigvals(
            b1 * weight[:, None] * bubar_flow_matrix(state, params)))))
    except InfeasibleAllocationError:
        radius = np.inf
    return StabilityCertificate(
        alpha=alpha, lambda_max=lam, spectral_radius=radius,
        satisfied=bool(lam <= -alpha + CERTIFICATE_TOL))


def bubar_problem(state: BubarState, params: BubarParams,
                  alpha: float) -> AllocationProblem:
    """The model's allocation problem at decay rate alpha.

    v is doses over (S + I + R) and moves v S out of S, so the unprotected
    susceptibles are S + Sx - psi v S. The Gram route applies when
    C diag(1/(N - Omega)) has a Cholesky factor L: the flow is then
    diag(susceptibility) L L'.
    """
    g = params.n_groups
    return AllocationProblem(
        flow=bubar_flow_matrix(state, params),
        factor=cholesky_factor(
            params.contacts / (params.populations - state.omega)[None, :]),
        scale=params.susceptibility, s0=state.S + state.Sx,
        q=params.psi * state.S, vmax=np.ones(g),
        weights=state.S + state.I + state.R,
        max_rate=min(1.0 / params.d_e, 1.0 / params.d_i),
        b1_at=lambda rate: bubar_b1(params, rate),
        certify=lambda v, rate: bubar_certificate(state, params, v, rate),
        alpha=alpha)


def solve_bubar_allocation(state: BubarState, params: BubarParams,
                           alpha: Optional[float] = None,
                           supply: Optional[float] = None,
                           ) -> tuple[float, AllocationResult]:
    """Minimum-dose allocation at a fixed decay rate, or (given a dose supply
    in persons) the largest affordable decay rate; b1 is one scalar here, so
    `max_decay` searches directly."""
    if (alpha is None) == (supply is None):
        raise ValueError("give exactly one of alpha or supply")
    if alpha is not None:
        return alpha, solve_allocation(bubar_problem(state, params, alpha))
    return max_decay(bubar_problem(state, params, -2.0), supply)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _spectral_greedy_doses(state: BubarState, params: BubarParams,
                           supply: float) -> np.ndarray:
    """One epoch of the dynamic stabilizing policy: rank groups by the
    marginal spectral-radius reduction per dose (left/right Perron sensitivity
    of the reduced infection matrix) and fill greedily."""
    flow = bubar_flow_matrix(state, params)
    P = (state.S + state.Sx)[:, None] * flow
    _, d, w = _perron_pair(P)
    denom = state.S + state.I + state.R
    per_dose = np.where(denom > 0, state.S / np.maximum(denom, 1e-300), 0.0)
    benefit = per_dose * w * (flow @ d)
    return _priority_fill(np.argsort(-benefit), state.S, supply,
                          params.n_groups)


@dataclass
class BubarTrajectory:
    times: np.ndarray
    susceptible: np.ndarray      # (T+1, g) persons, unprotected S + Sx
    infectious: np.ndarray       # (T+1, g)
    cum_infected: np.ndarray     # (T+1, g)
    deaths: np.ndarray           # (T+1, g)
    doses: np.ndarray            # (T+1, g) cumulative
    clamp_events: int = 0        # RK4 steps that clipped a compartment
    labels: Sequence[str] = field(default_factory=list)

    def final_cumulative_cases(self) -> float:
        return float(self.cum_infected[-1].sum())

    def final_cumulative_deaths(self) -> float:
        return float(self.deaths[-1].sum())

    def total_doses(self) -> float:
        return float(self.doses[-1].sum())


def simulate_bubar_policies(params: BubarParams, state0: BubarState,
                            policies: Sequence, schedule: VaccinationSchedule,
                            horizon: int, step: float = DEFAULT_STEP,
                            ) -> list[BubarTrajectory]:
    """One BubarTrajectory per policy: 'no-vaccine', 'optimal-stabilizing',
    a priority preset name or an explicit tuple of tiers (group indices or
    tuples of them) that names no group twice. A policy whose count of
    exposed and infectious persons drops below
    `dynamics.EXTINCTION_THRESHOLD` doses by the schedule's leftover rule.
    Raises ValueError on any other policy."""
    g, n_cols = params.n_groups, len(policies)
    tiers = [_named_once(tuple(policy)) if isinstance(policy, (tuple, list))
             else PRIORITY_PRESETS.get(policy) for policy in policies]
    unknown = [policy for policy, tier in zip(policies, tiers) if tier is None
               and policy not in ("no-vaccine", "optimal-stabilizing")]
    if unknown:
        raise ValueError(
            f"unknown SEIR policies {unknown}: expected no-vaccine, "
            f"optimal-stabilizing or one of {list(PRIORITY_PRESETS)}")
    administered = np.zeros((g, n_cols))
    ys = np.empty((horizon + 1, len(COMPARTMENTS) * g, n_cols))
    dose_days = np.empty((horizon + 1, g, n_cols))

    def dose(k, col, supply, budget_left):
        state = BubarState(col.reshape(len(COMPARTMENTS), g))
        headroom = state.S
        active = float((state.E + state.Ex + state.Ev + state.I
                        + state.Ix + state.Iv).sum())
        if active < EXTINCTION_THRESHOLD:
            doses = (np.zeros(g) if schedule.leftover_rule == "none" else
                     proportional_fill(np.ones(g), headroom, supply))
        elif tiers[k] is not None:
            doses = _priority_fill(tiers[k], headroom, supply, g)
        else:  # optimal-stabilizing; no-vaccine is never dosed
            doses = _spectral_greedy_doses(state, params, supply)
        denom = state.S + state.I + state.R
        v = np.zeros(g)
        positive = denom > 0
        v[positive] = np.clip(doses[positive] / denom[positive], 0.0, 1.0)
        spent = _vaccinate(state.compartments, v, params)
        administered[:, k] += spent
        return float(spent.sum())

    def record(day, y):
        if np.any(params.populations[:, None] - y[12 * g:] <= 0):
            raise FloatingPointError("a group has been fully depleted")
        ys[day], dose_days[day] = y, administered

    y0 = np.repeat(state0.compartments.reshape(-1, 1), n_cols, axis=1)
    dosing = [k for k, policy in enumerate(policies) if policy != "no-vaccine"]
    clamps = run_days(bubar_rhs_factory(params), y0, horizon, step, schedule,
                      float(params.populations.sum()), dosing, dose, record,
                      clamp=(0.0, None))

    # (compartment, column, day, group)
    comp = ys.reshape(horizon + 1, len(COMPARTMENTS), g, n_cols).transpose(1, 3, 0, 2)
    track = dict(susceptible=comp[0] + comp[1],
                 infectious=comp[6] + comp[7] + comp[8],
                 cum_infected=comp[3:].sum(axis=0), deaths=comp[12],
                 doses=dose_days.transpose(2, 0, 1))
    times = np.arange(horizon + 1, dtype=float)
    return [BubarTrajectory(times=times, clamp_events=int(clamps[k]),
                            labels=list(params.labels),
                            **{name: arr[k] for name, arr in track.items()})
            for k in range(n_cols)]


def simulate_bubar(params: BubarParams, state0: BubarState, policy,
                   daily_rate: float, total_budget: float, horizon: int,
                   step: float = DEFAULT_STEP, interval_days: int = 1,
                   leftover_rule: str = "even-split") -> BubarTrajectory:
    """Run one dosing policy; see `simulate_bubar_policies` (leftover dosing
    below `dynamics.EXTINCTION_THRESHOLD`)."""
    return simulate_bubar_policies(
        params, state0, [policy],
        VaccinationSchedule(daily_rate, interval_days, total_budget,
                            leftover_rule),
        horizon, step)[0]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

US_DECADE_SHARES = np.array([0.122, 0.130, 0.139, 0.137, 0.122, 0.131,
                             0.114, 0.066, 0.039])
DECADE_IFR = np.array([float(np.mean(ifr_by_age(np.arange(lo, hi + 1))))
                       for lo, hi in ((0, 9), (10, 19), (20, 29), (30, 39),
                                      (40, 49), (50, 59), (60, 69), (70, 79),
                                      (80, 89))])


def us_like_instance(r0: float, seed: int = 0, total_population: float = 1e6,
                     psi: float = DEFAULT_EFFICACY, infected_frac: float = 0.001,
                     ) -> tuple[BubarParams, BubarState]:
    """Synthetic nine-decade fixture with an assortative, mildly
    non-reciprocal contact matrix, calibrated to the target R0."""
    rng = np.random.default_rng(seed)
    populations = US_DECADE_SHARES * total_population
    activity = np.array([5.0, 9.0, 8.5, 8.0, 7.5, 7.0, 5.5, 3.5, 2.5])
    mixing = np.outer(activity, activity * US_DECADE_SHARES) / activity.mean()
    mixing += np.diag(activity * 0.8)
    mixing *= 1.0 + 0.15 * rng.uniform(-1, 1, size=mixing.shape)
    susceptibility = np.array([0.4, 0.38, 0.79, 0.84, 0.83, 0.81, 0.78,
                               0.74, 0.74])
    params = BubarParams(d_e=3.0, d_i=5.0, ifr=DECADE_IFR,
                         susceptibility=susceptibility, contacts=mixing,
                         populations=populations, psi=psi)
    params = calibrate_r0(params, r0)
    return params, initial_bubar_state(params, infected_frac=infected_frac,
                                       exposed_frac=infected_frac)
