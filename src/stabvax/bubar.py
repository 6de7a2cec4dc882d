"""Age-stratified SEIR comparison model with an all-or-nothing vaccine.

Compartments per age group (persons): S, Sx, Sv, E, Ex, Ev, I, Ix, Iv,
R, Rx, Rv, D. The x-subscript holds people vaccinated without protection
(or never vaccinated by choice); the v-subscript holds the protected.

Only model definitions live here: `bubar_problem` states the model's
`allocator.AllocationProblem`, which the shared solvers solve, and
`bubar_model` its adapter to the shared policy driver `dynamics.simulate`.
Its policies are `PolicySpec`s as on the covid models. The age strategies
of Bubar et al. (Science 371, 2021) are the age bands of
`policies.AGE_BANDS`, which the adapter resolves against `DECADE_RANGES`.

Summed over the vaccine strata, the linearized infection chain reduces
exactly to the radius of W = diag(S + Sx - psi v S) A, as the homogeneous
covid chain does, so `bubar_certificate` takes one g x g eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .allocator import (AllocationProblem, AllocationResult, max_decay,
                        solve_allocation)
from .dynamics import (DEFAULT_STEP, SimulationModel, Trajectory,
                       VaccinationSchedule, bound_rhs, simulate)
from .ingest import group_ifr
from .model import (GramKernel, InfeasibleRateError, StabilityCertificate,
                    chain_certificate, cholesky_factor)
from .policies import PolicySpec

COMPARTMENTS = ("S", "Sx", "Sv", "E", "Ex", "Ev", "I", "Ix", "Iv",
                "R", "Rx", "Rv", "D")

DECADE_LABELS = ("0-9", "10-19", "20-29", "30-39", "40-49", "50-59",
                 "60-69", "70-79", "80+")
# the ages of each decade group, the last capped at 89 as in the NY groups
DECADE_RANGES = tuple((lo, lo + 9) for lo in range(0, 90, 10))

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


@dataclass
class BubarState:
    compartments: np.ndarray  # shape (13, n_groups), persons

    def __post_init__(self):
        self.compartments = np.asarray(self.compartments, dtype=float)
        if self.compartments.shape[0] != len(COMPARTMENTS):
            raise ValueError("expected one row per compartment")

    def __getattr__(self, name):
        if name in COMPARTMENTS:
            return self.compartments[COMPARTMENTS.index(name)]
        raise AttributeError(name)


def initial_bubar_state(params: BubarParams, frac: float) -> BubarState:
    """The share frac of each group infectious, as many exposed, the rest S."""
    comp = np.zeros((len(COMPARTMENTS), params.n_groups))
    infected = frac * params.populations
    comp[COMPARTMENTS.index("I")] = infected
    comp[COMPARTMENTS.index("E")] = infected
    comp[COMPARTMENTS.index("S")] = params.populations - infected - infected
    return BubarState(comp)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def bubar_rhs_factory(params: BubarParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side over the flattened (13, groups) compartments, of
    shape (13 g,) or, for K populations side by side, (13 g, K); the force
    of infection is lambda_i = u_i sum_j c_ij (I + Ix + Iv)_j / (N - D)_j.
    It does not check that N - D stays positive: the check of `bubar_model`
    does, once a day.

    One stacked matrix over (E ... Iv) gives the rows E ... D and, below
    them, I + Ix + Iv; -diag(u) C stacked twice times (I + Ix + Iv) / (N - D)
    gives minus the force in the S and Sx rows, and times (S, Sx) the
    infections, which move into E and Ex. As in `dynamics.covid_rhs_factory`,
    it is the `bound_rhs` of bind(ys, weights), which the RK4 stepper runs: a
    stage writes its weight times its derivative in six numpy calls."""
    g = params.n_groups
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    eye3, zero3, infectious = np.eye(3), np.zeros((3, 3)), [[0, 0, 0, 1, 1, 1]]
    mix = np.vstack([
        np.kron(np.block([[-a * eye3, zero3], [a * eye3, -b * eye3]]), np.eye(g)),
        np.kron(np.hstack([zero3, eye3]), np.diag(b * (1 - params.ifr))),
        np.kron(infectious, np.diag(b * params.ifr)),
        np.kron(infectious, np.eye(g))])
    force = np.tile(-params.susceptibility[:, None] * params.contacts, (2, 1))

    def bind(ys, weights):
        pops = np.repeat(params.populations[:, None], ys.shape[2], axis=1)
        zs = np.zeros((len(ys), 14 * g, ys.shape[2]))
        return zs[:, :13 * g], [stage(y, z, w * mix, pops)
                                for y, z, w in zip(ys, zs, weights)]

    def stage(y, z, scaled_mix, pops):
        alive, ratio = np.empty((2,) + pops.shape)
        dead, latent_infectious = y[12 * g:], y[3 * g:9 * g]
        susceptible, ds, de = y[:2 * g], z[:2 * g], z[3 * g:5 * g]
        linear, infectious = z[3 * g:], z[13 * g:]

        def evaluate():
            np.subtract(pops, dead, out=alive)
            np.dot(scaled_mix, latent_infectious, out=linear)
            np.divide(infectious, alive, out=ratio)
            np.dot(force, ratio, out=ds)
            np.multiply(ds, susceptible, out=ds)
            np.subtract(de, ds, out=de)

        return evaluate

    return bound_rhs(bind)


def _vaccinate(state: BubarState, doses: np.ndarray,
               params: BubarParams) -> None:
    """All-or-nothing dosing, in place: a dose goes to S, I or R alike, so
    group i doses the share v_i = doses_i / (S+I+R)_i, clipped to [0, 1],
    and its susceptible share v_i S_i splits psi-protected /
    (1-psi)-unprotected."""
    S, Sx, Sv = state.S, state.Sx, state.Sv
    denom = S + state.I + state.R
    v = np.zeros_like(denom)
    positive = denom > 0
    v[positive] = np.clip(doses[positive] / denom[positive], 0.0, 1.0)
    moved = v * S
    S -= moved
    Sv += params.psi * moved
    Sx += (1 - params.psi) * moved


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
    return replace(params,
                   susceptibility=params.susceptibility * (target_r0 / base))


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
        raise InfeasibleRateError(
            f"decay rate {alpha} must stay below min(1/d_e, 1/d_i)")
    return a / ((a - alpha) * (b - alpha))


def bubar_rate_at_radius(params: BubarParams, radius: float) -> float:
    """The root alpha < min(a, b) of bubar_b1(alpha) radius = 1: the smaller
    root of (a - alpha)(b - alpha) = a radius, in a form that cancels nothing."""
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    return 2.0 * a * (b - radius) / (
        a + b + np.sqrt((a - b) ** 2 + 4.0 * a * radius))


def bubar_flow_matrix(state: BubarState, params: BubarParams) -> np.ndarray:
    """A = diag(u) C diag(1/(N - Omega))."""
    alive = params.populations - state.D
    return params.susceptibility[:, None] * params.contacts / alive[None, :]


def bubar_certificate(state: BubarState, params: BubarParams, v: np.ndarray,
                      alpha: float) -> StabilityCertificate:
    """The certificate of allocation v, clipped to [0, 1], at rate alpha.

    Summed over the vaccine strata, the linearized (E*, I*) chain reads
    E' = -a E + W I, I' = a E - b I (E = E + Ex + Ev, I = I + Ix + Iv, W =
    diag(S + Sx - psi v S) A); the rows left over add only the eigenvalues
    -a and -b. An eigenvalue mu of W gives (lambda + a)(lambda + b) = a mu,
    whose top root rises with mu, so by Perron-Frobenius lambda_max is minus
    the smaller root of (a - alpha)(b - alpha) = a rho(W),
    `bubar_rate_at_radius`, by the rule of `model.chain_certificate`."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    weight = state.S + state.Sx - params.psi * v * state.S
    w = float(np.max(np.abs(np.linalg.eigvals(
        weight[:, None] * bubar_flow_matrix(state, params)))))
    return chain_certificate(
        w, alpha, lambda rate: bubar_b1(params, rate),
        lambda radius: bubar_rate_at_radius(params, radius))


def bubar_problem(state: BubarState, params: BubarParams,
                  alpha: float) -> AllocationProblem:
    """The model's allocation problem at decay rate alpha.

    v is doses over (S + I + R) and moves v S out of S, so the unprotected
    susceptibles are S + Sx - psi v S. The Gram route applies when
    C diag(1/(N - Omega)) has a Cholesky factor L: the flow is then
    diag(susceptibility) L L', with the kernel L L' of one location.
    """
    g = params.n_groups
    gram = params.contacts / (params.populations - state.D)[None, :]
    return AllocationProblem(
        flow=bubar_flow_matrix(state, params),
        kernel=(GramKernel(np.ones((1, 1)), gram)
                if cholesky_factor(gram) is not None else None),
        scale=params.susceptibility, s0=state.S + state.Sx,
        q=params.psi * state.S, vmax=np.ones(g),
        weights=state.S + state.I + state.R,
        max_rate=min(1.0 / params.d_e, 1.0 / params.d_i),
        b1_at=lambda rate: bubar_b1(params, rate),
        certify=lambda v, rate: bubar_certificate(state, params, v, rate),
        alpha=alpha,
        rate_at_radius=lambda radius: bubar_rate_at_radius(params, radius))


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

def bubar_model(params: BubarParams, state0: BubarState) -> SimulationModel:
    """The model as `dynamics.simulate` runs it: one cell per age group, the
    state its flattened compartments. Its trajectories hold, in persons per
    group, the unprotected susceptibles S + Sx (susceptible), I + Ix + Iv
    (infectious), everyone past S (cum_cases), D (cum_deaths) and the doses.
    Each day's check raises FloatingPointError once a group has died out,
    which would leave the force of infection undefined."""
    g, pops, rows = params.n_groups, params.populations, len(COMPARTMENTS)

    def check(y):
        if np.any(y[12 * g:] >= pops[:, None]):
            raise FloatingPointError("a group has been fully depleted")

    def compartments(y):
        """Every column's compartments, (K, 13, groups), C-ordered."""
        return np.ascontiguousarray(y.T).reshape(-1, rows, g)

    def columns(ys, fields):
        # (compartment, column, day, group)
        comp = ys.reshape(len(ys), rows, g, -1).transpose(1, 3, 0, 2)
        return dict(fields, susceptible=comp[0] + comp[1],
                    infectious=comp[6] + comp[7] + comp[8],
                    cum_cases=comp[3:].sum(axis=0), cum_deaths=comp[12])

    return SimulationModel(
        y0=state0.compartments.reshape(-1), rhs=bubar_rhs_factory(params),
        clamp=(0.0, np.finfo(float).max), labels=list(DECADE_LABELS),
        populations=pops, headroom=lambda y: np.ascontiguousarray(y[:g].T),
        # E ... Iv, then the groups
        active=lambda y: compartments(y)[:, 3:9].sum(axis=1).sum(axis=1),
        infected=lambda y: compartments(y)[:, 3:].sum(axis=1),
        vaccinate=lambda y, doses: _vaccinate(
            BubarState(y.reshape(rows, g, -1)), doses.T, params),
        allocate=lambda col, budget: solve_bubar_allocation(
            BubarState(col.reshape(rows, g)), params, supply=budget)[1],
        columns=columns, check=check, age_ranges=DECADE_RANGES, n_groups=g)


def simulate_bubar(params: BubarParams, state0: BubarState,
                   policy: PolicySpec, schedule: VaccinationSchedule,
                   horizon: int, step: float = DEFAULT_STEP) -> Trajectory:
    """Run one dosing policy; see `dynamics.simulate`."""
    return simulate(bubar_model(params, state0), [policy], schedule, horizon,
                    step)[0]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

US_DECADE_SHARES = np.array([0.122, 0.130, 0.139, 0.137, 0.122, 0.131,
                             0.114, 0.066, 0.039])
DECADE_IFR = group_ifr(DECADE_RANGES)


def us_like_instance(r0: float, seed: int = 0, psi: float = DEFAULT_EFFICACY,
                     infected_frac: float = 0.001,
                     ) -> tuple[BubarParams, BubarState]:
    """Synthetic nine-decade fixture of 1e6 people with an assortative,
    mildly non-reciprocal contact matrix, calibrated to the target R0."""
    rng = np.random.default_rng(seed)
    populations = US_DECADE_SHARES * 1e6
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
    return params, initial_bubar_state(params, infected_frac)
