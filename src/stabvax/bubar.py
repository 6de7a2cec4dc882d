"""Age-stratified SEIR comparison model with an all-or-nothing vaccine,
plus the stabilizing-allocation variants for it.

Compartments per age group (persons): S, Sx, Sv, E, Ex, Ev, I, Ix, Iv,
R, Rx, Rv, D. The x-subscript holds people vaccinated without protection
(or never vaccinated by choice); the v-subscript holds the protected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .allocator import (AllocationResult, InfeasibleAllocationError,
                        SolverError, bisect_rate, lmi_box_maximize,
                        spectral_box_minimize)
from .dynamics import integrate
from .ingest import ifr_by_age
from .model import StabilityCertificate, cholesky_factor
from .policies import proportional_fill

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
    psi: float = 0.9
    labels: Sequence[str] = DECADE_LABELS

    def __post_init__(self):
        for name in ("ifr", "susceptibility", "populations"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.contacts = np.asarray(self.contacts, dtype=float)
        if self.d_e <= 0 or self.d_i <= 0:
            raise ValueError("latent and infectious periods must be positive")
        if np.any(self.populations <= 0):
            raise ValueError("group populations must be positive")

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

    def group_totals(self) -> np.ndarray:
        return self.compartments.sum(axis=0)

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

def force_of_infection(state: BubarState, params: BubarParams) -> np.ndarray:
    """lambda_i = u_i sum_j c_ij (I_j + Iv_j + Ix_j) / (N_j - Omega_j)."""
    alive = params.populations - state.omega
    if np.any(alive <= 0):
        raise FloatingPointError("a group has been fully depleted")
    infectious = state.I + state.Ix + state.Iv
    return params.susceptibility * (params.contacts @ (infectious / alive))


def rhs_bubar(state: BubarState, params: BubarParams) -> np.ndarray:
    """Compartment derivatives, shape (13, n_groups)."""
    lam = force_of_infection(state, params)
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    f = params.ifr
    d = {name: state.compartments[k] for k, name in enumerate(COMPARTMENTS)}
    out = np.zeros_like(state.compartments)
    rows = {name: k for k, name in enumerate(COMPARTMENTS)}
    out[rows["S"]] = -lam * d["S"]
    out[rows["Sx"]] = -lam * d["Sx"]
    out[rows["Sv"]] = 0.0
    out[rows["E"]] = lam * d["S"] - a * d["E"]
    out[rows["Ex"]] = lam * d["Sx"] - a * d["Ex"]
    out[rows["Ev"]] = -a * d["Ev"]
    out[rows["I"]] = a * d["E"] - b * d["I"]
    out[rows["Ix"]] = a * d["Ex"] - b * d["Ix"]
    out[rows["Iv"]] = a * d["Ev"] - b * d["Iv"]
    out[rows["R"]] = b * (1 - f) * d["I"]
    out[rows["Rx"]] = b * (1 - f) * d["Ix"]
    out[rows["Rv"]] = b * (1 - f) * d["Iv"]
    out[rows["D"]] = b * f * (d["I"] + d["Ix"] + d["Iv"])
    return out


def bubar_rhs_factory(params: BubarParams) -> Callable[[float, np.ndarray], np.ndarray]:
    shape = (len(COMPARTMENTS), params.n_groups)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return rhs_bubar(BubarState(y.reshape(shape), t), params).reshape(-1)

    return rhs


def apply_bubar_vaccination(state: BubarState, v: np.ndarray,
                            params: BubarParams) -> tuple[BubarState, np.ndarray]:
    """All-or-nothing dosing: v_i is doses over (S+I+R)_i; the susceptible
    share v_i S_i splits psi-protected / (1-psi)-unprotected. Returns the new
    state and the spent dose counts."""
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12) or np.any(v > 1 + 1e-9):
        raise ValueError("vaccination fractions must lie in [0, 1]")
    v = np.clip(v, 0.0, 1.0)
    new = state.copy()
    rows = {name: k for k, name in enumerate(COMPARTMENTS)}
    moved = v * state.S
    new.compartments[rows["S"]] = state.S - moved
    new.compartments[rows["Sv"]] = state.Sv + params.psi * moved
    new.compartments[rows["Sx"]] = state.Sx + (1 - params.psi) * moved
    doses = v * (state.S + state.I + state.R)
    return new, doses


def basic_reproduction_number(params: BubarParams) -> float:
    """R0 = d_i * rho(diag(u) C) for the fully susceptible population."""
    mat = params.susceptibility[:, None] * params.contacts
    return params.d_i * float(np.max(np.linalg.eigvals(mat).real))


def calibrate_r0(params: BubarParams, target_r0: float) -> BubarParams:
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
                      alpha: float, tol: float = 1e-8) -> StabilityCertificate:
    lam = float(np.max(np.linalg.eigvals(
        bubar_infection_submatrix(state, params, v)).real))
    try:
        b1 = bubar_b1(params, alpha)
        weight = (state.S + state.Sx - params.psi * np.asarray(v) * state.S)
        radius = float(np.max(np.abs(np.linalg.eigvals(
            b1 * weight[:, None] * bubar_flow_matrix(state, params)))))
    except InfeasibleAllocationError:
        radius = np.inf
    return StabilityCertificate(alpha=alpha, lambda_max=lam,
                                satisfied=bool(lam <= -alpha + tol),
                                spectral_radius=radius, tol=tol)


def solve_bubar_allocation(state: BubarState, params: BubarParams,
                           alpha: Optional[float] = None,
                           supply: Optional[float] = None,
                           width: float = 1e-5) -> tuple[float, AllocationResult]:
    """Minimum-dose allocation at a fixed decay rate, or (given a dose supply
    in persons) the largest decay rate affordable via bisection.

    Routes through the diagonal-LMI path when C diag(1/(N-Omega)) has a
    Cholesky factor (it is symmetric positive definite), otherwise through
    the bilinear path.
    """
    if (alpha is None) == (supply is None):
        raise ValueError("give exactly one of alpha or supply")
    if alpha is not None:
        return alpha, _solve_bubar_at(state, params, alpha)
    if supply < 0:
        raise ValueError("supply must be nonnegative")
    dose_eps = 1e-9 * (1.0 + supply)

    def attempt(a: float) -> Optional[AllocationResult]:
        try:
            result = _solve_bubar_at(state, params, a)
        except InfeasibleAllocationError:
            return None
        return result if result.doses <= supply + dose_eps else None

    return bisect_rate(attempt, -2.0,
                       min(1.0 / params.d_e, 1.0 / params.d_i) - 1e-4, width)


def _solve_bubar_at(state: BubarState, params: BubarParams,
                    alpha: float) -> AllocationResult:
    b1 = bubar_b1(params, alpha)
    flow = bubar_flow_matrix(state, params)
    weights = state.S + state.I + state.R
    p0 = b1 * (state.S + state.Sx)
    p1 = b1 * params.psi * state.S
    if np.any(p1 <= 0):
        raise InfeasibleAllocationError("a group has no susceptibles to dose")
    vmax = np.ones(params.n_groups)

    factor = cholesky_factor(
        params.contacts / (params.populations - state.omega)[None, :])
    if factor is not None:
        # with t = S + Sx - psi v S (persons) and the contact gram
        # C diag(1/(N - Omega)) = L L', the certificate reads
        # lambda_max(L' diag(b1 susceptibility t) L) <= 1
        lower = state.Sx + (1 - params.psi) * state.S
        upper = state.S + state.Sx
        t, stats = lmi_box_maximize(
            np.sqrt(b1 * params.susceptibility)[:, None] * factor,
            lower, upper, weights / state.S)
        v = np.clip((upper - t) / (params.psi * state.S), 0.0, 1.0)
        direction = None
        stats.method = "bubar-lmi"
    else:
        v, direction, stats = spectral_box_minimize(flow, p0, p1, weights, vmax)
        stats.method = "bubar-bilinear"
    cert = bubar_certificate(state, params, v, alpha)
    if not cert.satisfied:
        raise SolverError(
            f"{stats.method} allocation fails its certificate at alpha="
            f"{alpha:.6g}: lambda_max={cert.lambda_max:.6g}")
    dose_vec = v * weights
    return AllocationResult(
        v=v, u=b1 * params.susceptibility * (state.S + state.Sx
                                             - params.psi * v * state.S),
        doses=float(dose_vec.sum()), dose_vector=dose_vec,
        certificate=cert, stats=stats, alpha=alpha, direction=direction)


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
    vals, vecs = np.linalg.eig(P)
    k = int(np.argmax(vals.real))
    d = np.abs(vecs[:, k].real)
    vals_t, vecs_t = np.linalg.eig(P.T)
    kt = int(np.argmax(vals_t.real))
    w = np.abs(vecs_t[:, kt].real)
    denom = state.S + state.I + state.R
    per_dose = np.where(denom > 0, state.S / np.maximum(denom, 1e-300), 0.0)
    benefit = per_dose * w * (flow @ d)
    doses = np.zeros(params.n_groups)
    left = supply
    for idx in np.argsort(-benefit):
        give = min(left, state.S[idx])
        doses[idx] = give
        left -= give
        if left <= 1e-9:
            break
    return doses


@dataclass
class BubarTrajectory:
    times: np.ndarray
    susceptible: np.ndarray      # (T+1, g) persons, unprotected S + Sx
    infectious: np.ndarray       # (T+1, g)
    cum_infected: np.ndarray     # (T+1, g)
    deaths: np.ndarray           # (T+1, g)
    doses: np.ndarray            # (T+1, g) cumulative
    labels: Sequence[str] = field(default_factory=list)

    def final_infected_fraction(self, populations: np.ndarray) -> float:
        return float(self.cum_infected[-1].sum() / populations.sum())

    def final_deaths(self) -> float:
        return float(self.deaths[-1].sum())


def _ever_infected(state: BubarState) -> np.ndarray:
    rows = [COMPARTMENTS.index(name) for name in
            ("E", "Ex", "Ev", "I", "Ix", "Iv", "R", "Rx", "Rv", "D")]
    return state.compartments[rows].sum(axis=0)


def simulate_bubar(params: BubarParams, state0: BubarState, policy,
                   daily_rate: float, total_budget: float, horizon: int,
                   step: float = 0.25, interval_days: int = 1,
                   leftover_rule: str = "even-split",
                   extinction_threshold: float = 1.0) -> BubarTrajectory:
    """Run one dosing policy on the SEIR comparison model.

    policy is either 'no-vaccine', 'optimal-stabilizing', or the name of a
    priority preset / an explicit tuple of group indices.
    """
    total_pop = float(params.populations.sum())
    budget_left = total_budget * total_pop
    state = state0.copy()
    g = params.n_groups
    administered = np.zeros(g)
    rhs = bubar_rhs_factory(params)

    adaptive = policy == "optimal-stabilizing"

    priority: Optional[tuple[int, ...]] = None
    if isinstance(policy, (tuple, list)):
        priority = tuple(policy)
    elif policy in PRIORITY_PRESETS:
        priority = PRIORITY_PRESETS[policy]

    times = np.arange(horizon + 1, dtype=float)
    track = {name: np.zeros((horizon + 1, g)) for name in
             ("susceptible", "infectious", "cum_infected", "deaths", "doses")}

    def record(day: int):
        track["susceptible"][day] = state.S + state.Sx
        track["infectious"][day] = state.I + state.Ix + state.Iv
        track["cum_infected"][day] = _ever_infected(state)
        track["deaths"][day] = state.omega
        track["doses"][day] = administered

    for day in range(horizon + 1):
        if day % interval_days == 0 and day < horizon and policy != "no-vaccine":
            supply = min(daily_rate * total_pop * interval_days, budget_left)
            if supply > 0:
                active = float((state.E + state.Ex + state.Ev + state.I
                                + state.Ix + state.Iv).sum())
                denom = state.S + state.I + state.R
                headroom = state.S
                if active < extinction_threshold:
                    doses = (np.zeros(g) if leftover_rule == "none" else
                             proportional_fill(np.ones(g), headroom, supply))
                elif priority is not None:
                    doses = np.zeros(g)
                    left = supply
                    for tier in priority:
                        idx = np.atleast_1d(np.asarray(tier, dtype=int))
                        tier_doses = proportional_fill(headroom[idx],
                                                       headroom[idx], left)
                        doses[idx] += tier_doses
                        left -= float(tier_doses.sum())
                        if left <= 1e-9:
                            break
                elif adaptive:
                    doses = _spectral_greedy_doses(state, params, supply)
                else:
                    doses = np.zeros(g)
                v = np.zeros(g)
                positive = denom > 0
                v[positive] = np.clip(doses[positive] / denom[positive], 0.0, 1.0)
                state, spent = apply_bubar_vaccination(state, v, params)
                administered = administered + spent
                budget_left -= float(spent.sum())
        record(day)
        if day < horizon:
            _, states, _ = integrate(rhs, state.compartments.reshape(-1),
                                     (float(day), float(day + 1)), step,
                                     clamp=(0.0, None))
            state = BubarState(states[-1].reshape(len(COMPARTMENTS), g),
                               t=float(day + 1))
    return BubarTrajectory(times=times, labels=list(params.labels), **track)


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
                     psi: float = 0.9, infected_frac: float = 0.001,
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
