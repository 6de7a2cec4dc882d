"""Core network-epidemic model: coupling matrices, reproduction numbers,
and spectral decay certificates.

Index convention for age-structured quantities: flattened vectors and the
coupling matrix are ordered location-major, group-minor, i.e. the entry for
group ``b`` at location ``i`` sits at flat index ``i * n_groups + b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np


class InfeasibleRateError(ValueError):
    """Requested decay rate exceeds what the recovery rates allow."""


class CalibrationError(RuntimeError):
    """Transmission calibration could not reach the target."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class NetworkInstance:
    """Travel network with resident populations.

    tau[i, j] is the fraction of a day a resident of location i spends at
    location j (rows need not sum to 1; the remainder is time at home not
    captured by trips). populations holds long-term residents per location.
    group_populations, when present, is an (n, g) matrix of residents per
    age group whose rows must sum to populations exactly.
    """

    tau: np.ndarray
    populations: np.ndarray
    dwell_minutes: Optional[np.ndarray] = None
    group_populations: Optional[np.ndarray] = None

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        n = self.populations.shape[0]
        if self.tau.shape != (n, n):
            raise ValueError(f"tau must be {n}x{n}, got {self.tau.shape}")
        if np.any(self.tau < 0):
            raise ValueError("travel rates must be nonnegative")
        row_sums = self.tau.sum(axis=1)
        if np.any(row_sums > 1 + 1e-9):
            raise ValueError("travel-rate rows must sum to at most 1")
        if np.any(self.populations <= 0):
            raise ValueError("populations must be positive")
        if self.dwell_minutes is not None:
            self.dwell_minutes = np.asarray(self.dwell_minutes, dtype=float)
        if self.group_populations is not None:
            self.group_populations = np.asarray(self.group_populations, dtype=float)
            if self.group_populations.shape[0] != n:
                raise ValueError("group_populations must have one row per location")
            if not np.allclose(self.group_populations.sum(axis=1),
                               self.populations, rtol=0, atol=1e-6):
                raise ValueError("group populations must sum to the location totals")

    @property
    def n(self) -> int:
        return self.populations.shape[0]

    @property
    def n_groups(self) -> int:
        return 0 if self.group_populations is None else self.group_populations.shape[1]

    @property
    def total_population(self) -> float:
        return float(self.populations.sum())

    def cell_populations(self) -> np.ndarray:
        """Population per cell: per location, or per (location, group) flattened."""
        if self.group_populations is None:
            return self.populations
        return self.group_populations.reshape(-1)


@dataclass
class DiseaseParams:
    """Disease rates. Exactly one of the homogeneous (beta_a, beta_s) or
    age-structured (beta, beta0, alpha_hat) transmission sets must be given.

    For the age-structured model the per-contact symptomatic transmission
    risk of group b is beta * beta0[b], and the asymptomatic risk is that
    discounted by alpha_hat.
    """

    eps: float
    r_a: float
    r_s: float | np.ndarray
    kappa: float | np.ndarray
    psi: float = 0.95
    beta_a: Optional[float] = None
    beta_s: Optional[float] = None
    beta: Optional[float] = None
    beta0: Optional[np.ndarray] = None
    alpha_hat: Optional[float] = None

    def __post_init__(self):
        homogeneous = self.beta_s is not None
        demographic = self.beta is not None or self.beta0 is not None
        if homogeneous and demographic:
            raise ValueError("homogeneous and demographic transmission are exclusive")
        if not homogeneous and not demographic:
            raise ValueError("one transmission parameter set is required")
        if demographic:
            if self.beta is None or self.beta0 is None or self.alpha_hat is None:
                raise ValueError("demographic mode needs beta, beta0 and alpha_hat")
            self.beta0 = np.asarray(self.beta0, dtype=float)
        if homogeneous and self.beta_a is None:
            if self.alpha_hat is None:
                raise ValueError("beta_a or alpha_hat required")
            self.beta_a = self.alpha_hat * self.beta_s
        if isinstance(self.r_s, (list, np.ndarray)):
            self.r_s = np.asarray(self.r_s, dtype=float)
        if isinstance(self.kappa, (list, np.ndarray)):
            self.kappa = np.asarray(self.kappa, dtype=float)
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError("efficacy psi must lie in [0, 1]")
        if self.alpha_hat is not None and not 0.0 < self.alpha_hat <= 1.0:
            raise ValueError("alpha_hat must lie in (0, 1]")
        for name in ("eps", "r_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if np.any(np.asarray(self.r_s) < 0) or np.any(np.asarray(self.kappa) < 0):
            raise ValueError("recovery and mortality rates must be nonnegative")

    @property
    def is_demographic(self) -> bool:
        return self.beta is not None

    def symptomatic_risk(self) -> float | np.ndarray:
        """beta_s, or the per-group vector beta * beta0."""
        if self.is_demographic:
            return self.beta * self.beta0
        return self.beta_s

    def asymptomatic_risk(self) -> float | np.ndarray:
        if self.is_demographic:
            return self.alpha_hat * self.beta * self.beta0
        return self.beta_a

    def outflow_symptomatic(self) -> float | np.ndarray:
        """Total symptomatic outflow rate r_s + kappa (scalar or per group)."""
        return self.r_s + self.kappa

    def with_transmission_scale(self, scale: float) -> "DiseaseParams":
        """New parameter set with the transmission scalar multiplied by scale."""
        if self.is_demographic:
            return replace(self, beta=self.beta * scale)
        return replace(self, beta_s=self.beta_s * scale,
                       beta_a=self.beta_a * scale)


@dataclass
class ContactStructure:
    """Empirical contact matrix plus the demography it was measured on."""

    contacts: np.ndarray
    reference_pop: np.ndarray

    def __post_init__(self):
        self.contacts = np.asarray(self.contacts, dtype=float)
        self.reference_pop = np.asarray(self.reference_pop, dtype=float)
        if np.any(self.contacts < 0):
            raise ValueError("contact matrix entries must be nonnegative")
        if np.any(self.reference_pop <= 0):
            raise ValueError("reference populations must be positive")
        g = self.reference_pop.shape[0]
        if self.contacts.shape != (g, g):
            raise ValueError("contact matrix shape must match reference demography")

    @property
    def n_groups(self) -> int:
        return self.reference_pop.shape[0]

    @property
    def gamma(self) -> np.ndarray:
        """Intrinsic connectivity matrix for a rectangular demography."""
        return intrinsic_connectivity(self.contacts, self.reference_pop)

    def gamma_is_positive_definite(self) -> bool:
        return cholesky_factor(self.gamma) is not None


@dataclass
class EpidemicState:
    """Per-cell compartment fractions.

    vax is the vaccinated-immune pool: mass moved out of s by dosing.
    Per cell, s + xa + xs + e + h + vax = 1.
    """

    s: np.ndarray
    xa: np.ndarray
    xs: np.ndarray
    e: np.ndarray
    h: np.ndarray
    vax: Optional[np.ndarray] = None
    t: float = 0.0

    def __post_init__(self):
        for name in ("s", "xa", "xs", "e", "h"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.vax is None:
            self.vax = np.zeros_like(self.s)
        else:
            self.vax = np.asarray(self.vax, dtype=float)

    @property
    def size(self) -> int:
        return self.s.shape[0]

    def compartments(self) -> np.ndarray:
        return np.stack([self.s, self.xa, self.xs, self.e, self.h, self.vax])

    def validate(self, atol: float = 1e-9) -> None:
        comp = self.compartments()
        if np.any(comp < -atol) or np.any(comp > 1 + atol):
            raise ValueError("compartment fractions must lie in [0, 1]")
        totals = comp.sum(axis=0)
        if not np.allclose(totals, 1.0, rtol=0, atol=atol):
            raise ValueError("compartments must sum to 1 per cell")

    def copy(self) -> "EpidemicState":
        return EpidemicState(self.s.copy(), self.xa.copy(), self.xs.copy(),
                             self.e.copy(), self.h.copy(), self.vax.copy(), self.t)


@dataclass
class StabilityCertificate:
    """Spectral decay certificate for a post-vaccination state.

    lambda_max is the top eigenvalue (largest real part) of the infection
    submatrix M(t0); spectral_radius is the radius of the reduced
    discrete-time matrix b1 * diag(s - psi v) * A at the same decay rate.
    """

    alpha: float
    lambda_max: float
    satisfied: bool
    spectral_radius: float = np.nan
    tol: float = 1e-8


# ---------------------------------------------------------------------------
# coupling matrices
# ---------------------------------------------------------------------------

def build_flow_matrix(net: NetworkInstance) -> tuple[np.ndarray, np.ndarray]:
    """Infection-flow matrix A and its population-normalized Gram factor Abar.

    Abar[i, j] = sum_l tau[i, l] tau[j, l] / m(l) with m(l) the person-time
    present at l; A = Abar @ diag(populations). Columns with m(l) = 0 carry
    no one and contribute zero.
    """
    tau = net.tau
    mass = tau.T @ net.populations
    inv_mass = np.zeros_like(mass)
    occupied = mass > 0
    inv_mass[occupied] = 1.0 / mass[occupied]
    abar = (tau * inv_mass[None, :]) @ tau.T
    flow = abar * net.populations[None, :]
    return flow, abar


def intrinsic_connectivity(contacts: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Rescale a contact matrix to a rectangular demography: G[i,j] = C[i,j] N/N_j."""
    contacts = np.asarray(contacts, dtype=float)
    pop = np.asarray(pop, dtype=float)
    if np.any(pop <= 0):
        raise ValueError("group populations must be positive")
    return contacts * (pop.sum() / pop)[None, :]


def cholesky_factor(mat: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of mat, or None unless mat is symmetric (entrywise,
    relative to its largest entry) and positive definite: unit-free tests."""
    mat = np.asarray(mat, dtype=float)
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12 * np.abs(mat).max()):
        return None
    try:
        return np.linalg.cholesky(0.5 * (mat + mat.T))
    except np.linalg.LinAlgError:
        return None


def coupling_gram_factor(net: NetworkInstance,
                         contacts: Optional[ContactStructure] = None,
                         ) -> Optional[np.ndarray]:
    """F with F F' = Abar = tau diag(1/m) tau', i.e. F = tau diag(m^-1/2);
    given contacts, F (x) chol(Gamma) for Abar (x) Gamma, or None when Gamma
    has no Cholesky factor."""
    mass = net.tau.T @ net.populations
    inv_sqrt = np.zeros_like(mass)
    occupied = mass > 0
    inv_sqrt[occupied] = mass[occupied] ** -0.5
    factor = net.tau * inv_sqrt[None, :]
    if contacts is None:
        return factor
    chol = cholesky_factor(contacts.gamma)
    return None if chol is None else np.kron(factor, chol)


def project_contact_matrix(contacts: np.ndarray, from_pop: np.ndarray,
                           to_pop: np.ndarray) -> np.ndarray:
    """Transport a contact matrix measured on one demography to another:
    C'[i,j] = C[i,j] * (N * N'_j) / (N_j * N')."""
    contacts = np.asarray(contacts, dtype=float)
    from_pop = np.asarray(from_pop, dtype=float)
    to_pop = np.asarray(to_pop, dtype=float)
    if np.any(from_pop <= 0) or np.any(to_pop <= 0):
        raise ValueError("group populations must be positive")
    return contacts * (from_pop.sum() / to_pop.sum()) * (to_pop / from_pop)[None, :]


def build_demographic_coupling(net: NetworkInstance,
                               cs: ContactStructure) -> np.ndarray:
    """Age-structured flow matrix A' = (Abar (x) Gamma) diag(group populations),
    location-major ordering."""
    if net.group_populations is None:
        raise ValueError("network has no group populations")
    _, abar = build_flow_matrix(net)
    flat_pop = net.group_populations.reshape(-1)
    return np.kron(abar, cs.gamma) * flat_pop[None, :]


def _cell_rates(net: NetworkInstance, params: DiseaseParams):
    """Per-cell (beta_a, beta_s, r_s + kappa, r_s, kappa) tiled location-major."""
    if params.is_demographic:
        g = net.n_groups
        reps = net.n
        beta_s = np.tile(np.asarray(params.symptomatic_risk()), reps)
        beta_a = np.tile(np.asarray(params.asymptomatic_risk()), reps)
        r_s = np.tile(np.broadcast_to(np.asarray(params.r_s, dtype=float), (g,)), reps)
        kappa = np.tile(np.broadcast_to(np.asarray(params.kappa, dtype=float), (g,)), reps)
    else:
        m = net.n
        beta_s = np.full(m, params.beta_s, dtype=float)
        beta_a = np.full(m, params.beta_a, dtype=float)
        r_s = np.full(m, float(params.r_s))
        kappa = np.full(m, float(params.kappa))
    return beta_a, beta_s, r_s, kappa


def flow_for_model(net: NetworkInstance, params: DiseaseParams,
                   contacts: Optional[ContactStructure]) -> np.ndarray:
    """The flow matrix the infection dynamics couple through: A or A'."""
    if params.is_demographic:
        if contacts is None:
            raise ValueError("demographic parameters require a contact structure")
        return build_demographic_coupling(net, contacts)
    return build_flow_matrix(net)[0]


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def compute_b1(params: DiseaseParams, alpha: float) -> float | np.ndarray:
    """Collapse the two-stage infection chain into the spectral factor b1.

    b1 = (beta_s eps + beta_a (r_s + kappa - alpha))
         / ((eps + r_a - alpha)(r_s + kappa - alpha)),
    componentwise for the age-structured model. The symptomatic outflow is
    r_s + kappa, so the alpha = 0 certificate coincides with Rt <= 1.
    """
    d1 = params.eps + params.r_a - alpha
    d2 = np.asarray(params.outflow_symptomatic(), dtype=float) - alpha
    if d1 <= 0 or np.any(d2 <= 0):
        raise InfeasibleRateError(
            f"decay rate {alpha} is not achievable: it must stay below "
            f"min(eps + r_a, r_s + kappa)")
    beta_s = np.asarray(params.symptomatic_risk(), dtype=float)
    beta_a = np.asarray(params.asymptomatic_risk(), dtype=float)
    b1 = (beta_s * params.eps + beta_a * d2) / (d1 * d2)
    if b1.ndim == 0:
        return float(b1)
    return b1


def cell_b1(params: DiseaseParams, n: int, alpha: float) -> np.ndarray:
    """b1 per cell for n locations, tiled location-major."""
    return np.tile(np.atleast_1d(compute_b1(params, alpha)), n)


def max_certificate_rate(params: DiseaseParams) -> float:
    """Upper limit of achievable decay rates: min(eps + r_a, min(r_s + kappa))."""
    return float(min(params.eps + params.r_a,
                     np.min(np.asarray(params.outflow_symptomatic()))))


def infection_submatrix(s: np.ndarray, net: NetworkInstance, params: DiseaseParams,
                        contacts: Optional[ContactStructure] = None) -> np.ndarray:
    """Linearized infection block M(t): the coupled (xa, xs) dynamics at
    susceptible profile s."""
    flow = flow_for_model(net, params, contacts)
    beta_a, beta_s, r_s, kappa = _cell_rates(net, params)
    m = flow.shape[0]
    weighted = s[:, None] * flow
    eye = np.eye(m)
    top_left = beta_a[:, None] * weighted - (params.eps + params.r_a) * eye
    top_right = beta_s[:, None] * weighted
    return np.block([[top_left, top_right],
                     [params.eps * eye, -np.diag(r_s + kappa)]])


def _largest_real_eig(mat: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(mat).real))


def spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def discrete_stability_matrix(s: np.ndarray, net: NetworkInstance,
                              params: DiseaseParams,
                              contacts: Optional[ContactStructure],
                              alpha: float) -> np.ndarray:
    """Reduced one-stage matrix b1 * diag(s) * A whose spectral radius <= 1
    is equivalent to lambda_max(M) <= -alpha."""
    flow = flow_for_model(net, params, contacts)
    return (cell_b1(params, net.n, alpha) * s)[:, None] * flow


def effective_reproduction_number(state: EpidemicState, net: NetworkInstance,
                                  params: DiseaseParams,
                                  contacts: Optional[ContactStructure] = None) -> float:
    """Rt as the top eigenvalue of L D^{-1} from the next-generation split
    of the infection block."""
    flow = flow_for_model(net, params, contacts)
    beta_a, beta_s, r_s, kappa = _cell_rates(net, params)
    m = flow.shape[0]
    weighted = state.s[:, None] * flow
    eye = np.eye(m)
    zero = np.zeros((m, m))
    lin = np.block([[beta_a[:, None] * weighted, beta_s[:, None] * weighted],
                    [zero, zero]])
    dmat = np.block([[(params.eps + params.r_a) * eye, zero],
                     [-params.eps * eye, np.diag(r_s + kappa)]])
    rt = _largest_real_eig(lin @ np.linalg.inv(dmat))
    return max(rt, 0.0)


def calibrate_transmission(net: NetworkInstance, template: DiseaseParams,
                           state: EpidemicState, target_rt: float,
                           contacts: Optional[ContactStructure] = None,
                           tol: float = 1e-6) -> DiseaseParams:
    """Scale the transmission scalar so the instance reproduces target_rt.

    Rt is linear in the scalar, so a single eigenvalue solve at a reference
    scale pins the answer; the result is re-verified to tol.
    """
    if target_rt < 0:
        raise CalibrationError("target reproduction number must be nonnegative")
    if target_rt == 0:
        return template.with_transmission_scale(0.0)
    if template.is_demographic:
        reference = replace(template, beta=1.0)
    else:
        base = template.alpha_hat if template.alpha_hat is not None else (
            template.beta_a / template.beta_s if template.beta_s else 1.0)
        reference = replace(template, beta_s=1.0, beta_a=base)
    rt_ref = effective_reproduction_number(state, net, reference, contacts)
    if rt_ref <= 0:
        raise CalibrationError("instance has no transmission path; target unreachable")
    calibrated = reference.with_transmission_scale(target_rt / rt_ref)
    achieved = effective_reproduction_number(state, net, calibrated, contacts)
    if abs(achieved - target_rt) > tol:
        raise CalibrationError(
            f"calibration missed target: {achieved} vs {target_rt}")
    return calibrated


def check_decay_certificate(state: EpidemicState, net: NetworkInstance,
                            params: DiseaseParams,
                            contacts: Optional[ContactStructure],
                            v: np.ndarray, alpha: float,
                            tol: float = 1e-8) -> StabilityCertificate:
    """Certify that allocation v enforces decay at rate alpha from state.

    Evaluates both the continuous form lambda_max(M(t0)) <= -alpha on the
    post-vaccination susceptibles and the reduced discrete radius; the
    boolean comes from the continuous form.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12) or np.any(v > state.s + 1e-9):
        raise ValueError("allocation must satisfy 0 <= v_i <= s_i")
    s_post = np.clip(state.s - params.psi * v, 0.0, None)
    lam = _largest_real_eig(infection_submatrix(s_post, net, params, contacts))
    try:
        radius = spectral_radius(
            discrete_stability_matrix(s_post, net, params, contacts, alpha))
    except InfeasibleRateError:
        radius = np.inf
    return StabilityCertificate(alpha=alpha, lambda_max=lam,
                                satisfied=bool(lam <= -alpha + tol),
                                spectral_radius=radius, tol=tol)
