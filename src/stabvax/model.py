"""Core network-epidemic model: coupling matrices, reproduction numbers,
and spectral decay certificates.

Symmetric spectra come from `_top_eig` on a Gram kernel (`GramKernel`): the
upper end of a Collatz-Wielandt bracket, or eigvalsh for a small or hard
kernel. In the homogeneous model every cell shares beta_a, beta_s, c1 = eps +
r_a and d2 = r_s + kappa, and W = diag(s) A = diag(s) Abar diag(N) has the
spectrum of the nonnegative symmetric D Abar D, D = diag(sqrt(s N)). The
infection block M is block-similar to one 2 x 2 block [[beta_a w - c1,
beta_s w], [eps, -d2]] per eigenvalue w of W, and the top root of a block
rises with w, so Rt, lambda_max(M) and the reduced radius all follow from the
top w.

The age-structured model's per-group outflows break the 2 x 2 reduction, but
when Gamma has a Cholesky factor, F F' = Abar (x) Gamma
(`coupling_gram_kernel`) and its spectra come from the symmetric
F' diag(N b1(alpha) s) F: its top eigenvalue rho(alpha) is the reduced radius,
rho(0) is Rt, and lambda_max(M) is -alpha* at the root rho(alpha*) = 1
(Berman and Plemmons, Nonnegative Matrices in the Mathematical Sciences,
ch. 6). A Gamma with no Cholesky factor takes dense `eigvals`.

Index convention for age-structured quantities: flattened vectors and the
coupling matrix are ordered location-major, group-minor, i.e. the entry for
group ``b`` at location ``i`` sits at flat index ``i * n_groups + b``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np


class InfeasibleRateError(ValueError):
    """Requested decay rate exceeds what the recovery rates allow."""


class CalibrationError(RuntimeError):
    """Transmission calibration could not reach the target."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _read_only(values) -> np.ndarray:
    """A float copy of values that no one can write into."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _read_only_state(record, state: dict) -> None:
    """`__setstate__` of the frozen records: numpy unpickles arrays as
    writable, so each array field and cached value (an array or a tuple of
    them) is made read-only again; the cache travels with the record."""
    for value in state.values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
    record.__dict__.update(state)


@dataclass(frozen=True)
class NetworkInstance:
    """Travel network with resident populations.

    tau[i, j] is the fraction of a day a resident of location i spends at
    location j (rows need not sum to 1; the remainder is time at home not
    captured by trips). populations holds long-term residents per location.
    group_populations, when present, is an (n, g) matrix of residents per
    age group whose rows must sum to populations exactly.

    The record is frozen and its arrays are read-only copies, so the
    coupling it determines (`build_flow_matrix`) is computed once, on first
    use, and serves every caller of the record.
    """

    tau: np.ndarray
    populations: np.ndarray
    dwell_minutes: Optional[np.ndarray] = None
    group_populations: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("tau", "populations", "dwell_minutes", "group_populations"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _read_only(getattr(self, name)))
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
        if self.group_populations is not None:
            if self.group_populations.shape[0] != n:
                raise ValueError("group_populations must have one row per location")
            if not np.allclose(self.group_populations.sum(axis=1),
                               self.populations, rtol=0, atol=1e-6):
                raise ValueError("group populations must sum to the location totals")

    __setstate__ = _read_only_state

    @functools.cached_property
    def _coupling(self) -> tuple[np.ndarray, np.ndarray]:
        return _flow_pair(self.tau, self.populations)

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


@dataclass(frozen=True)
class ContactStructure:
    """Empirical contact matrix plus the demography it was measured on.

    Frozen with read-only arrays like `NetworkInstance`: gamma and whether
    it has a Cholesky factor are computed once, on first use."""

    contacts: np.ndarray
    reference_pop: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "contacts", _read_only(self.contacts))
        object.__setattr__(self, "reference_pop", _read_only(self.reference_pop))
        if np.any(self.contacts < 0):
            raise ValueError("contact matrix entries must be nonnegative")
        if np.any(self.reference_pop <= 0):
            raise ValueError("reference populations must be positive")
        g = self.reference_pop.shape[0]
        if self.contacts.shape != (g, g):
            raise ValueError("contact matrix shape must match reference demography")

    __setstate__ = _read_only_state

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        """Intrinsic connectivity matrix for a rectangular demography."""
        return _read_only(intrinsic_connectivity(self.contacts,
                                                 self.reference_pop))

    @functools.cached_property
    def _gamma_is_gram(self) -> bool:
        """Whether gamma has a Cholesky factor, so Abar (x) Gamma is a Gram
        kernel."""
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

    def __post_init__(self):
        for name in ("s", "xa", "xs", "e", "h"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.vax is None:
            self.vax = np.zeros_like(self.s)
        else:
            self.vax = np.asarray(self.vax, dtype=float)

    def compartments(self) -> np.ndarray:
        return np.stack([self.s, self.xa, self.xs, self.e, self.h, self.vax])

    def validate(self) -> None:
        comp = self.compartments()
        for name, row in zip(("s", "xa", "xs", "e", "h", "vax"), comp):
            if np.any(row < -1e-9) or np.any(row > 1 + 1e-9):
                raise ValueError(f"{name} fractions must lie in [0, 1]")
        if not np.allclose(comp.sum(axis=0), 1.0, rtol=0, atol=1e-9):
            raise ValueError("compartments must sum to 1 per cell")


CERTIFICATE_TOL = 1e-8
# calibrate_transmission verifies Rt to this absolute tolerance
CALIBRATION_TOL = 1e-6


@dataclass
class StabilityCertificate:
    """Spectral decay certificate for a post-vaccination state.

    lambda_max is the top eigenvalue (largest real part) of the infection
    submatrix M(t0); spectral_radius is the radius of the reduced
    discrete-time matrix b1 * diag(s - psi v) * A at the same decay rate.
    satisfied is derived: lambda_max <= -alpha + CERTIFICATE_TOL.
    """

    alpha: float
    lambda_max: float
    spectral_radius: float = np.nan

    @property
    def satisfied(self) -> bool:
        return bool(self.lambda_max <= -self.alpha + CERTIFICATE_TOL)


# ---------------------------------------------------------------------------
# coupling matrices
# ---------------------------------------------------------------------------

def build_flow_matrix(net: NetworkInstance) -> tuple[np.ndarray, np.ndarray]:
    """Infection-flow matrix A and its population-normalized Gram factor Abar.

    Abar[i, j] = sum_l tau[i, l] tau[j, l] / m(l) with m(l) the person-time
    present at l; A = Abar @ diag(populations). Columns with m(l) = 0 carry
    no one and contribute zero. Both are computed once per record, on the
    first call, and returned read-only to every later caller: calibration,
    `build_problem`, the certificate and `covid_rhs_factory` share them.
    """
    return net._coupling


def _flow_pair(tau: np.ndarray, populations: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    mass = tau.T @ populations
    inv_mass = np.zeros_like(mass)
    occupied = mass > 0
    inv_mass[occupied] = 1.0 / mass[occupied]
    abar = (tau * inv_mass[None, :]) @ tau.T
    flow = abar * populations[None, :]
    flow.flags.writeable = abar.flags.writeable = False
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


@dataclass(frozen=True)
class GramKernel:
    """An entrywise nonnegative Gram kernel B = F F' = Abar (x) Gamma, with
    Gamma = [[1]] for one cell per location. B y is Abar Y Gamma' on the
    (n, g) reshape Y of y; only `dense` forms the (n g)^2 matrix."""

    abar: np.ndarray
    gamma: np.ndarray = field(default_factory=lambda: np.ones((1, 1)))

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return (self.abar @ y.reshape(len(self.abar), -1)
                @ self.gamma.T).reshape(-1)

    @functools.cached_property
    def dense(self) -> np.ndarray:
        return np.kron(self.abar, self.gamma)


def coupling_gram_kernel(net: NetworkInstance, params: DiseaseParams,
                         contacts: Optional[ContactStructure] = None,
                         ) -> Optional[GramKernel]:
    """The Gram kernel of the model's flow: Abar = tau diag(1/m) tau' (factor
    tau diag(m^-1/2)), or Abar (x) Gamma for the age model; None when that
    has no contacts or a Gamma with no Cholesky factor. Abar, Gamma and the
    Cholesky verdict come from their records, which compute each once."""
    if not params.is_demographic:
        return GramKernel(build_flow_matrix(net)[1])
    if contacts is None or not contacts._gamma_is_gram:
        return None
    return GramKernel(build_flow_matrix(net)[1], contacts.gamma)


def _cell_rates(net: NetworkInstance, params: DiseaseParams):
    """Per-cell (beta_a, beta_s, r_s, kappa) tiled location-major."""
    shape = (net.n_groups if params.is_demographic else 1,)
    return tuple(np.tile(np.broadcast_to(np.asarray(rate, dtype=float), shape),
                         net.n)
                 for rate in (params.asymptomatic_risk(),
                              params.symptomatic_risk(), params.r_s,
                              params.kappa))


def flow_for_model(net: NetworkInstance, params: DiseaseParams,
                   contacts: Optional[ContactStructure]) -> np.ndarray:
    """The flow matrix the infection dynamics couple through: A, or for the
    age model A' = (Abar (x) Gamma) diag(group populations), location-major."""
    if not params.is_demographic:
        return build_flow_matrix(net)[0]
    if contacts is None:
        raise ValueError("demographic parameters require a contact structure")
    if net.group_populations is None:
        raise ValueError("network has no group populations")
    return (np.kron(build_flow_matrix(net)[1], contacts.gamma)
            * net.group_populations.reshape(-1)[None, :])


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


def _cell_b1_slope(params: DiseaseParams, n: int, alpha: float) -> np.ndarray:
    """d b1 / d alpha per cell below `max_certificate_rate`, tiled like
    `cell_b1`: b1 = beta_s eps / (d1 d2) + beta_a / d1 with d1 = eps + r_a -
    alpha and d2 = r_s + kappa - alpha."""
    d1 = params.eps + params.r_a - alpha
    d2 = np.asarray(params.outflow_symptomatic(), dtype=float) - alpha
    slope = (np.asarray(params.symptomatic_risk(), dtype=float) * params.eps
             * (d1 + d2) / (d1 * d2) ** 2
             + np.asarray(params.asymptomatic_risk(), dtype=float) / d1 ** 2)
    return np.tile(np.atleast_1d(slope), n)


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


def _top_block_root(params: DiseaseParams, w: float) -> float:
    """Top eigenvalue of [[beta_a w - c1, beta_s w], [eps, -d2]]. Its
    discriminant (beta_a w - c1 + d2)^2 + 4 beta_s eps w is a sum of squares
    and products of nonnegative terms, so both roots are real; a negative
    trace takes the root as det / (smaller root), which cancels nothing."""
    d2 = float(params.outflow_symptomatic())
    a = params.beta_a * w - (params.eps + params.r_a)
    trace = a - d2
    det = -a * d2 - params.beta_s * w * params.eps
    root = math.sqrt((a + d2) ** 2 + 4.0 * params.beta_s * params.eps * w)
    if trace >= 0:
        return 0.5 * (trace + root)
    return 2.0 * det / (trace - root)


def chain_certificate(w: float, alpha: float, b1_at: Callable,
                      rate_at_radius: Callable) -> StabilityCertificate:
    """The certificate of a scalar-chain model (homogeneous covid, SEIR) from
    w = rho(diag(s_post) A): lambda_max = -rate_at_radius(w) in closed form,
    and the radius b1_at(alpha) w, or inf where b1_at raises at the limit."""
    try:
        radius = b1_at(alpha) * w
    except InfeasibleRateError:
        radius = np.inf
    return StabilityCertificate(alpha=alpha, lambda_max=-rate_at_radius(w),
                                spectral_radius=radius)


# _gram_certificate stops once a Newton step in alpha is at most this fraction
# of max(max_certificate_rate, |alpha|); the error left is of order its square
_RATE_STEP_TOL = 1e-9


# _top_eig's power iteration stops once its bracket is within _CW_TOL of its
# top; below _CW_DENSE_BELOW cells with w > 0, or after _CW_MAX_ITER steps
# with the bracket still open, the dense solve takes over
_CW_TOL, _CW_DENSE_BELOW, _CW_MAX_ITER = 1e-12, 40, 100
# below _CW_DENSE_BELOW cells a settle threshold first tries this many power
# steps: at 30 cells a step costs about 1/9 of the dense solve (12.5 against
# 110 us), and 97% of the settled calls of age n=5 budgeted searches settle
# within 8 steps
_SETTLE_STEPS = 8


def _top_eig(kernel: GramKernel, w: np.ndarray,
             start: Optional[np.ndarray] = None, *,
             settle: Optional[float] = None,
             ) -> tuple[float, np.ndarray, np.ndarray]:
    """(lambda, F z, x) for S = diag(sqrt w) B diag(sqrt w), w >= 0, and the
    kernel B = F F': lambda_max(S) = lambda_max(F' diag(w) F); the cut F z =
    B (sqrt(w) x) / sqrt(x'Sx) for the unit z along F' diag(sqrt w) x, valid
    ((F z)^2 . w' <= lambda_max(F' diag(w') F) for all w' >= 0) and tight at
    w; and S's top eigenvector x, which starts the next call (a start of
    another shape is ignored). S is nonnegative, so for any x > 0 on the
    cells with w > 0, min (Sx)_i / x_i <= lambda_max <= max (Sx)_i / x_i
    (Collatz 1942, Wielandt 1950): a power iteration returns the top of that
    bracket once it is within _CW_TOL. Below _CW_DENSE_BELOW such cells, at
    some (Sx)_i <= 0 (a reducible S) or at the step cap (a small spectral
    gap), eigvalsh and one shifted solve give lambda and x instead.

    Given a threshold settle, the iteration also returns its top hi, still an
    upper bound on lambda_max, once the bracket [lo, hi] lies on one side of
    it (hi <= settle or lo > settle), and below _CW_DENSE_BELOW cells it
    takes up to _SETTLE_STEPS such steps before the dense solve. At lo >
    settle the cut is not tight, but still separates w: (F z)^2 . w =
    x'S^2 x / x'Sx >= x'Sx / x'x >= lo (Cauchy-Schwarz, S symmetric, with x
    read on the cells with w > 0).
    """
    w = np.maximum(w, 0.0)
    root, size = np.sqrt(w), int(np.count_nonzero(w))
    cells = slice(None) if size == w.size else np.flatnonzero(w)
    steps = (_CW_MAX_ITER if size >= _CW_DENSE_BELOW else
             _SETTLE_STEPS if settle is not None and size else 0)
    if steps:
        x = (np.ones_like(w) if start is None or start.shape != w.shape
             else np.where(start > 0, start, 1.0))
        for _ in range(steps):
            bx = kernel @ (root * x)
            sx = root * bx
            ratio = sx[cells] / x[cells]
            lo, hi = float(ratio.min()), float(ratio.max())
            if not lo > 0:
                break
            if (hi - lo <= _CW_TOL * hi or settle is not None
                    and (hi <= settle or lo > settle)):
                return hi, bx / math.sqrt(x @ sx), x
            x = sx / hi
    lam, x = 0.0, np.zeros_like(w)
    if size:  # x from one solve shifted just above lam; a right-hand side
        # of -shift keeps x near the positive Perron vector, |x| <= sqrt(size)
        sub = root[cells]
        mat = sub[:, None] * kernel.dense[cells][:, cells] * sub
        lam = float(np.linalg.eigvalsh(mat)[-1])
        if lam > 0:
            mat.flat[::size + 1] -= lam * (1 + 1e-10)
            x[cells] = np.linalg.solve(mat, np.full(size, -1e-10 * lam))
    y = root * x if lam > 0 else np.ones_like(w)  # S = 0: any unit z cuts
    by = kernel.dense @ y
    quad = float(y @ by)
    return lam, by / math.sqrt(quad) if quad > 0 else by, x


def _gram_certificate(kernel: GramKernel, weight: np.ndarray,
                      params: DiseaseParams, n: int, alpha: float,
                      ) -> tuple[float, float]:
    """(lambda_max(M), reduced radius at alpha) of the age model from
    rho(a) = lambda_max(F' diag(weight b1(a)) F), weight = N s, from
    `_top_eig`; each solve starts from the one before.

    The radius is rho(alpha), or inf at or above `max_certificate_rate`.
    lambda_max is -alpha* at the root rho(alpha*) = 1, or -max_rate when rho
    stays <= 1 up to the limit. rho rises with a, and the search starts at
    alpha (just below the limit when alpha is not below it), reusing the
    radius's eigensolve. Each step is Newton's on 1 - 1/rho, exact where rho
    has a simple pole at the limit, with d rho / d a = sum (F z)_i^2 weight_i
    b1'_i(a); a step that leaves the bracket [lo, hi] (rho(lo) <= 1 <
    rho(hi)) bisects it, so every point evaluated shrinks the bracket. The
    first step past the limit tests rho just below it: at most 1 means no
    root, as does a zero slope at rho <= 1 (weight b1 vanishes: W = 0, s = 0
    or no transmission).
    """
    max_rate = max_certificate_rate(params)
    lo, hi = -np.inf, max_rate
    a = alpha if alpha < max_rate else float(np.nextafter(max_rate, -np.inf))
    rho, fz, x = _top_eig(kernel, weight * cell_b1(params, n, a))
    radius = max(rho, 0.0) if alpha < max_rate else np.inf
    while True:
        slope = float(fz ** 2 @ (weight * _cell_b1_slope(params, n, a)))
        if rho > 1:
            hi = a
        elif slope <= 0:
            return -max_rate, radius
        else:
            lo = a
        step = rho * (rho - 1.0) / slope
        nxt = a - step
        if abs(step) <= _RATE_STEP_TOL * max(max_rate, abs(a)):
            return -min(nxt, max_rate), radius
        if not lo < nxt < hi:
            if hi == max_rate:
                hi = float(np.nextafter(max_rate, -np.inf))
                if _top_eig(kernel, weight * cell_b1(params, n, hi), x)[0] <= 1:
                    return -max_rate, radius
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return -nxt, radius
        a = nxt
        rho, fz, x = _top_eig(kernel, weight * cell_b1(params, n, a), x)


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
    of the infection block. L D^{-1} is block upper-triangular with a zero
    lower block row, so Rt is the top eigenvalue of its m x m top-left block
    diag(beta_a / c1) W + diag(beta_s) W diag(eps / (c1 d2)), W = diag(s) A,
    c1 = eps + r_a, d2 = r_s + kappa per cell: no inverse is formed.

    beta_a / beta_s is one scalar (alpha_hat in the age-structured model), so
    that block is diag(beta_s) W diag(h), h = beta_a / (beta_s c1) + eps /
    (c1 d2), similar to the reduced matrix at rate 0, diag(b1(0) s) A. So Rt
    is lambda_max(F' diag(N b1(0) s) F) for the Gram kernel F F' of Abar or
    Abar (x) Gamma from `_top_eig`, or the top of dense `eigvals` of the
    reduced matrix when Gamma has no Cholesky factor.
    Raises ValueError if eps + r_a is 0, or r_s + kappa is 0 in some group."""
    return _reproduction_number(state, net, params, contacts)[0]


def _reproduction_number(state: EpidemicState, net: NetworkInstance,
                         params: DiseaseParams,
                         contacts: Optional[ContactStructure],
                         start: Optional[np.ndarray] = None,
                         ) -> tuple[float, Optional[np.ndarray]]:
    """(Rt, x) for `effective_reproduction_number`: x is the Perron vector
    of the Gram solve, started from start, or None on the dense path."""
    if params.eps + params.r_a <= 0:
        raise ValueError("Rt is undefined: eps + r_a is 0")
    stuck = np.flatnonzero(np.atleast_1d(params.outflow_symptomatic()) <= 0)
    if stuck.size:
        where = f" in age groups {stuck.tolist()}" if params.is_demographic else ""
        raise ValueError(f"Rt is undefined: r_s + kappa is 0{where}")
    kernel = coupling_gram_kernel(net, params, contacts)
    if kernel is None:
        return max(float(np.linalg.eigvals(discrete_stability_matrix(
            state.s, net, params, contacts, 0.0)).real.max()), 0.0), None
    weight = net.cell_populations() * state.s * cell_b1(params, net.n, 0.0)
    rt, _, x = _top_eig(kernel, weight, start)
    return max(rt, 0.0), x


def calibrate_transmission(net: NetworkInstance, template: DiseaseParams,
                           state: EpidemicState, target_rt: float,
                           contacts: Optional[ContactStructure] = None,
                           ) -> DiseaseParams:
    """Scale the transmission scalar so the instance reproduces target_rt.

    Rt is linear in the scalar, so a single eigenvalue solve at a reference
    scale pins the answer; the result is re-verified to CALIBRATION_TOL by a
    second solve to the full Collatz-Wielandt tolerance, started from the
    reference solve's Perron vector, which the rescale leaves in place. Both
    solves read the coupling the instance's records computed once.
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
    rt_ref, x = _reproduction_number(state, net, reference, contacts)
    if rt_ref <= 0:
        raise CalibrationError("instance has no transmission path; target unreachable")
    calibrated = reference.with_transmission_scale(target_rt / rt_ref)
    achieved = _reproduction_number(state, net, calibrated, contacts, x)[0]
    if abs(achieved - target_rt) > CALIBRATION_TOL:
        raise CalibrationError(
            f"calibration missed target: {achieved} vs {target_rt}")
    return calibrated


def check_decay_certificate(state: EpidemicState, net: NetworkInstance,
                            params: DiseaseParams,
                            contacts: Optional[ContactStructure],
                            v: np.ndarray, alpha: float,
                            ) -> StabilityCertificate:
    """Certify that allocation v enforces decay at rate alpha from state.

    Evaluates both the continuous form lambda_max(M(t0)) <= -alpha on the
    post-vaccination susceptibles and the reduced discrete radius; the
    boolean comes from the continuous form, to within CERTIFICATE_TOL. The
    radius is inf when alpha is at or above `max_certificate_rate`.

    For the homogeneous model both come from the top eigenvalue w of
    W = diag(s_post) A (`_top_eig`) by the shared `chain_certificate`:
    lambda_max is the top root of the block [[beta_a w - c1, beta_s w],
    [eps, -d2]] and the radius is b1(alpha) w. For the age-structured model
    with a Cholesky factor of Gamma, the radius is rho(alpha) =
    lambda_max(F' diag(N b1(alpha) s_post) F), and lambda_max is -alpha* at
    rho(alpha*) = 1, found by a bracketed Newton search started at alpha
    (`_gram_certificate`), usually one or two warm-started solves.
    Otherwise it takes dense `eigvals` of M and of the reduced matrix.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12) or np.any(v > state.s + 1e-9):
        raise ValueError("allocation must satisfy 0 <= v_i <= s_i")
    s_post = np.clip(state.s - params.psi * v, 0.0, None)
    kernel = coupling_gram_kernel(net, params, contacts)
    if not params.is_demographic:
        return chain_certificate(
            max(_top_eig(kernel, s_post * net.populations)[0], 0.0), alpha,
            lambda rate: compute_b1(params, rate),
            lambda w: -_top_block_root(params, w))
    if kernel is not None and max_certificate_rate(params) > 0:
        lam, radius = _gram_certificate(kernel, net.cell_populations() * s_post,
                                        params, net.n, alpha)
    else:  # no Gram kernel, or a group that never leaves infection (rate
        # limit 0, where b1 has no finite value just below the limit)
        lam = float(np.linalg.eigvals(infection_submatrix(
            s_post, net, params, contacts)).real.max())
        try:
            radius = float(np.max(np.abs(np.linalg.eigvals(
                discrete_stability_matrix(s_post, net, params, contacts,
                                          alpha)))))
        except InfeasibleRateError:
            radius = np.inf
    return StabilityCertificate(alpha=alpha, lambda_max=lam,
                                spectral_radius=radius)
