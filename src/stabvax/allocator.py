"""Optimal stabilizing allocation solvers.

Allocation v certifies decay at rate alpha when diag(b1 (s0 - psi v)) K
diag(N) has spectral radius at most 1. The model layer supplies a Gram factor
of the symmetric coupling, K = F F' (``model.coupling_gram_factor``), and
with u = N b1 (s0 - psi v) the condition is lambda_max(F' diag(u) F) <= 1: a
diagonal LMI that needs no inverse and no definiteness test.

* ``lmi_box_maximize`` solves  max w'u  s.t.  lambda_max(F' diag(u) F) <= 1,
  l <= u <= h  by Kelley cuts: the top eigenvector z at the LP point gives
  the valid cut sum_i (F z)_i^2 u_i <= 1. As lambda_max is convex, the point
  at s = (lambda - 1) / (lambda - lambda_lo) on the segment from the LP point
  to the feasible lower corner is feasible, which bounds the gap in closed
  form. Cuts depend on F alone, so one ``CutPool`` serves all probes of an
  alpha bisection, and a probe stops once it settles the budget question.

* ``spectral_box_minimize`` serves couplings without a Gram factor (an
  indefinite or asymmetric contact structure):
  min c'v  s.t.  rho(diag(p0 - p1*v) K) <= 1,  0 <= v <= vmax
  by sequential linear programming on the exact spectral-radius gradient
  (left and right Perron vectors), with a restore step onto rho = 1 and
  multistart from random positive directions.

``solve_allocation`` takes the Gram route whenever the problem has a factor.
Every result is re-certified on the full infection block; an unsatisfied
certificate raises ``SolverError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph

from .model import (ContactStructure, DiseaseParams, EpidemicState,
                    NetworkInstance, StabilityCertificate, build_flow_matrix,
                    cell_b1, check_decay_certificate, coupling_gram_factor,
                    max_certificate_rate)


class InfeasibleAllocationError(RuntimeError):
    """No allocation in the box certifies the requested decay rate."""


class SolverError(RuntimeError):
    """The solver failed to converge or to certify its answer; distinct from
    provable infeasibility."""


class NotPositiveDefiniteError(ValueError):
    """Coupling matrix has no Gram factor; use the bilinear path."""


@dataclass
class SolverStats:
    iterations: int = 0
    cuts: int = 0
    spectral_radius: float = np.nan
    gap: float = 0.0
    restarts: int = 0
    converged: bool = True
    method: str = ""
    lp_calls: int = 0


@dataclass
class CutPool:
    """Kelley cut rows for one factor F, and the LP calls made on them. A row
    (F z)^2, |z| = 1, stays valid whatever the box and weights."""

    rows: list = field(default_factory=list)
    lp_calls: int = 0


@dataclass
class AllocationProblem:
    """Stabilizing-allocation data in reduced form.

    coupling is the mobility Gram matrix Abar, or Abar (x) Gamma with the
    intrinsic connectivity; factor is F with F F' = coupling, or None when
    Gamma has no Cholesky factor (the bilinear route). b1 collapses the
    infection chain at the target decay rate. The Gram route solves for
    u = b1 (s0 - psi v) / s0 in the box [(1 - psi) b1, b1] on the factor
    diag(sqrt(s0 N)) F, which does not depend on alpha.
    """

    coupling: np.ndarray
    b1: np.ndarray
    s0: np.ndarray
    populations: np.ndarray
    psi: float
    alpha: float
    factor: Optional[np.ndarray] = None
    state: Optional[EpidemicState] = None
    net: Optional[NetworkInstance] = None
    params: Optional[DiseaseParams] = None
    contacts: Optional[ContactStructure] = None

    def __post_init__(self):
        self.coupling = np.asarray(self.coupling, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.s0 = np.asarray(self.s0, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        if np.any(self.b1 <= 0):
            raise ValueError("b1 must be positive (no transmission path?)")
        if self.psi <= 0:
            raise ValueError("a zero-efficacy vaccine cannot stabilize anything")

    def box_upper(self) -> np.ndarray:
        return self.s0 * self.populations * self.b1

    def at_rate(self, alpha: float) -> "AllocationProblem":
        """The same problem at another decay rate."""
        return replace(self, alpha=alpha,
                       b1=cell_b1(self.params, self.net.n, alpha))


@dataclass
class AllocationResult:
    v: np.ndarray
    u: np.ndarray
    doses: float
    dose_vector: np.ndarray
    certificate: StabilityCertificate
    stats: SolverStats
    alpha: float
    direction: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# LMI engine
# ---------------------------------------------------------------------------

def lmi_box_maximize(factor: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                     weights: np.ndarray, *, pool: Optional[CutPool] = None,
                     max_shortfall: Optional[float] = None,
                     gap_tol: float = 1e-8, max_iter: int = 5000,
                     ) -> tuple[np.ndarray, SolverStats]:
    """Maximize weights'u subject to lambda_max(factor' diag(u) factor) <= 1
    (diag(u) <= (factor factor')^{-1}, uninverted) and lower <= u <= upper.

    Returns the best feasible point once within gap_tol (relative) of the LP
    bound. pool lends cuts from earlier calls on the same factor and keeps
    the new ones. Given max_shortfall, returns the first feasible point with
    weights'(upper - u) <= max_shortfall, and raises InfeasibleAllocationError
    once the LP bound rules one out, as it does for an infeasible lower corner.
    """
    factor = np.asarray(factor, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    weights = np.asarray(weights, dtype=float)
    pool = CutPool() if pool is None else pool
    top = factor.shape[1] - 1

    def top_eig(u: np.ndarray) -> tuple[float, np.ndarray]:
        vals, vecs = scipy.linalg.eigh(factor.T @ (u[:, None] * factor),
                                       subset_by_index=[top, top])
        return float(vals[0]), factor @ vecs[:, 0]

    lam_lo, _ = top_eig(lower)
    if lam_lo > 1.0 + 1e-9:
        raise InfeasibleAllocationError(
            "even the maximal allocation violates the matrix constraint; "
            "the requested decay rate is unachievable")

    objective = -weights / max(1.0, float(np.abs(weights).max()))
    bounds = np.column_stack([lower, upper])
    lp_options = {"primal_feasibility_tolerance": 1e-9,
                  "dual_feasibility_tolerance": 1e-9}
    best, best_obj = lower, float(weights @ lower)
    cuts_before, lp_before = len(pool.rows), pool.lp_calls
    gap = np.inf
    for iteration in range(1, max_iter + 1):
        if pool.rows:
            rows = np.array(pool.rows)
            # the feasible lower corner stays inside every cut
            res = scipy.optimize.linprog(
                objective, A_ub=rows, b_ub=np.maximum(1.0, rows @ lower),
                bounds=bounds, method="highs", options=lp_options)
            pool.lp_calls += 1
            if not res.success:
                raise SolverError(f"inner linear program failed: {res.message}")
            u = res.x
        else:  # the LP without cuts is solved by the upper corner
            u = upper.copy()
        bound_obj = float(weights @ u)
        lam, fz = top_eig(u)
        point = u if lam <= 1.0 else \
            u + min(1.0, (lam - 1.0) / max(lam - lam_lo, 1e-300)) * (lower - u)
        if float(weights @ point) > best_obj:
            best, best_obj = point, float(weights @ point)
        gap = (bound_obj - best_obj) / max(abs(bound_obj), 1e-300)
        if max_shortfall is not None:
            if weights @ (upper - u) > max_shortfall:
                raise InfeasibleAllocationError(
                    "the LP bound already exceeds the allowed shortfall")
            if weights @ (upper - best) <= max_shortfall:
                break
        if gap <= gap_tol:
            break
        pool.rows.append(fz * fz)
    else:
        raise SolverError(
            f"cutting-plane loop did not converge in {max_iter} iterations")
    if max_shortfall is not None and weights @ (upper - best) > max_shortfall:
        raise InfeasibleAllocationError("no feasible point within the shortfall")
    return best, SolverStats(iterations=iteration,
                             cuts=len(pool.rows) - cuts_before,
                             gap=max(gap, 0.0),
                             converged=True, method="lmi-cutting-plane",
                             lp_calls=pool.lp_calls - lp_before)


# ---------------------------------------------------------------------------
# bilinear engine
# ---------------------------------------------------------------------------

def _perron(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius and (nonnegative, sum-1) Perron vector."""
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    rho = float(vals[k].real)
    d = np.abs(vecs[:, k].real)
    total = d.sum()
    d = d / total if total > 0 else np.full(mat.shape[0], 1.0 / mat.shape[0])
    return max(rho, 0.0), d


def spectral_box_minimize(K: np.ndarray, p0: np.ndarray, p1: np.ndarray,
                          weights: np.ndarray, vmax: np.ndarray, *,
                          max_iter: int = 500, tol: float = 1e-8,
                          restarts: int = 3, seed: int = 0,
                          ) -> tuple[np.ndarray, np.ndarray, SolverStats]:
    """Minimize weights'v subject to rho(diag(p0 - p1*v) K) <= 1 over the box.

    Returns (v, d, stats) where d is the Perron direction certifying
    (diag(p0 - p1 v) K) d <= d at the solution.
    """
    K = np.asarray(K, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    weights = np.asarray(weights, dtype=float)
    vmax = np.asarray(vmax, dtype=float)
    m = K.shape[0]
    if np.any(K < 0):
        warnings.warn("coupling matrix has negative entries; Perron certificates "
                      "may be invalid", stacklevel=2)
    n_comp, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(K > 0), connection="strong")
    if n_comp > 1:
        warnings.warn("coupling matrix is reducible; the bilinear scheme may "
                      "return a conservative allocation", stacklevel=2)

    def radius(v: np.ndarray) -> float:
        return _perron((p0 - p1 * v)[:, None] * K)[0]

    rho0, d0 = _perron(p0[:, None] * K)
    if rho0 <= 1.0 + 1e-12:
        return (np.zeros(m), d0,
                SolverStats(iterations=0, spectral_radius=rho0, converged=True,
                            method="bilinear-slp"))
    if radius(vmax) > 1.0 + 1e-9:
        raise InfeasibleAllocationError(
            "even the maximal allocation leaves the system unstable")

    def restore(v: np.ndarray) -> np.ndarray:
        """Scale the diagonal onto the rho = 1 surface (never decreases v)."""
        for _ in range(60):
            rho = radius(v)
            if rho <= 1.0 + 1e-13:
                return v
            v = np.minimum((p0 - (p0 - p1 * v) / rho) / p1, vmax)
        return v

    def direction_step(d: np.ndarray) -> Optional[np.ndarray]:
        """Min-dose v satisfying (diag(p0 - p1 v) K) d <= d for this d."""
        kd = K @ d
        needed = np.zeros(m)
        pos = kd > 0
        needed[pos] = (p0[pos] - d[pos] / kd[pos]) / p1[pos]
        if np.any(needed > vmax + 1e-12):
            return None
        return np.clip(needed, 0.0, vmax)

    rng = np.random.default_rng(seed)
    tiny = 1e-14
    lp_calls = [0]

    def slp(v_start: np.ndarray) -> tuple[np.ndarray, int, bool]:
        v = restore(np.clip(v_start, 0.0, vmax))
        doses = float(weights @ v)
        trust = max(float(vmax.max()), 1e-6) * 0.5
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            P = (p0 - p1 * v)[:, None] * K
            rho, d = _perron(P)
            _, w = _perron(P.T)
            denom = float(w @ d)
            if denom < tiny:
                break
            grad = -p1 * w * (K @ d) / denom
            lo = np.maximum(0.0, v - trust)
            hi = np.minimum(vmax, v + trust)
            res = scipy.optimize.linprog(
                weights, A_ub=grad[None, :],
                b_ub=np.array([1.0 - rho + float(grad @ v)]),
                bounds=list(zip(lo, hi)), method="highs")
            lp_calls[0] += 1
            if not res.success:
                break
            v_new = restore(np.clip(res.x, 0.0, vmax))
            doses_new = float(weights @ v_new)
            if doses_new < doses - tol * max(1.0, abs(doses)):
                v, doses = v_new, doses_new
                trust = min(trust * 1.5, float(vmax.max()))
            else:
                trust *= 0.5
                if trust < 1e-12 * max(1.0, float(vmax.max())):
                    converged = True
                    break
        return v, it, converged

    # jumpstart from the Perron direction of the unvaccinated system,
    # then random positive directions
    starts: list[np.ndarray] = []
    v0 = direction_step(d0)
    starts.append(v0 if v0 is not None else vmax.copy())
    for _ in range(restarts):
        d_rand = rng.dirichlet(np.ones(m))
        v_r = direction_step(d_rand)
        if v_r is not None:
            starts.append(v_r)

    best_v = None
    best_doses = np.inf
    total_iters = 0
    any_converged = False
    for v_start in starts:
        v_cand, iters, conv = slp(v_start)
        total_iters += iters
        any_converged = any_converged or conv
        doses_cand = float(weights @ v_cand)
        if radius(v_cand) <= 1.0 + 1e-9 and doses_cand < best_doses:
            best_v, best_doses = v_cand, doses_cand
    if best_v is None:
        raise SolverError("bilinear scheme found no feasible iterate")
    rho_final, d_final = _perron((p0 - p1 * best_v)[:, None] * K)
    stats = SolverStats(iterations=total_iters, spectral_radius=rho_final,
                        restarts=len(starts) - 1, converged=any_converged,
                        method="bilinear-slp", lp_calls=lp_calls[0])
    return best_v, d_final, stats


# ---------------------------------------------------------------------------
# problem assembly and model-facing solvers
# ---------------------------------------------------------------------------

def build_problem(state: EpidemicState, net: NetworkInstance,
                  params: DiseaseParams,
                  contacts: Optional[ContactStructure],
                  alpha: float) -> AllocationProblem:
    """Assemble the reduced allocation problem at decay rate alpha from the
    current susceptible profile."""
    coupling = build_flow_matrix(net)[1]
    age_contacts = contacts if params.is_demographic else None
    if age_contacts is not None:
        coupling = np.kron(coupling, age_contacts.gamma)
    return AllocationProblem(coupling=coupling,
                             factor=coupling_gram_factor(net, age_contacts),
                             b1=cell_b1(params, net.n, alpha),
                             s0=state.s.copy(),
                             populations=net.cell_populations().copy(),
                             psi=params.psi, alpha=alpha, state=state, net=net,
                             params=params, contacts=contacts)


def _finish(prob: AllocationProblem, v: np.ndarray, stats: SolverStats,
            direction: Optional[np.ndarray] = None) -> AllocationResult:
    """Certify v on the full infection block; raise SolverError if it fails."""
    v = np.clip(v, 0.0, prob.s0)
    cert = check_decay_certificate(prob.state, prob.net, prob.params,
                                   prob.contacts, v, prob.alpha)
    if not cert.satisfied:
        raise SolverError(
            f"{stats.method} allocation fails its certificate at alpha="
            f"{prob.alpha:.6g}: lambda_max={cert.lambda_max:.6g}, "
            f"rho={cert.spectral_radius:.9f}")
    u = prob.populations * prob.b1 * (prob.s0 - prob.psi * v)
    dose_vec = prob.populations * v
    return AllocationResult(v=v, u=u, doses=float(dose_vec.sum()),
                            dose_vector=dose_vec, certificate=cert,
                            stats=stats, alpha=prob.alpha, direction=direction)


def _gram_solve(prob: AllocationProblem, pool: Optional[CutPool] = None,
                max_doses: Optional[float] = None,
                ) -> tuple[np.ndarray, SolverStats]:
    """Minimum-dose v on the Gram route, or with max_doses the first v found
    within it (see lmi_box_maximize)."""
    if prob.factor is None:
        raise NotPositiveDefiniteError(
            "coupling matrix has no Gram factor; use solve_bilinear")
    mass = prob.s0 * prob.populations
    u, stats = lmi_box_maximize(
        np.sqrt(mass)[:, None] * prob.factor, (1 - prob.psi) * prob.b1,
        prob.b1, mass / prob.b1, pool=pool,
        max_shortfall=None if max_doses is None else prob.psi * max_doses)
    return prob.s0 * (1 - u / prob.b1) / prob.psi, stats


def solve_diagonal_lmi(prob: AllocationProblem,
                       pool: Optional[CutPool] = None) -> AllocationResult:
    """Gram route: the diagonal LMI on the coupling's factor."""
    return _finish(prob, *_gram_solve(prob, pool))


def solve_bilinear(prob: AllocationProblem, seed: int = 0) -> AllocationResult:
    """Perron-direction route; works for indefinite coupling matrices."""
    flow = prob.coupling * prob.populations[None, :]
    p0 = prob.b1 * prob.s0
    p1 = prob.psi * prob.b1
    v, d, stats = spectral_box_minimize(flow, p0, p1, prob.populations,
                                        prob.s0, seed=seed)
    return _finish(prob, v, stats, direction=d)


def solve_allocation(prob: AllocationProblem,
                     pool: Optional[CutPool] = None) -> AllocationResult:
    """Route by structure: the Gram route when the coupling has a factor,
    otherwise the bilinear path."""
    if prob.factor is not None:
        return solve_diagonal_lmi(prob, pool)
    return solve_bilinear(prob)


def bisect_rate(attempt: Callable[[float], object], lo: float, hi: float,
                width: float) -> tuple[float, object]:
    """Largest rate in [lo, hi], to width, at which attempt(rate) returns a
    candidate rather than None; returns (rate, candidate)."""
    best = attempt(lo)
    if best is None:
        raise InfeasibleAllocationError(
            f"budget insufficient even at the bracket low end alpha={lo}")
    top = attempt(hi)
    if top is not None:
        return hi, top
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        candidate = attempt(mid)
        if candidate is not None:
            lo, best = mid, candidate
        else:
            hi = mid
    return lo, best


def max_decay_binary_search(state: EpidemicState, net: NetworkInstance,
                            params: DiseaseParams,
                            contacts: Optional[ContactStructure],
                            budget: float,
                            alpha_range: Optional[tuple[float, float]] = None,
                            width: float = 1e-5,
                            ) -> tuple[float, AllocationResult]:
    """Largest decay rate whose minimum dose requirement fits the budget.

    Bisects alpha. On the Gram route the probes share one cut pool and stop
    as soon as the LP bound exceeds the budget or a feasible point fits it;
    the returned rate alone is solved to the gap, with the cuts and LP calls
    of the whole search in its stats. Bilinear probes are full solves.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if alpha_range is None:
        alpha_range = (-2.0, max_certificate_rate(params) - 1e-4)
    lo, hi = alpha_range
    cap = budget + 1e-9 * (1.0 + budget)
    base = build_problem(state, net, params, contacts, lo)

    if base.factor is None:
        def attempt(alpha: float) -> Optional[AllocationResult]:
            try:
                result = solve_allocation(base.at_rate(alpha))
            except InfeasibleAllocationError:
                return None
            return result if result.doses <= cap else None

        return bisect_rate(attempt, lo, hi, width)

    pool = CutPool()

    def probe(alpha: float) -> Optional[np.ndarray]:
        try:
            return _gram_solve(base.at_rate(alpha), pool, cap)[0]
        except InfeasibleAllocationError:
            return None

    alpha, v_fit = bisect_rate(probe, lo, hi, width)
    prob = base.at_rate(alpha)
    result = solve_allocation(prob, pool)
    if result.doses > cap:
        # the optimum is found to a relative gap; the probe's point fits
        result = _finish(prob, v_fit, result.stats)
    result.stats.cuts, result.stats.lp_calls = len(pool.rows), pool.lp_calls
    return alpha, result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def problem_to_dict(prob: AllocationProblem) -> dict:
    return {
        "coupling": prob.coupling.tolist(),
        "b1": prob.b1.tolist(),
        "s0": prob.s0.tolist(),
        "populations": prob.populations.tolist(),
        "psi": prob.psi,
        "alpha": prob.alpha,
    }


def result_to_dict(result: AllocationResult) -> dict:
    doc = {
        "v": result.v.tolist(),
        "u": result.u.tolist(),
        "doses": result.doses,
        "dose_vector": result.dose_vector.tolist(),
        "alpha": result.alpha,
        "certificate": {
            "alpha": result.certificate.alpha,
            "lambda_max": result.certificate.lambda_max,
            "spectral_radius": result.certificate.spectral_radius,
            "satisfied": result.certificate.satisfied,
            "margin": -result.alpha - result.certificate.lambda_max,
        },
        "solver": {
            "method": result.stats.method,
            "iterations": result.stats.iterations,
            "cuts": result.stats.cuts,
            "gap": result.stats.gap,
            "converged": result.stats.converged,
            "lp_calls": result.stats.lp_calls,
        },
    }
    if result.direction is not None:
        doc["direction"] = result.direction.tolist()
    return doc
