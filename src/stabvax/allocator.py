"""Optimal stabilizing allocation solvers, shared by every model.

Each model states an ``AllocationProblem``: allocation 0 <= v <= vmax, which
costs weights'v doses, certifies decay at rate alpha when
rho(diag(b1 (s0 - q v)) K) <= 1, b1 = b1_at(alpha) >= 0. The problem holds
data alone and every solve takes alpha as an argument, so one problem serves
every rate; a cell with b1 = 0 transmits nothing and gets v = 0. With an
alpha-free Gram kernel B = F F' (`model.GramKernel`) and scale such that
rho(diag(p) K) = lambda_max(F' diag(scale p) F), the condition on u = b1 (s0
- q v) / s0 is the diagonal LMI lambda_max(F' diag(mass u) F) <= 1, mass =
scale s0.

* ``lmi_box_maximize`` solves  max w'u  s.t.  lambda_max(F' diag(mass u) F)
  <= 1, l <= u <= h  by Kelley cuts: `model._top_eig` at the LP point gives
  lambda_max and the valid cut sum_i mass_i (F z)_i^2 u_i <= 1. As
  lambda_max is convex, the point at s = (lambda - 1) / (lambda - lambda_lo)
  on the segment from the LP point to the feasible lower corner is feasible,
  which bounds the gap in closed form. Cuts depend on B and mass alone, so
  one ``CutPool`` serves all probes of an alpha bisection, and a probe stops
  once it settles the budget question. A probe's eigensolves stop too once
  their bracket decides lambda <= 1; the segment and the cuts stay valid on
  that upper bound. The pool also keeps the last LP basis and top
  eigenvector, which start the next LP (each LP is one row, box or
  objective away from the one before) and eigensolve.

* ``spectral_box_minimize`` serves problems without a kernel (an indefinite
  or asymmetric contact structure):
  min c'v  s.t.  rho(diag(p0 - p1*v) K) <= 1,  0 <= v <= vmax
  by sequential linear programming on the exact spectral-radius gradient
  (left and right Perron vectors), run once from the least allocation the
  unvaccinated system's Perron direction certifies. Each step's one-row LP
  is solved exactly in closed form, as a fractional knapsack, and restored
  onto rho = 1 by a bracketed root along the path max(t c, c_min) of its
  diagonal c (no eigen-solve where nothing clips); the run stops once the
  step LP's value shows that no later step can be accepted.

``solve_allocation`` takes the Gram route whenever the problem has a kernel.
``max_decay`` finds the largest alpha a budget buys. When b1 is one scalar
(the homogeneous covid model, the SEIR model), rho(diag(b1 (s0 - q v))
K) = b1(alpha) r(v) with r(v) = rho(diag(s0 - q v) K), so the search is
direct: minimize r under the budget once (Kelley cuts on the epigraph of
lambda_max on the Gram route, the SLP on the Perron gradient otherwise), then
take alpha as the root of b1(alpha) r* = 1 in the closed form the model
states (``rate_at_radius``). Per-cell b1 (the age-structured model) bisects
alpha. Every result is re-certified by the model's certify(v, alpha); an
unsatisfied certificate raises ``SolverError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _lp
from .model import (ContactStructure, DiseaseParams, EpidemicState,
                    GramKernel, InfeasibleAllocationError, NetworkInstance,
                    SolverError, StabilityCertificate, _top_block_root,
                    _top_eig, cell_b1, check_decay_certificate, compute_b1,
                    coupling_gram_kernel, flow_for_model, max_certificate_rate)


@dataclass
class SolverStats:
    """What one solve did. `max_decay` gives its answer the final solve's
    stats by one rule: search is "direct" or "bisection"; cuts and lp_calls
    are the cut pool's totals on the Gram route and the sum over every solve
    on the bilinear route; iterations are the search's own (the min-radius
    solve or the bilinear probes) plus the final solve's. A "bilinear-slp"
    run converged when no later step could be accepted: the trust region
    fell below its floor, or a bound ruled every later step out (the step
    LP's value at fixed alpha, Collatz-Wielandt in the min-radius solve)."""

    iterations: int = 0
    cuts: int = 0
    gap: float = 0.0
    converged: bool = True
    method: str = ""
    lp_calls: int = 0
    search: str = ""


@dataclass
class CutPool:
    """Kelley cut rows for one kernel and mass, the LP calls made on them,
    and the last LP basis and top eigenvector, which warm-start the next. A
    row mass (F z)^2, |z| = 1, stays valid whatever the box and weights."""

    rows: list = field(default_factory=list)
    lp_calls: int = 0
    basis: Optional[_lp.Basis] = None
    vector: Optional[np.ndarray] = None


@dataclass(frozen=True)
class AllocationProblem:
    """One model's stabilizing-allocation problem at no decay rate (see the
    module docstring); b1_at(alpha) is b1 per cell, or one scalar for all.

    kernel is None when the flow has no Gram form (the bilinear route). Only
    the bilinear route reads the dense flow; None stands for B diag(scale),
    the covid model's flow, which `build_problem` leaves out on the Gram
    route.

    rate_at_radius(r) is the closed-form root alpha < max_rate of b1(alpha) r
    = 1 when b1 is one scalar, for `max_decay`'s direct search; else None.
    """

    flow: Optional[np.ndarray]
    kernel: Optional[GramKernel]
    scale: np.ndarray
    s0: np.ndarray
    q: np.ndarray
    vmax: np.ndarray
    weights: np.ndarray
    max_rate: float
    b1_at: Callable[[float], float | np.ndarray]
    certify: Callable[[np.ndarray, float], StabilityCertificate]
    rate_at_radius: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if np.any(self.q < 0):
            raise ValueError("q must be nonnegative")

    def b1_per_cell(self, alpha: float) -> np.ndarray:
        """b1 at decay rate alpha, one entry per cell."""
        return np.broadcast_to(self.b1_at(alpha), self.s0.shape)


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

# Kelley loops stop within a relative gap of their LP bound: LMI_GAP_TOL in
# lmi_box_maximize, RADIUS_GAP_TOL in _gram_min_radius
LMI_GAP_TOL = 1e-8
RADIUS_GAP_TOL = 1e-9
KELLEY_MAX_ITER = 5000
# an SLP step must lower the doses (spectral_box_minimize) or the radius
# (_slp_min_radius) by SLP_TOL relative
SLP_MAX_ITER = 500
SLP_TOL = 1e-8
# width to which max_decay bisects alpha
RATE_WIDTH = 1e-5


def lmi_box_maximize(kernel: GramKernel, lower: np.ndarray, upper: np.ndarray,
                     weights: np.ndarray, mass: np.ndarray, *,
                     pool: Optional[CutPool] = None,
                     max_shortfall: Optional[float] = None,
                     ) -> tuple[np.ndarray, SolverStats]:
    """Maximize weights'u subject to lambda_max(F' diag(mass u) F) <= 1 for
    the kernel F F' and lower <= u <= upper.

    Returns the best feasible point once within LMI_GAP_TOL (relative) of
    the LP bound. pool lends cuts from earlier calls on the same kernel and
    mass and keeps the new ones. Given max_shortfall, returns the first
    feasible point with weights'(upper - u) <= max_shortfall, and raises
    InfeasibleAllocationError once the LP bound rules one out, as it does for
    an infeasible lower corner. Such a probe settles each eigensolve
    (`model._top_eig`) against the threshold it tests, 1 + 1e-9 at the
    lower corner and 1 at the LP point: lambda is then an upper bound, which
    keeps the segment point feasible by convexity, and above 1 the cut still
    separates the LP point. Without max_shortfall, the cells an infeasible
    LP point holds at upper, which the segment toward lower moves by about
    1e-9, stay there when a segment that keeps them is feasible and no worse.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    weights = np.asarray(weights, dtype=float)
    pool = CutPool() if pool is None else pool
    probe = max_shortfall is not None
    lam_lo, _, pool.vector = _top_eig(kernel, mass * lower, pool.vector,
                                      settle=1.0 + 1e-9 if probe else None)
    if lam_lo > 1.0 + 1e-9:
        raise InfeasibleAllocationError(
            "even the maximal allocation violates the matrix constraint; "
            "the requested decay rate is unachievable")

    objective = -weights / max(1.0, float(np.abs(weights).max()))
    best, best_lp, best_lam = lower, lower, lam_lo
    cuts_before, lp_before = len(pool.rows), pool.lp_calls
    gap = np.inf
    for iteration in range(1, KELLEY_MAX_ITER + 1):
        if pool.rows:
            rows = np.array(pool.rows)
            # the feasible lower corner stays inside every cut
            u, pool.basis = _lp.solve(objective, rows,
                                      np.maximum(1.0, rows @ lower), lower,
                                      upper, pool.basis)
            pool.lp_calls += 1
        else:  # the LP without cuts is solved by the upper corner
            u = upper.copy()
        bound_obj = float(weights @ u)
        lam, fz, pool.vector = _top_eig(kernel, mass * u, pool.vector,
                                        settle=1.0 if probe else None)
        point = u if lam <= 1.0 else \
            u + min(1.0, (lam - 1.0) / max(lam - lam_lo, 1e-300)) * (lower - u)
        if weights @ point > weights @ best:
            best, best_lp, best_lam = point, u, lam
        gap = (bound_obj - float(weights @ best)) / max(abs(bound_obj), 1e-300)
        if probe:
            if weights @ (upper - u) > max_shortfall:
                raise InfeasibleAllocationError(
                    "the LP bound already exceeds the allowed shortfall")
            if weights @ (upper - best) <= max_shortfall:
                break
        if gap <= LMI_GAP_TOL:
            break
        pool.rows.append(mass * fz * fz)
    else:
        raise SolverError(
            f"cutting-plane loop did not converge in {KELLEY_MAX_ITER} "
            "iterations")
    if not probe and best_lam > 1.0:
        # the same segment to the corner that keeps those cells at upper
        corner = np.where(best_lp == upper, upper, lower)
        lam_c, _, pool.vector = _top_eig(kernel, mass * corner, pool.vector)
        point = best_lp + (best_lam - 1.0) / (best_lam - min(lam_c, 1.0)) * (
            corner - best_lp)
        if lam_c < 1.0 and weights @ point >= weights @ best:
            best = point
    if probe and weights @ (upper - best) > max_shortfall:
        raise InfeasibleAllocationError("no feasible point within the shortfall")
    return best, SolverStats(iterations=iteration,
                             cuts=len(pool.rows) - cuts_before,
                             gap=max(gap, 0.0),
                             converged=True, method="lmi-cutting-plane",
                             lp_calls=pool.lp_calls - lp_before)


# ---------------------------------------------------------------------------
# bilinear engine
# ---------------------------------------------------------------------------

def _unit(vec: np.ndarray) -> np.ndarray:
    """A Perron vector made nonnegative with sum 1."""
    d = np.abs(vec.real)
    total = d.sum()
    return d / total if total > 0 else np.full(d.size, 1.0 / d.size)


def _perron(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius and (nonnegative, sum-1) Perron vector."""
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    return max(float(vals[k].real), 0.0), _unit(vecs[:, k])


def _perron_pair(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Spectral radius with the right and left Perron vectors, from the
    eigen-decompositions of mat and mat'."""
    rho, right = _perron(mat)
    return rho, right, _perron(mat.T)[1]


def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether the digraph with an edge i -> j wherever adj[i, j] is strongly
    connected: a forward and a backward reachability sweep from node 0 both
    reach every node."""
    for graph in (adj, adj.T):
        seen = np.arange(graph.shape[0]) == 0
        frontier = seen
        while frontier.any():
            frontier = graph[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            return False
    return True


def _knapsack(cost: np.ndarray, gain: np.ndarray, need: float,
              lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
    """Exact argmin of cost'x s.t. gain'x >= need, lo <= x <= hi, cost >= 0,
    by the fractional-knapsack greedy (Dantzig 1957); None if infeasible."""
    x = lo.copy()
    short = need - float(gain @ lo)
    if short <= 0:
        return x
    useful = np.flatnonzero(gain > 0)
    order = useful[np.argsort(cost[useful] / gain[useful], kind="stable")]
    filled = np.cumsum(gain[order] * (hi[order] - lo[order]))
    k = int(np.searchsorted(filled, short))
    if k == order.size:
        return None
    x[order[:k + 1]] = hi[order[:k + 1]]
    j = order[k]
    x[j] = max(lo[j], hi[j] - (filled[k] - short) / gain[j])
    return x


def spectral_box_minimize(K: np.ndarray, p0: np.ndarray, p1: np.ndarray,
                          weights: np.ndarray, vmax: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray, SolverStats]:
    """Minimize weights'v subject to rho(diag(p0 - p1*v) K) <= 1 over the box.

    One SLP run starts from the least v with (diag(p0 - p1 v) K) d0 <= d0
    for the Perron direction d0 of diag(p0) K, or from vmax when the box
    holds no such v. Each step solves its one-row LP exactly by `_knapsack`;
    lp_calls counts the steps. The run stops, converged, once the LP's value
    alone misses the SLP_TOL decrease a step needs: while v stays the trust
    boxes nest, so that value only rises, and restore only adds doses.
    Returns (v, d, stats) where d is the Perron direction certifying
    (diag(p0 - p1 v) K) d <= d at the solution. A cell with p1 = 0, which
    doses do not move, has the box [0, 0].
    """
    K = np.asarray(K, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    weights = np.asarray(weights, dtype=float)
    vmax = np.where(p1 > 0, np.asarray(vmax, dtype=float), 0.0)
    m = K.shape[0]

    def radius(c: np.ndarray) -> float:  # rho(diag(c) K)
        return max(float(np.linalg.eigvals(c[:, None] * K).real.max()), 0.0)

    rho0, d0 = _perron(p0[:, None] * K)
    if rho0 <= 1.0 + 1e-12:
        return (np.zeros(m), d0,
                SolverStats(iterations=0, converged=True, method="bilinear-slp"))
    if np.any(K < 0):
        warnings.warn("coupling matrix has negative entries; Perron certificates "
                      "may be invalid", stacklevel=2)
    if not _strongly_connected(K > 0):
        warnings.warn("coupling matrix is reducible; the bilinear scheme may "
                      "return a conservative allocation", stacklevel=2)
    c_min = p0 - p1 * vmax
    rho_max = radius(c_min)
    if rho_max > 1.0 + 1e-9:
        raise InfeasibleAllocationError(
            "even the maximal allocation leaves the system unstable")

    def restore(v: np.ndarray) -> tuple[np.ndarray, float]:
        """The largest t <= 1 on the path max(t c, c_min), c = p0 - p1 v,
        with rho <= 1, as (v, rho). rho rises with t from rho_max at t = 0:
        the plain step t = 1/rho, then Illinois regula falsi on the bracket,
        until rho is in [1 - 1e-12, 1 + 1e-13]; unclipped, rho = t rho(c)."""
        c = p0 - p1 * v
        rho = radius(c)
        if rho <= 1.0 + 1e-13:
            return v, rho
        best = vmax, rho_max
        if rho_max > 1.0:  # no root: only vmax is within the entry slack
            return best
        ends, last, t = [[0.0, rho_max - 1.0], [1.0, rho - 1.0]], None, 1 / rho
        for _ in range(60):
            ct = np.maximum(t * c, c_min)
            f = t * rho if np.all(t * c >= c_min) else radius(ct)
            if f <= 1.0 + 1e-13:
                best = np.minimum(np.divide(p0 - ct, p1, out=np.zeros(m),
                                            where=p1 > 0), vmax), f
                if f >= 1.0 - 1e-12:
                    break
            side = int(f > 1.0)
            ends[side] = [t, f - 1.0]
            if side == last:  # Illinois: halve the residual of the kept end
                ends[1 - side][1] *= 0.5
            (lo, g_lo), (hi, g_hi) = ends
            last = side
            t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
        return best

    # the start: the min-dose v with (diag(p0 - p1 v) K) d0 <= d0
    kd = K @ d0
    v = np.zeros(m)
    pos = (kd > 0) & (p1 > 0)
    v[pos] = (p0[pos] - d0[pos] / kd[pos]) / p1[pos]
    v, rho = restore(vmax.copy() if np.any(v > vmax + 1e-12)
                     else np.clip(v, 0.0, vmax))
    doses = float(weights @ v)
    trust = max(float(vmax.max()), 1e-6) * 0.5
    converged = False
    grad = None  # the Perron gradient at v, kept while v stays
    it = lp_calls = 0
    for it in range(1, SLP_MAX_ITER + 1):
        if grad is None:
            _, d, w = _perron_pair((p0 - p1 * v)[:, None] * K)
            denom = float(w @ d)
            if denom < 1e-14:
                break
            grad = -p1 * w * (K @ d) / denom
        lo = np.maximum(0.0, v - trust)
        hi = np.minimum(vmax, v + trust)
        # the step LP: min weights'x  s.t.  grad'x <= 1 - rho + grad'v
        step = _knapsack(weights, -grad, rho - 1.0 - float(grad @ v), lo, hi)
        lp_calls += 1
        if step is None:
            break
        target = doses - SLP_TOL * max(1.0, abs(doses))
        if weights @ step >= target:  # no later step can be accepted
            converged = True
            break
        v_new, rho_new = restore(step)
        doses_new = float(weights @ v_new)
        if doses_new < target:
            v, rho, doses, grad = v_new, rho_new, doses_new, None
            trust = min(trust * 1.5, float(vmax.max()))
        else:
            trust *= 0.5
            if trust < 1e-12 * max(1.0, float(vmax.max())):
                converged = True
                break
    if not rho <= 1.0 + 1e-9:
        raise SolverError("bilinear scheme found no feasible iterate")
    stats = SolverStats(iterations=it, converged=converged,
                        method="bilinear-slp", lp_calls=lp_calls)
    if grad is None:  # v moved since its last Perron pair
        d = _perron((p0 - p1 * v)[:, None] * K)[1]
    return v, d, stats


# ---------------------------------------------------------------------------
# problem assembly and model-facing solvers
# ---------------------------------------------------------------------------

def build_problem(state: EpidemicState, net: NetworkInstance,
                  params: DiseaseParams,
                  contacts: Optional[ContactStructure]) -> AllocationProblem:
    """The covid model's problem from the current susceptible profile: v is
    the vaccinated fraction of each cell, and the
    flow A = Abar diag(N) (or (Abar (x) Gamma) diag(N)) has the Gram kernel
    Abar (or Abar (x) Gamma) with scale N."""
    populations = net.cell_populations().copy()
    kernel = coupling_gram_kernel(net, params, contacts)
    return AllocationProblem(
        flow=flow_for_model(net, params, contacts) if kernel is None else None,
        kernel=kernel, scale=populations,
        s0=state.s.copy(), q=np.full(populations.shape, params.psi),
        vmax=state.s.copy(), weights=populations,
        max_rate=max_certificate_rate(params),
        b1_at=((lambda rate: cell_b1(params, net.n, rate))
               if params.is_demographic else
               (lambda rate: compute_b1(params, rate))),
        certify=lambda v, rate: check_decay_certificate(
            state, net, params, contacts, v, rate),
        # b1(alpha) r = 1 where -alpha is the top eigenvalue of the 2 x 2 block
        rate_at_radius=(None if params.is_demographic else
                        (lambda radius: -_top_block_root(params, radius))))


def _finish(prob: AllocationProblem, alpha: float, v: np.ndarray,
            stats: SolverStats, direction: Optional[np.ndarray] = None,
            ) -> AllocationResult:
    """Certify v at alpha through the model; raise SolverError if it fails."""
    v = np.clip(v, 0.0, prob.vmax)
    cert = prob.certify(v, alpha)
    if not cert.satisfied:
        raise SolverError(
            f"{stats.method} allocation fails its certificate at alpha="
            f"{alpha:.6g}: lambda_max={cert.lambda_max:.6g}, "
            f"rho={cert.spectral_radius:.9f}")
    u = prob.scale * prob.b1_per_cell(alpha) * (prob.s0 - prob.q * v)
    dose_vec = prob.weights * v
    return AllocationResult(v=v, u=u, doses=float(dose_vec.sum()),
                            dose_vector=dose_vec, certificate=cert,
                            stats=stats, alpha=alpha, direction=direction)


def _gram_solve(prob: AllocationProblem, alpha: float,
                pool: Optional[CutPool] = None,
                max_doses: Optional[float] = None,
                ) -> tuple[np.ndarray, SolverStats]:
    """Minimum-dose v at alpha on the Gram route, or with max_doses the first
    v found within it (see lmi_box_maximize). The LMI variable u = b1 (s0 -
    q v) / s0 keeps its mass scale s0 free of alpha, and its objective
    weights make the shortfall from the box top equal the doses."""
    b1, q = prob.b1_per_cell(alpha), prob.q
    # a cell without susceptibles has zero mass, and one with b1 = 0 or q = 0
    # a fixed u and no weight: all stay undosed
    reach = np.divide(prob.vmax, prob.s0, out=np.ones_like(prob.s0),
                      where=prob.s0 > 0)
    u, stats = lmi_box_maximize(
        prob.kernel, b1 * (1 - q * reach), b1,
        np.divide(prob.weights * prob.s0, b1 * q,
                  out=np.zeros_like(prob.s0), where=b1 * q > 0),
        prob.scale * prob.s0, pool=pool, max_shortfall=max_doses)
    return np.divide(prob.s0 * (1 - np.divide(u, b1, out=np.ones_like(u),
                                              where=b1 > 0)), q,
                     out=np.zeros_like(u), where=q > 0), stats


def solve_bilinear(prob: AllocationProblem, alpha: float) -> AllocationResult:
    """Perron-direction route at alpha; works for any nonnegative flow
    matrix. Cells with b1 = 0 are zero rows of diag(b1 (s0 - q v)) K, so the
    SLP runs on the other cells' block, and they get v = 0 and direction 0;
    cells with q = 0 stay in it, undosed (see `spectral_box_minimize`)."""
    b1 = prob.b1_per_cell(alpha)
    live = b1 > 0
    v, d = np.zeros_like(prob.s0), np.zeros_like(prob.s0)
    stats = SolverStats(method="bilinear-slp")
    if live.any():
        flow = prob.kernel.dense * prob.scale if prob.flow is None else prob.flow
        v[live], d[live], stats = spectral_box_minimize(
            flow[np.ix_(live, live)], (b1 * prob.s0)[live],
            (b1 * prob.q)[live], prob.weights[live], prob.vmax[live])
    return _finish(prob, alpha, v, stats, direction=d)


def solve_allocation(prob: AllocationProblem, alpha: float,
                     pool: Optional[CutPool] = None) -> AllocationResult:
    """Minimum-dose allocation at decay rate alpha, routed by structure: the
    diagonal LMI on the problem's kernel (the Gram route) when it has one,
    otherwise the bilinear path."""
    if prob.kernel is not None:
        return _finish(prob, alpha, *_gram_solve(prob, alpha, pool))
    return solve_bilinear(prob, alpha)


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


def _certified_rate(prob: AllocationProblem, radius: float,
                    top: float) -> float:
    """The closed-form root alpha of b1(alpha) radius = 1, at most top, lowered
    by doubling steps until radius b1(alpha) <= 1 holds in floating point. The
    first step is one ulp of max(|alpha|, top), the scale of the root's error:
    steps of one ulp of alpha could run for millions near alpha = 0."""
    alpha = min(prob.rate_at_radius(radius), top)
    step = np.spacing(max(abs(alpha), abs(top)))
    while radius * prob.b1_at(alpha) > 1.0:
        alpha, step = alpha - step, 2.0 * step
    return alpha


def _gram_min_radius(prob: AllocationProblem, budget: float, pool: CutPool,
                     ) -> tuple[np.ndarray, float, None, SolverStats]:
    """min r = lambda_max(F' diag(scale s0 y) F) over y = 1 - q v / s0 with
    weights'v <= budget and the box, by Kelley cuts on the epigraph
    (min t s.t. scale s0 (F z_k)^2 . y <= t for every cut k). Returns
    the best point evaluated, within RADIUS_GAP_TOL (relative) of the LP
    bound, as (v, r, None, stats) like `_slp_min_radius`, with no direction.
    The budget is the LP's first row, so that new cuts append rows and the
    LP basis carries over."""
    mass, q = prob.scale * prob.s0, prob.q
    # doses per unit of 1 - y; a cell with q = 0 has y = 1 fixed
    cost = np.divide(prob.weights * prob.s0, q, out=np.zeros_like(q),
                     where=q > 0)
    total, m = max(float(cost.sum()), 1e-300), cost.size
    reach = np.divide(prob.vmax, prob.s0, out=np.ones(m), where=prob.s0 > 0)
    lower = np.concatenate([1 - q * reach, [0.0]])
    upper = np.concatenate([np.ones(m), [np.inf]])
    r, fz, pool.vector = _top_eig(prob.kernel, mass, pool.vector)
    best_v, best_r, bound, unit = np.zeros(m), r, 0.0, r
    for iteration in range(1, KELLEY_MAX_ITER + 1):
        # stop at the gap, or (a guard) when the LP would not see the next
        # cut: it is violated by less than the LP's feasibility tolerance
        if (best_r - bound <= RADIUS_GAP_TOL * best_r
                or r - bound <= _lp.FEAS_TOL * unit):
            break
        pool.rows.append(mass * fz * fz)
        unit = best_r  # t in units of r*, so the LP resolves a relative gap
        rows = np.array(pool.rows) / unit
        x, pool.basis = _lp.solve(
            np.concatenate([np.zeros(m), [1.0]]),
            np.concatenate([[np.concatenate([-cost / total, [0.0]])],
                            np.column_stack([rows, -np.ones(len(rows))])]),
            np.concatenate([[budget / total - 1.0], np.zeros(len(rows))]),
            lower, upper, pool.basis)
        pool.lp_calls += 1
        bound = x[-1] * unit
        spent = 1 - x[:-1]  # 1 - y
        # every evaluated point keeps within the budget
        spent *= min(1.0, budget / max(float(cost @ spent), 1e-300))
        r, fz, pool.vector = _top_eig(prob.kernel, mass * (1 - spent),
                                      pool.vector)
        if r < best_r:
            best_v = np.divide(prob.s0 * spent, q, out=np.zeros(m),
                               where=q > 0)
            best_r = r
    else:
        raise SolverError(
            f"cutting-plane loop did not converge in {KELLEY_MAX_ITER} "
            "iterations")
    return best_v, best_r, None, SolverStats(
        iterations=iteration, cuts=len(pool.rows), method="lmi-cutting-plane",
        gap=float(max(best_r - bound, 0.0) / max(best_r, 1e-300)),
        lp_calls=pool.lp_calls)


def _slp_min_radius(prob: AllocationProblem, budget: float,
                    ) -> tuple[np.ndarray, float, np.ndarray, SolverStats]:
    """min r = rho(diag(s0 - q v) K) over weights'v <= budget and the box, by
    SLP on the Perron gradient with the trust-region rule of
    `spectral_box_minimize`. A step maximizes the linear gain g'x subject to
    weights'x <= budget in the trust box: a fractional knapsack on the
    complement hi - x. Returns (v, r, Perron direction, stats)."""
    K, s0, q, weights = prob.flow, prob.s0, prob.q, prob.weights
    vmax = np.where(q > 0, prob.vmax, 0.0)  # a cell with q = 0 stays undosed
    top = float(vmax.max())
    v, trust, settled = np.zeros_like(s0), 0.5 * max(top, 1e-6), False
    rho, d, w = _perron_pair(s0[:, None] * K)
    for it in range(1, SLP_MAX_ITER + 1):
        if float(w @ d) < 1e-14:
            break
        lo, hi = np.maximum(0.0, v - trust), np.minimum(vmax, v + trust)
        spare = _knapsack(q * w * (K @ d) / float(w @ d), weights,
                          float(weights @ hi) - budget, np.zeros_like(v),
                          hi - lo)
        if spare is None:
            break
        step = hi - spare
        step *= min(1.0, budget / max(float(weights @ step), 1e-300))
        # most steps near the optimum are rejected: the left vector, a
        # second eigen-decomposition, is needed only for an accepted one
        P = (s0 - q * step)[:, None] * K
        rho_step, d_step = _perron(P)
        if rho_step < rho - SLP_TOL * rho:
            v, rho, d, w = step, rho_step, d_step, _perron(P.T)[1]
            trust = min(trust * 1.5, top)
        else:
            trust *= 0.5
            # Collatz-Wielandt on d: a step in the trust box has radius at
            # least rho min_i (1 - q_i trust / (s0 - q v)_i); once that
            # bound is rejected, so is every later step, as trust only shrinks
            settled = bool(np.all(q * trust <= SLP_TOL * (s0 - q * v)))
            if settled or trust < 1e-12 * max(1.0, top):
                break
    return v, rho, d, SolverStats(
        iterations=it, method="bilinear-slp", lp_calls=it,
        converged=settled or trust < 1e-12 * max(1.0, top))


def max_decay(prob: AllocationProblem,
              budget: float) -> tuple[float, AllocationResult]:
    """Largest decay rate in [-2, max_rate - 1e-4] whose minimum dose
    requirement fits the budget; doses stay within budget + 1e-9 (1 + budget).

    When the problem states rate_at_radius the search is direct (see the
    module docstring): the budget's minimum radius r* comes from one Kelley
    solve (Gram route) or one SLP solve (bilinear route), and alpha from the
    closed-form root of b1(alpha) r* = 1 (`_certified_rate`); below the
    bracket top that point is the answer.
    Otherwise it bisects alpha to RATE_WIDTH. On the Gram route the probes
    share one cut pool and stop as soon as the LP bound exceeds the budget or
    a feasible point fits it; bilinear probes are full solves. Every other
    case solves the rate found to the gap, falls back to the search's fitting
    point if that overshoots the budget, and fills the stats as `SolverStats`
    states."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    lo, hi = -2.0, prob.max_rate - 1e-4
    cap = budget + 1e-9 * (1.0 + budget)
    pool = None if prob.kernel is None else CutPool()
    if prob.rate_at_radius is not None:
        v, radius, d, work = (_slp_min_radius(prob, budget) if pool is None
                              else _gram_min_radius(prob, budget, pool))
        work.search = "direct"
        alpha = _certified_rate(prob, radius, hi)
        if alpha < lo:
            raise InfeasibleAllocationError(
                f"budget insufficient even at the bracket low end alpha={lo}")
        if alpha < hi:
            return alpha, _finish(prob, alpha, v, work, direction=d)
    else:
        work = SolverStats(search="bisection")

        def probe(alpha: float) -> Optional[tuple]:
            try:
                if pool is not None:
                    return _gram_solve(prob, alpha, pool, cap)[0], None
                result = solve_allocation(prob, alpha)
            except InfeasibleAllocationError:
                return None
            work.iterations += result.stats.iterations
            work.lp_calls += result.stats.lp_calls
            return (result.v, result.direction) if result.doses <= cap else None

        alpha, (v, d) = bisect_rate(probe, lo, hi, RATE_WIDTH)
    # the bracket top or a bisected rate: spend only what that rate needs
    result = solve_allocation(prob, alpha, pool)
    if result.doses > cap:  # solved to a gap; the search's point fits
        result = _finish(prob, alpha, v, result.stats, direction=d)
    own = result.stats
    cuts, lp_calls = ((len(pool.rows), pool.lp_calls) if pool is not None else
                      (work.cuts + own.cuts, work.lp_calls + own.lp_calls))
    result.stats = replace(own, search=work.search, cuts=cuts,
                           iterations=work.iterations + own.iterations,
                           lp_calls=lp_calls)
    return alpha, result


def max_decay_binary_search(state: EpidemicState, net: NetworkInstance,
                            params: DiseaseParams,
                            contacts: Optional[ContactStructure],
                            budget: float) -> tuple[float, AllocationResult]:
    """Largest decay rate of the covid model that the budget buys; see
    `max_decay`."""
    return max_decay(build_problem(state, net, params, contacts), budget)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

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
            "search": result.stats.search,
        },
    }
    if result.direction is not None:
        doc["direction"] = result.direction.tolist()
    return doc
