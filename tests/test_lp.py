"""The in-package dual simplex against scipy's HiGHS on seeded random LPs:
cold solves, degenerate ones, warm-started sequences, infeasible LPs and the
pivot cap."""

import numpy as np
import pytest
import scipy.optimize

from stabvax import _lp
from stabvax.allocator import SolverError


def random_lp(rng, rows=60, cols=240, degenerate=False):
    """A feasible LP with a boxed x. The degenerate kind has duplicate rows
    and columns, rows tight at a point inside the box, and integer costs (so
    many reduced costs tie at zero)."""
    m, n = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    lower = -rng.random(n)
    upper = lower + 2 * rng.random(n)
    inside = lower + rng.random(n) * (upper - lower)
    c = rng.standard_normal(n)
    if degenerate:
        A[m // 2:] = A[:m - m // 2]
        A[:, n // 2:] = A[:, :n - n // 2]
        c = np.round(c)
        c[n // 2:] = c[:n - n // 2]
        return c, A, A @ inside, lower, upper
    return c, A, A @ inside + rng.random(m), lower, upper


def linprog_value(c, A, b, lower, upper):
    res = scipy.optimize.linprog(
        c, A_ub=A, b_ub=b, bounds=np.column_stack([lower, upper]),
        method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def assert_optimal(x, c, A, b, lower, upper):
    assert np.all(lower <= x) and np.all(x <= upper)
    assert np.all(A @ x <= b + 1e-8 * (1 + np.abs(b)))
    ref = linprog_value(c, A, b, lower, upper)
    assert abs(c @ x - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("seed", range(12))
def test_cold_solves_match_linprog(seed):
    rng = np.random.default_rng(seed)
    for degenerate in (False, True):
        lp = random_lp(rng, degenerate=degenerate)
        x, basis = _lp.solve(*lp)
        assert_optimal(x, *lp)
        assert basis.head.size == lp[1].shape[0]


@pytest.mark.parametrize("seed", range(4))
def test_blands_rule_solves_degenerate_lps(seed, monkeypatch):
    monkeypatch.setattr(_lp, "BLAND_AFTER", 0)
    rng = np.random.default_rng(100 + seed)
    lp = random_lp(rng, rows=20, cols=60, degenerate=True)
    assert_optimal(_lp.solve(*lp)[0], *lp)


def epigraph_lp(rng, m, k):
    """min t over y in a box, under a budget row and k cut rows a'y <= t:
    the shape of the allocator's radius LP, with t unbounded above."""
    y0 = rng.random(m)
    cost = rng.random(m)
    A = np.r_[[np.r_[-cost, 0.0]],
              np.c_[rng.random((k, m)), -np.ones(k)]]
    b = np.r_[-cost @ y0, np.zeros(k)]
    return (np.r_[np.zeros(m), 1.0], A, b, np.r_[y0 - rng.random(m), 0.0],
            np.r_[np.ones(m), np.inf])


@pytest.mark.parametrize("seed", range(6))
def test_warm_sequences_match_cold_linprog(seed):
    """Each LP solved from the previous one's basis, as the Kelley loops do:
    every third step appends a cut. The fixed-rate LP (even seeds) then
    shifts its box for the next rate or changes its weights; the epigraph LP
    (odd seeds) rescales its cuts or prices y."""
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(5, 120))
    epigraph = seed % 2 == 1
    if epigraph:
        c, A, b, lower, upper = epigraph_lp(rng, m, 1)
    else:  # max w'u under cuts that the lower corner meets
        lower = rng.random(m)
        upper = lower + rng.random(m)
        c, A = -rng.random(m), rng.random((1, m))
        b = np.maximum(1.0, A @ lower)
    basis = _lp.solve(c, A, b, lower, upper)[1]
    warm = cold = 0
    for step in range(30):
        if step % 3 == 0:
            row = rng.random(A.shape[1])
            if epigraph:
                row[-1] = -1.0
            A = np.r_[A, [row]]
            b = np.r_[b, 0.0 if epigraph else max(1.0, row @ lower)]
        elif step % 3 == 1 and epigraph:
            A[1:, :-1] *= rng.uniform(0.8, 1.25)
        elif step % 3 == 1:
            shift = 0.05 * rng.standard_normal()
            lower, upper = lower + shift, upper + shift
            b = np.maximum(1.0, A @ lower)
        elif epigraph:
            c[:-1] = 0.01 * rng.standard_normal(m)
        else:
            c = c * rng.uniform(0.5, 1.5, m)
        x, basis = _lp.solve(c, A, b, lower, upper, basis)
        assert_optimal(x, c, A, b, lower, upper)
        warm += basis.pivots
        cold += _lp.solve(c, A, b, lower, upper)[1].pivots
    assert warm < cold


def test_warm_basis_of_another_shape_is_ignored():
    rng = np.random.default_rng(7)
    first = random_lp(rng, rows=10, cols=30)
    basis = _lp.solve(*first)[1]
    lp = epigraph_lp(rng, 12, 3)
    assert_optimal(_lp.solve(*lp, basis)[0], *lp)


@pytest.mark.parametrize("seed", range(4))
def test_infeasible_lps_raise(seed):
    rng = np.random.default_rng(300 + seed)
    c, A, b, lower, upper = random_lp(rng, rows=30, cols=80)
    row = A[0]
    # a second copy of row 0, reversed, asks for more than row 0 allows
    contradiction = (np.r_[A, [-row]], np.r_[b, -b[0] - 1.0])
    box = (np.r_[A, [np.ones(c.size)]], np.r_[b, lower.sum() - 1.0])
    for A_bad, b_bad in (contradiction, box):
        with pytest.raises(SolverError, match="infeasible"):
            _lp.solve(c, A_bad, b_bad, lower, upper)


def test_pivot_cap_raises(monkeypatch):
    lp = random_lp(np.random.default_rng(1))
    assert _lp.solve(*lp)[1].pivots > 1
    monkeypatch.setattr(_lp, "MAX_PIVOTS", 1)
    with pytest.raises(SolverError, match="pivots"):
        _lp.solve(*lp)
