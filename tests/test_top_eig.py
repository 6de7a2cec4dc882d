"""`model._top_eig`, the one top-eigenpair kernel of the Gram route, the
certificates and Rt, against dense numpy oracles: its lambda_max against
eigvalsh, its cut rows against the definition of a valid cut, and the
Kronecker matvec of `GramKernel` against np.kron."""

import warnings

import numpy as np
import pytest

import stabvax as sv
from stabvax import model


def dense_top(factor, w):
    return np.linalg.eigvalsh(factor.T @ (w[:, None] * factor))[-1]


def count_calls(monkeypatch, target, name):
    """A list that grows by one per call of target.name."""
    calls, real = [], getattr(target, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    return calls


def age_kernel(rng, n, g):
    """(GramKernel(Abar, Gamma), F) with F F' = Abar (x) Gamma, both >= 0."""
    tau = rng.uniform(0.0, 1.0, (n, n))
    raw = rng.uniform(0.2, 1.0, (g, g))
    gamma = raw @ raw.T
    return (sv.GramKernel(tau @ tau.T, gamma),
            np.kron(tau, np.linalg.cholesky(gamma)))


@pytest.mark.parametrize("seed", range(4))
def test_kronecker_matvec_matches_kron(seed):
    rng = np.random.default_rng(seed)
    n, g = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    kernel, _ = age_kernel(rng, n, g)
    dense = np.kron(kernel.abar, kernel.gamma)
    y = rng.normal(size=n * g)
    assert kernel @ y == pytest.approx(dense @ y, rel=1e-12,
                                       abs=1e-12 * np.abs(dense @ y).max())
    assert np.array_equal(kernel.dense, dense)


@pytest.mark.parametrize("n, g", [(3, 2), (8, 6), (20, 6), (60, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_matches_eigvalsh_with_zero_weight_cells(seed, n, g):
    # both paths (below and above the dense cutoff), with a random share of
    # the cells at zero weight, cold and warm-started
    rng = np.random.default_rng(seed)
    kernel, factor = age_kernel(rng, n, g)
    start = None
    for zero_share in (0.0, 0.3, 0.7):
        w = rng.uniform(0.1, 2.0, n * g) * (rng.uniform(size=n * g)
                                            >= zero_share)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, cut, start = model._top_eig(kernel, w, start)
        assert lam == pytest.approx(dense_top(factor, w), rel=1e-11)
        assert cut @ (cut * w) == pytest.approx(lam, rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_cut_rows_are_valid_and_tight(seed):
    # (F z)^2 . w' <= lambda_max(F' diag(w') F) for every w' >= 0, since z
    # is a unit vector, with equality at the queried w
    rng = np.random.default_rng(seed)
    for n, g in ((2, 3), (10, 6), (50, 1)):
        kernel, factor = age_kernel(rng, n, g)
        w = rng.uniform(0.0, 1.0, n * g)
        lam, cut, _ = model._top_eig(kernel, w)
        z = np.linalg.lstsq(factor, cut, rcond=None)[0]
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-9)
        row = cut * cut
        assert row @ w == pytest.approx(lam, rel=1e-9)
        for _ in range(20):
            other = rng.uniform(0.0, 1.0, n * g) * (rng.uniform(size=n * g)
                                                    < 0.8)
            assert row @ other <= dense_top(factor, other) * (1 + 1e-12)


def test_reducible_kernel_takes_the_dense_fallback(monkeypatch):
    # a block-diagonal Abar: (Sx)_i stays positive, but the ratios of the
    # weaker block settle on its own top eigenvalue, so the bracket never
    # closes and the iteration cap hands over to eigvalsh
    rng = np.random.default_rng(7)
    blocks = [rng.uniform(0.5, 1.0, (30, 30)) for _ in range(2)]
    abar = np.zeros((60, 60))
    abar[:30, :30] = blocks[0] @ blocks[0].T
    abar[30:, 30:] = 0.5 * blocks[1] @ blocks[1].T
    kernel = sv.GramKernel(abar)
    w = rng.uniform(0.5, 1.5, 60)
    dense = count_calls(monkeypatch, np.linalg, "eigvalsh")
    lam, cut, _ = model._top_eig(kernel, w)
    assert len(dense) == 1
    expected = np.linalg.eigvalsh(np.sqrt(w)[:, None] * abar * np.sqrt(w))[-1]
    assert lam == pytest.approx(expected, rel=1e-12)
    assert cut @ (cut * w) == pytest.approx(lam, rel=1e-9)


def test_zero_row_falls_back_at_once(monkeypatch):
    # a cell whose kernel row vanishes gives (Sx)_i = 0 on the first step
    rng = np.random.default_rng(8)
    tau = rng.uniform(0.1, 1.0, (50, 50))
    tau[7] = 0.0
    kernel = sv.GramKernel(tau @ tau.T)
    w = rng.uniform(0.5, 1.5, 50)
    matvecs = count_calls(monkeypatch, sv.GramKernel, "__matmul__")
    lam, _, _ = model._top_eig(kernel, w)
    assert len(matvecs) == 1
    assert lam == pytest.approx(dense_top(tau, w), rel=1e-12)


def test_small_gap_hits_the_iteration_cap(monkeypatch):
    # two equal positive blocks coupled by 1e-6: lambda_2 / lambda_1 is
    # within 1e-5 of 1, far too slow for the power iteration's cap from a
    # start that weighs the blocks unequally
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.5, 1.0, (40, 40))
    block = raw @ raw.T
    abar = np.block([[block, np.full((40, 40), 1e-6)],
                     [np.full((40, 40), 1e-6), block]])
    kernel = sv.GramKernel(abar)
    w = np.ones(80)
    gaps = np.linalg.eigvalsh(abar)[-2:]
    assert gaps[0] / gaps[1] > 1 - 1e-5
    dense = count_calls(monkeypatch, np.linalg, "eigvalsh")
    lam, cut, _ = model._top_eig(kernel, w, np.repeat([1.0, 2.0], 40))
    assert len(dense) == 1
    assert lam == pytest.approx(gaps[1], rel=1e-12)
    assert cut @ (cut * w) == pytest.approx(lam, rel=1e-9)


def test_power_path_makes_no_dense_solve(monkeypatch):
    rng = np.random.default_rng(10)
    kernel, factor = age_kernel(rng, 20, 6)
    w = rng.uniform(0.5, 1.5, 120)
    dense = count_calls(monkeypatch, np.linalg, "eigvalsh")
    lam, _, _ = model._top_eig(kernel, w)
    assert dense == []
    assert lam >= dense_top(factor, w) * (1 - 1e-15)  # the upper end
    assert lam == pytest.approx(dense_top(factor, w), rel=1e-12)


@pytest.mark.parametrize("start", [np.ones(3), np.ones(1), np.ones((120, 1))])
def test_start_of_another_shape_is_ignored(start):
    rng = np.random.default_rng(11)
    kernel, _ = age_kernel(rng, 20, 6)
    w = rng.uniform(0.5, 1.5, 120)
    assert model._top_eig(kernel, w, start)[0] == model._top_eig(kernel, w)[0]


def homogeneous_kernel(rng, n):
    """(GramKernel(Abar), F) with F F' = Abar, one cell per location."""
    tau = rng.uniform(0.0, 1.0, (n, n))
    return sv.GramKernel(tau @ tau.T), tau


@pytest.mark.parametrize("n, g", [(5, 1), (60, 1), (4, 6), (10, 6), (20, 6)])
@pytest.mark.parametrize("seed", range(3))
def test_settle_decides_like_eigvalsh(seed, n, g):
    # homogeneous (g = 1) and age kernels below and above the dense cutoff,
    # with zero-weight cells, cold and warm-started, thresholds on both sides
    # of lambda_max: the value stays an upper bound, decides lambda <= t as
    # eigvalsh does outside a 1e-9 band, and above t its cut separates w
    rng = np.random.default_rng(seed)
    kernel, factor = (homogeneous_kernel(rng, n) if g == 1
                      else age_kernel(rng, n, g))
    start = None
    for zero_share in (0.0, 0.3, 0.7):
        w = rng.uniform(0.1, 2.0, n * g) * (rng.uniform(size=n * g)
                                            >= zero_share)
        lam_true = dense_top(factor, w)
        for t in lam_true * np.array([0.3, 0.9, 0.999, 1 - 1e-10, 1.0,
                                      1 + 1e-10, 1.001, 1.1, 3.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lam, cut, start = model._top_eig(kernel, w, start, settle=t)
            assert lam >= lam_true * (1 - 1e-14)
            if abs(lam_true - t) > 1e-9 * lam_true:
                assert (lam <= t) == (lam_true <= t)
                if lam > t:
                    assert cut @ (cut * w) > t


def test_settle_stops_before_the_bracket_closes(monkeypatch):
    rng = np.random.default_rng(12)
    kernel, factor = age_kernel(rng, 20, 6)
    w = rng.uniform(0.5, 1.5, 120)
    lam = dense_top(factor, w)
    matvecs = count_calls(monkeypatch, sv.GramKernel, "__matmul__")
    model._top_eig(kernel, w)
    closed = len(matvecs)
    for t in (0.9 * lam, 1.1 * lam):
        matvecs.clear()
        settled, cut, _ = model._top_eig(kernel, w, settle=t)
        assert 0 < len(matvecs) < closed
        assert (settled <= t) == (lam <= t)
        assert settled >= lam * (1 - 1e-15)


def test_small_kernel_settles_by_power_steps(monkeypatch):
    # below the dense cutoff a settle threshold takes up to _SETTLE_STEPS
    # power steps, then the dense solve
    rng = np.random.default_rng(13)
    kernel, factor = age_kernel(rng, 5, 6)
    w = rng.uniform(0.5, 1.5, 30)
    lam, _, x = model._top_eig(kernel, w)
    dense = count_calls(monkeypatch, np.linalg, "eigvalsh")
    matvecs = count_calls(monkeypatch, sv.GramKernel, "__matmul__")
    assert model._top_eig(kernel, w, x, settle=1.1 * lam)[0] <= 1.1 * lam
    assert dense == [] and len(matvecs) == 1
    matvecs.clear()
    # a threshold within 1e-13 of lambda cannot settle from a cold start
    settled = model._top_eig(kernel, w, settle=lam * (1 + 1e-13))[0]
    assert len(matvecs) == model._SETTLE_STEPS and len(dense) == 1
    assert settled == pytest.approx(dense_top(factor, w), rel=1e-12)
