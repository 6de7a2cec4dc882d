import itertools
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stabvax import _lp, allocator, bubar, model
from stabvax.dynamics import (EXTINCTION_THRESHOLD, VaccinationSchedule,
                              simulate)
from stabvax.policies import AGE_BANDS, PolicySpec, priority_tiers


def symmetric_fixture():
    """The SEIR fixture with its contact gram C diag(1/N) symmetrized."""
    params, _ = bubar.us_like_instance(1.15, seed=0)
    gram = params.contacts / params.populations[None, :]
    contacts = 0.5 * (gram + gram.T) * params.populations[None, :]
    params = bubar.calibrate_r0(replace(params, contacts=contacts), 1.15)
    return params, bubar.initial_bubar_state(params, 0.001)


class TestAllocationRoutes:
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_lmi_and_bilinear_agree_on_symmetric_contacts(self, alpha):
        params, state = symmetric_fixture()
        prob = bubar.bubar_problem(state, params)
        lmi = allocator.solve_allocation(prob, alpha)
        bil = allocator.solve_bilinear(prob, alpha)
        assert lmi.stats.method == "lmi-cutting-plane"
        assert bil.stats.method == "bilinear-slp"
        assert lmi.certificate.satisfied and bil.certificate.satisfied
        assert lmi.doses == pytest.approx(bil.doses, rel=1e-6)
        _, routed = bubar.solve_bubar_allocation(state, params, alpha=alpha)
        assert routed.stats.method == "lmi-cutting-plane"

    def test_default_fixture_routes_to_bilinear(self):
        params, state = bubar.us_like_instance(1.15, seed=0)
        assert bubar.bubar_problem(state, params).kernel is None
        _, res = bubar.solve_bubar_allocation(state, params, alpha=0.0)
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied

    @pytest.mark.parametrize("fixture", ["us-like", "symmetric"])
    @pytest.mark.parametrize("ask", ["alpha", "supply"])
    def test_group_without_susceptibles_gets_no_doses(self, fixture, ask):
        # q = psi S = 0: a dose there moves no one (Sx > 0 keeps its row)
        params, state = (bubar.us_like_instance(1.15, seed=0)
                         if fixture == "us-like" else symmetric_fixture())
        c = state.compartments.copy()
        c[9, 0], c[0, 0] = c[9, 0] + c[0, 0] - 50.0, 0.0  # S to R
        c[1, 0] = 50.0  # Sx
        state = bubar.BubarState(c)
        prob = bubar.bubar_problem(state, params)
        assert prob.q[0] == 0 and (prob.kernel is None) == (fixture == "us-like")
        kw = ({"alpha": 0.0} if ask == "alpha"
              else {"supply": 0.05 * params.populations.sum()})
        _, res = bubar.solve_bubar_allocation(state, params, **kw)
        assert res.certificate.satisfied
        assert res.v[0] == 0 and res.doses > 0

    def test_budgeted_bisection_shares_one_cut_pool(self, monkeypatch):
        params, state = symmetric_fixture()
        supply = 0.05 * params.populations.sum()
        cap = supply + 1e-9 * (1.0 + supply)

        def cold(rate):
            try:
                _, res = bubar.solve_bubar_allocation(state, params, alpha=rate)
            except allocator.InfeasibleAllocationError:
                return None
            return res if res.doses <= cap else None

        cold_alpha, cold_res = allocator.bisect_rate(
            cold, -2.0, min(1 / params.d_e, 1 / params.d_i) - 1e-4, 1e-5)
        real_pool, pools = allocator.CutPool, []

        def tracked_pool():
            pools.append(real_pool())
            return pools[-1]

        monkeypatch.setattr(allocator, "CutPool", tracked_pool)
        alpha, res = bubar.solve_bubar_allocation(state, params, supply=supply)
        assert len(pools) == 1
        assert res.stats.cuts == len(pools[0].rows) > 0
        assert res.stats.lp_calls == pools[0].lp_calls >= res.stats.cuts
        assert res.certificate.satisfied and cold_res.certificate.satisfied
        assert res.doses <= cap
        assert abs(alpha - cold_alpha) <= 1e-5


# budgeted SEIR max-decay at a 5% supply, for (r0, seed): the alpha of the
# earlier alpha bisection (the low end of its 1e-5 bracket), then alpha,
# doses and the groups' doses (every other group gets none) of the direct
# search, which minimizes the radius under the supply and solves for alpha
BILINEAR_GOLDEN = {
    (1.05, 0): (0.004661224746704107, 0.004663839015887456,
                50000.0, [6883.75462652, 31861.4477794, 11254.7975941]),
    (1.05, 1): (0.005399716567993169, 0.0054021848404272365,
                49999.99999999999, [35184.5700784, 13184.2888892, 1631.14103235]),
    (1.05, 2): (0.004711576461791997, 0.004716730577160908,
                50000.0, [20472.5987462, 6468.65172136, 23058.7495324]),
    (1.5, 0): (-0.04343305511474609, -0.04343043417128143,
                50000.0, [6883.75462652, 31861.4477794, 11254.7975941]),
    (1.5, 1): (-0.042543508148193354, -0.0425392197368291,
                49999.99999999999, [35184.5700784, 13184.2888892, 1631.14103235]),
    (1.5, 2): (-0.04337431144714356, -0.04336659349369287,
                50000.0, [20472.5987462, 6468.65172136, 23058.7495324]),
    (2.5, 0): (-0.12995408554077148, -0.12994908812698477,
                50000.0, [6883.75462652, 31861.4477794, 11254.7975941]),
    (2.5, 1): (-0.12879599609375003, -0.12878771841626885,
                49999.99999999999, [35184.5700784, 13184.2888892, 1631.14103235]),
    (2.5, 2): (-0.129870166015625, -0.12986589741830934,
                50000.0, [20472.5987462, 6468.65172136, 23058.7495324]),
}


class TestBilinearRoute:
    @pytest.mark.parametrize("r0, seed", sorted(BILINEAR_GOLDEN))
    def test_budgeted_bisection_matches_golden(self, r0, seed, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the SLP step must not solve an LP")

        monkeypatch.setattr(_lp, "solve", no_lp)
        params, state = bubar.us_like_instance(r0, seed=seed)
        alpha, res = bubar.solve_bubar_allocation(
            state, params, supply=0.05 * params.populations.sum())
        bisected, golden_alpha, golden_doses, golden_groups = \
            BILINEAR_GOLDEN[r0, seed]
        golden_vec = np.zeros(params.n_groups)
        golden_vec[2:5] = golden_groups
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied
        assert bisected <= alpha <= bisected + 1e-5 + 1e-9
        assert alpha == pytest.approx(golden_alpha, rel=0, abs=1e-12)
        assert res.doses == pytest.approx(golden_doses, rel=1e-9)
        assert np.abs(res.dose_vector - golden_vec).max() <= \
            1e-9 * max(golden_vec)

    def test_step_restore_cannot_certify_is_rejected(self):
        # near this fixture's largest rate most cells clip at vmax, so a
        # step's radius falls slowly along restore's path; restore must still
        # return only points with rho <= 1 + 1e-13 (or vmax), or an accepted
        # step ends in "no feasible iterate"
        params, state = bubar.us_like_instance(1.18, seed=42)
        _, res = bubar.solve_bubar_allocation(state, params, alpha=0.1556)
        assert res.certificate.satisfied
        assert res.certificate.spectral_radius <= 1.0 + 1e-9

    @pytest.mark.parametrize("r0, seed, alpha", [(1.18, 42, 0.1556),
                                                 (2.5, 0, 0.12)])
    def test_clipped_restore_converges(self, r0, seed, alpha):
        # restore's fixed point c <- max(c / rho, c_min) crawls once cells
        # clip at vmax: these cases ran all SLP_MAX_ITER steps unconverged
        params, state = bubar.us_like_instance(r0, seed=seed)
        _, res = bubar.solve_bubar_allocation(state, params, alpha=alpha)
        assert res.certificate.satisfied
        assert res.stats.converged
        assert res.stats.iterations <= 100 < allocator.SLP_MAX_ITER

    def test_fixed_rate_grid_is_certified_or_infeasible(self):
        for r0, alpha, seed in itertools.product(
                (1.05, 1.15, 1.5, 2.5), (0.0, 0.06, 0.12, 0.15), range(3)):
            params, state = bubar.us_like_instance(r0, seed=seed)
            if alpha == 0.15 and r0 >= 1.5:
                with pytest.raises(allocator.InfeasibleAllocationError):
                    bubar.solve_bubar_allocation(state, params, alpha=alpha)
                continue
            _, res = bubar.solve_bubar_allocation(state, params, alpha=alpha)
            assert res.stats.method == "bilinear-slp"
            assert res.certificate.satisfied and res.stats.converged
            a, b = 1.0 / params.d_e, 1.0 / params.d_i
            unprotected = state.S + state.Sx - params.psi * res.v * state.S
            flow = (params.susceptibility[:, None] * params.contacts
                    / (params.populations - state.D)[None, :])
            rho = np.abs(np.linalg.eigvals(
                a / ((a - alpha) * (b - alpha)) * unprotected[:, None] * flow
            )).max()
            assert rho <= 1.0 + 1e-9, (r0, alpha, seed)

    @pytest.mark.parametrize("r0", [1.05, 2.5])
    def test_rate_at_radius_is_the_exact_smaller_root(self, r0):
        # against the smaller root of (a - alpha)(b - alpha) = a r in 60-digit
        # decimals; radii next to b put the root next to 0, where
        # ((a + b) - sqrt((a - b)^2 + 4 a r)) / 2 loses every digit
        params, _ = bubar.us_like_instance(r0, seed=0)
        a, b = 1.0 / params.d_e, 1.0 / params.d_i
        near_b = [b * (1.0 + sign * 10.0 ** -k) for k in (4, 8, 12, 15)
                  for sign in (1, -1)]
        for radius in [b, *near_b, *np.linspace(0.01, 50.0, 41) * b]:
            alpha = bubar.bubar_rate_at_radius(params, radius)
            assert alpha < min(a, b)
            with localcontext() as ctx:
                ctx.prec = 60
                da, db, dr = Decimal(a), Decimal(b), Decimal(float(radius))
                exact = ((da + db) - ((da - db) ** 2
                                      + 4 * da * dr).sqrt()) / 2
                assert abs(Decimal(alpha) - exact) <= \
                    Decimal(4 * np.spacing(abs(float(exact))))
        assert bubar.bubar_rate_at_radius(params, b) == 0.0


CERT_R0 = [0.8, 1.05, 1.15, 1.5, 2.5, 5.0]
# the fixture's rate limit is min(1/d_e, 1/d_i) = 1/5
CERT_LIMIT = 0.2
CERT_ALPHAS = [-0.5, 0.0, 0.06, 0.12, CERT_LIMIT - 1e-9, CERT_LIMIT,
               CERT_LIMIT + 0.1]


def draw_doses(params, seed, kind):
    """v of one kind: none, a seeded uniform draw on [0, 1], or all."""
    if kind == "draw":
        return np.random.default_rng(seed).uniform(0.0, 1.0, params.n_groups)
    return np.full(params.n_groups, {"zero": 0.0, "one": 1.0}[kind])


class TestCertificate:
    """`bubar_certificate` reads lambda_max and the radius off w = rho(W);
    the dense 6 g x 6 g chain is the oracle."""

    @pytest.mark.parametrize("kind", ["zero", "draw", "one"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r0", CERT_R0)
    def test_matches_the_dense_chain(self, seir_chain_matrix, r0, seed, kind):
        params, state = bubar.us_like_instance(r0, seed=seed)
        v = draw_doses(params, seed, kind)
        lam = float(np.max(np.linalg.eigvals(
            seir_chain_matrix(state, params, v)).real))
        weight = state.S + state.Sx - params.psi * v * state.S
        unit = weight[:, None] * bubar.bubar_flow_matrix(state, params)
        for alpha in CERT_ALPHAS:
            cert = bubar.bubar_certificate(state, params, v, alpha)
            assert abs(cert.lambda_max - lam) <= 1e-14 * max(1.0, abs(lam))
            if alpha < CERT_LIMIT:
                radius = np.abs(np.linalg.eigvals(
                    bubar.bubar_b1(params, alpha) * unit)).max()
                assert cert.spectral_radius == pytest.approx(radius,
                                                              rel=1e-13)
            else:
                assert cert.spectral_radius == np.inf
            assert cert.satisfied == (lam <= -alpha + model.CERTIFICATE_TOL)

    @pytest.mark.parametrize("alpha", [0.0, 0.06, CERT_LIMIT])
    def test_doses_outside_unit_interval_read_as_clipped(self, alpha):
        params, state = bubar.us_like_instance(1.5, seed=1)
        v = np.random.default_rng(1).uniform(-0.5, 1.5, params.n_groups)
        assert v.min() < 0.0 and v.max() > 1.0
        assert bubar.bubar_certificate(state, params, v, alpha) == \
            bubar.bubar_certificate(state, params, np.clip(v, 0.0, 1.0), alpha)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.06, 0.12])
    def test_satisfied_flips_at_the_tolerance(self, alpha):
        edge = -alpha + model.CERTIFICATE_TOL
        assert model.StabilityCertificate(alpha, edge).satisfied
        assert not model.StabilityCertificate(
            alpha, float(np.nextafter(edge, np.inf))).satisfied

    def test_one_group_sized_eigensolve(self, monkeypatch):
        params, state = bubar.us_like_instance(1.15, seed=0)
        shapes, real = [], np.linalg.eigvals

        def recording(mat):
            shapes.append(np.shape(mat))
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        bubar.bubar_certificate(state, params, np.full(9, 0.3), 0.06)
        assert shapes == [(9, 9)]


SEIR_POLICIES = [PolicySpec(kind) for kind in
                 ("optimal-stabilizing", *AGE_BANDS)]


def simulate_seir(params, state0, policies, schedule, horizon):
    return simulate(bubar.bubar_model(params, state0), policies, schedule,
                    horizon)


class TestBatchedSimulation:
    def test_columns_match_single_runs(self):
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        batch = simulate_seir(params, state0, SEIR_POLICIES, sched, 60)
        assert len(batch) == len(SEIR_POLICIES) == 6
        for spec, traj in zip(SEIR_POLICIES, batch):
            single = bubar.simulate_bubar(params, state0, spec, sched,
                                          horizon=60)
            for field in ("susceptible", "infectious", "cum_cases",
                          "cum_deaths", "doses"):
                a, b = getattr(traj, field), getattr(single, field)
                assert a.shape == b.shape == (61, params.n_groups)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field
            assert traj.total_doses() == pytest.approx(
                0.05 * params.populations.sum(), rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fixture_never_clamps(self, seed):
        params, state0 = bubar.us_like_instance(1.15, seed=seed)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        trajs = simulate_seir(params, state0,
                              [PolicySpec("no-vaccine"), *SEIR_POLICIES],
                              sched, 300)
        assert [traj.clamp_events for traj in trajs] == [0] * 7

    def test_clamp_events_counted_per_policy(self):
        # a protected count of -1 person in the 80+ group has no dynamics, so
        # the first step clips it, unless day 0's doses lift it first
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        state0.compartments[bubar.COMPARTMENTS.index("Sv"), 8] = -1.0
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        specs = [PolicySpec(kind) for kind in
                 ("no-vaccine", "under-20", "seniors-60-plus")]
        trajs = simulate_seir(params, state0, specs, sched, 10)
        assert [traj.clamp_events for traj in trajs] == [1, 1, 0]
        assert all(type(traj.clamp_events) is int for traj in trajs)

    def test_unknown_policy_raises(self):
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        assert priority_tiers(PolicySpec("under-20"), bubar.bubar_model(
            params, state0)) == ((0, 1),)
        with pytest.raises(ValueError, match="under20"):
            PolicySpec("under20")

    @pytest.mark.parametrize("policy", [(2, 2), ((1, 2), 2), ((0, 0),)])
    def test_priority_list_naming_a_group_twice_raises(self, policy):
        # (2, 2) would dose group 2 twice: 139,366 doses against 140,369 for
        # (2,) over 30 days at 2% a day, clipped to v <= 1 without a word
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.02, total_budget=0.3)
        assert simulate_seir(params, state0, [PolicySpec(
            "age-priority", priority_groups=(2,))], sched, 5)
        with pytest.raises(ValueError, match="more than once"):
            PolicySpec("age-priority", priority_groups=policy)

    @pytest.mark.parametrize("groups", [(9,), (-1,), ((0, 9),)])
    def test_priority_group_outside_the_model_raises(self, groups):
        # (9,) used to dose nothing: no cell of the nine groups is group 9
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        with pytest.raises(ValueError, match="outside"):
            simulate_seir(params, state0, [PolicySpec(
                "age-priority", priority_groups=groups)], sched, 5)

    def test_population_weighted_doses_by_group_size(self):
        # the policy kinds of the covid models dose the SEIR model too
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj, = simulate_seir(params, state0,
                              [PolicySpec("population-weighted")], sched, 1)
        np.testing.assert_allclose(traj.doses[0], 0.0033 * params.populations,
                                   rtol=1e-12)

    def test_leftover_rule_none_stops_dosing_after_extinction(self):
        # R0 0.5 from one infected person in a million: the exposed and
        # infectious fall below EXTINCTION_THRESHOLD on day 10, long before
        # 5% of the population is dosed at 0.33% a day
        params, state0 = bubar.us_like_instance(0.5, seed=0,
                                                infected_frac=1e-6)
        none, even = (bubar.simulate_bubar(
            params, state0, PolicySpec("under-20"),
            VaccinationSchedule(0.0033, total_budget=0.05, leftover_rule=rule),
            60) for rule in ("none", "even-split"))
        doses_none, doses_even = (t.doses.sum(axis=1) for t in (none, even))
        stop = int(np.flatnonzero(np.diff(doses_none) == 0)[0]) + 1
        assert stop == 10
        assert none.infectious[stop].sum() < EXTINCTION_THRESHOLD
        np.testing.assert_array_equal(doses_none[:stop], doses_even[:stop])
        assert doses_none[stop - 1] == 33000.0
        assert np.all(doses_none[stop:] == doses_none[stop - 1])
        # the budget lasts until day 15
        assert np.all(np.diff(doses_even[stop - 1:16]) > 0)
        assert doses_even[-1] == pytest.approx(
            0.05 * params.populations.sum(), rel=1e-9)


class TestOptimalStabilizing:
    """The SEIR optimal-stabilizing policy doses the certified allocation
    of the whole budget at the initial state, pro-rated over the epochs."""

    @pytest.mark.parametrize("r0", [1.05, 1.15, 2.5])
    def test_doses_the_certified_plan(self, r0):
        params, state0 = bubar.us_like_instance(r0, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        budget = 0.05 * params.populations.sum()
        _, plan = bubar.solve_bubar_allocation(state0, params, supply=budget)
        assert plan.certificate.satisfied
        traj, = simulate_seir(params, state0,
                              [PolicySpec("optimal-stabilizing")],
                              sched, 300)
        # the epochs' pro-rated doses add up to the plan's within rounding,
        # at most about 4e-12 persons above it
        assert np.all(traj.doses <= plan.dose_vector + 1e-12 * budget)
        assert traj.total_doses() == pytest.approx(budget, rel=1e-9)

    def test_daily_resolve_spends_the_budget(self):
        # each epoch re-solves the allocation of the budget left and fills
        # its groups in order of their dosed share
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.01, total_budget=0.05)
        budget = 0.05 * params.populations.sum()
        _, plan = bubar.solve_bubar_allocation(state0, params, supply=budget)
        daily, = simulate_seir(params, state0, [PolicySpec(
            "optimal-stabilizing", resolve_mode="daily-resolve")], sched, 10)
        first = daily.doses[0]  # after the first epoch
        assert first.sum() == pytest.approx(0.01 * params.populations.sum())
        assert np.argmax(first) == np.argmax(plan.v)
        assert np.all(first[plan.dose_vector == 0] == 0)
        assert daily.total_doses() == pytest.approx(budget, rel=1e-9)


class TestInputChecks:
    @pytest.mark.parametrize("psi", [-0.1, 1.5])
    def test_efficacy_outside_unit_interval_raises(self, psi):
        params, _ = bubar.us_like_instance(1.15, seed=0)
        with pytest.raises(ValueError, match="psi"):
            replace(params, psi=psi)

    def test_zero_efficacy_raises(self):
        params, _ = bubar.us_like_instance(1.15, seed=0)
        with pytest.raises(ValueError, match="psi"):
            replace(params, psi=0.0)

    def test_negative_r0_raises(self):
        params, _ = bubar.us_like_instance(1.15, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            bubar.calibrate_r0(params, -0.5)
