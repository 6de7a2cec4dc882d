import importlib
import json
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.csgraph

import stabvax as sv
from stabvax import _lp, allocator, bubar, ingest, model


def solve_via(inst, alpha, path="auto"):
    prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                   inst.contacts)
    if path == "bilinear":
        return allocator.solve_bilinear(prob, alpha)
    result = allocator.solve_allocation(prob, alpha)
    # "lmi": the problem has a kernel, so the Gram route solved it
    assert path != "lmi" or result.stats.method == "lmi-cutting-plane"
    return result


def indefinite_two_group_instance(target_rt=1.25, psi=0.95):
    """One location, two groups, indefinite intrinsic connectivity."""
    gamma = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues 4 and -2
    ref = np.ones(2)
    cs = sv.ContactStructure(contacts=gamma * (ref / ref.sum())[None, :],
                             reference_pop=ref)
    net = sv.NetworkInstance(tau=[[0.5]], populations=[4000.0],
                             group_populations=[[2500.0, 1500.0]])
    eps, r_a, r_s, kappa = ingest.derive_disease_params(5.0025, 6.2475, 0.0242)
    params = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa, psi=psi,
                              beta=1.0, beta0=np.array([0.8, 0.6]),
                              alpha_hat=0.5)
    state = sv.EpidemicState(s=[0.85, 0.9], xa=[0.03, 0.02],
                             xs=[0.01, 0.01], e=[0.0, 0.0], h=[0.11, 0.07])
    params = sv.calibrate_transmission(net, params, state, target_rt, cs)
    return ingest.EpidemicInstance(net=net, params=params, state0=state,
                                   contacts=cs)


class TestLmiEngine:
    # each case gives a kernel F F' = B^{-1} for the bound B of the
    # constraint diag(u) <= B
    def test_identity_bound_forces_unit_diagonal(self):
        u, stats = sv.lmi_box_maximize(sv.GramKernel(np.eye(3)), np.zeros(3),
                                       np.full(3, 5.0), np.ones(3), np.ones(3))
        assert u == pytest.approx(np.ones(3), abs=1e-8)
        assert stats.converged

    def test_decoupled_diagonal_bound(self):
        rates = np.array([2.0, 0.5, 4.0])
        u, _ = sv.lmi_box_maximize(sv.GramKernel(np.diag(rates)), np.zeros(3),
                                   np.full(3, 100.0), np.ones(3), np.ones(3))
        assert u == pytest.approx(1 / rates, abs=1e-8)

    def test_two_by_two_stationarity(self):
        # bound = Abar^{-1} for the worked mobility matrix; with equal
        # objective weights the slack (a - u1) = (b - u2) = |offdiag|:
        # u = (200, 400), objective 600.
        abar = np.array([[0.5, 0.2], [0.2, 0.35]]) / 180.0
        u, stats = sv.lmi_box_maximize(sv.GramKernel(abar), np.zeros(2),
                                       np.full(2, 1000.0), np.ones(2), np.ones(2))
        assert u.sum() == pytest.approx(600.0, abs=1e-4)
        assert u == pytest.approx([200.0, 400.0], abs=0.05)
        # 1-D scan oracle along the analytic feasibility boundary
        bound = np.linalg.inv(abar)
        a, b = bound[0, 0], bound[1, 1]
        off = bound[0, 1]
        grid = np.arange(0.0, min(a, 1000.0), 0.1)
        u2_max = np.minimum(b - off ** 2 / (a - grid), 1000.0)
        best = (grid + np.clip(u2_max, 0, None)).max()
        assert u.sum() >= best - 0.2

    def test_infeasible_lower_corner(self):
        with pytest.raises(sv.InfeasibleAllocationError):
            sv.lmi_box_maximize(sv.GramKernel(np.eye(2)), np.full(2, 2.0),
                                np.full(2, 3.0), np.ones(2), np.ones(2))

    def test_weighted_objective(self):
        kernel = sv.GramKernel(np.array([[0.5, 0.2], [0.2, 0.35]]) / 180.0)
        heavy_first, _ = sv.lmi_box_maximize(kernel, np.zeros(2),
                                             np.full(2, 1000.0),
                                             np.array([10.0, 1.0]), np.ones(2))
        assert heavy_first[0] > 200.0  # weight shifts the optimum toward u1

    def test_pool_vector_of_another_size_is_ignored(self):
        # one pool reused across two problem sizes keeps the first problem's
        # top eigenvector, of shape (3,); the second solve (above the dense
        # cutoff) must start afresh rather than broadcast it
        small, large = (allocator.build_problem(
            inst.state0, inst.net, inst.params, None)
            for inst in (sv.synthetic_instance(0, n=3),
                         sv.synthetic_instance(1, n=50)))
        pool = allocator.CutPool()
        allocator.solve_allocation(small, 0.0, pool)
        assert pool.vector.shape == (3,)
        pool.rows, pool.basis = [], None  # the cut rows are per problem
        reused = allocator.solve_allocation(large, 0.0, pool)
        assert pool.vector.shape == (50,)
        fresh = allocator.solve_allocation(large, 0.0)
        assert np.array_equal(reused.v, fresh.v)

    def test_top_eig_handles_zero_and_rank_deficient_grams(self):
        # lambda_max of F' diag(u) F from the kernel F F' and the cut F z of
        # a unit top eigenvector z; u = 0 gives a zero Gram matrix, u = e_3 a
        # rank-one one, and 1e-300 e_3 one whose cut scales near underflow
        rng = np.random.default_rng(0)
        factor = rng.random((30, 30))
        kernel = sv.GramKernel(factor @ factor.T)
        for u in (rng.random(30), np.zeros(30), np.eye(30)[3],
                  1e-300 * np.eye(30)[3]):
            gram = factor.T @ (u[:, None] * factor)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lam, cut, _ = model._top_eig(kernel, u)
            assert lam == pytest.approx(np.linalg.eigvalsh(gram)[-1],
                                        rel=1e-12, abs=0)
            z = np.linalg.solve(factor, cut)
            assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-9)
            assert z @ gram @ z == pytest.approx(lam, rel=1e-12, abs=0)


class TestSolvePaths:
    def test_sdp_and_bilinear_agree_on_pd(self):
        for seed in range(5):
            inst = sv.synthetic_instance(seed, n=3, target_rt=1.35)
            sdp = solve_via(inst, 0.01, "lmi")
            bil = solve_via(inst, 0.01, "bilinear")
            assert bil.doses == pytest.approx(sdp.doses, rel=1e-4)
            assert sdp.certificate.satisfied and bil.certificate.satisfied

    def test_indefinite_routes_to_bilinear(self):
        inst = indefinite_two_group_instance()
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts)
        assert prob.kernel is None  # Gamma has no Cholesky factor
        res = allocator.solve_allocation(prob, 0.0)
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied

    def test_indefinite_two_group_matches_grid_oracle(self):
        inst = indefinite_two_group_instance()
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts)
        res = allocator.solve_bilinear(prob, 0.0)
        # brute-force v grid at 1e-3 with exact 2x2 spectral radius
        flow, b1 = prob.flow, prob.b1_per_cell(0.0)
        v1 = np.arange(0.0, prob.s0[0] + 1e-12, 1e-3)
        v2 = np.arange(0.0, prob.s0[1] + 1e-12, 1e-3)
        V1, V2 = np.meshgrid(v1, v2, indexing="ij")
        w1 = b1[0] * (prob.s0[0] - prob.q[0] * V1)
        w2 = b1[1] * (prob.s0[1] - prob.q[1] * V2)
        a = w1 * flow[0, 0]
        d = w2 * flow[1, 1]
        bc = w1 * flow[0, 1] * w2 * flow[1, 0]
        disc = np.sqrt(np.maximum((a - d) ** 2 + 4 * bc, 0.0))
        rho = np.maximum(np.abs(a + d + disc), np.abs(a + d - disc)) / 2
        doses = prob.weights[0] * V1 + prob.weights[1] * V2
        grid_best = doses[rho <= 1.0].min()
        cell = 1e-3 * prob.weights.sum()
        assert abs(res.doses - grid_best) <= cell

    def test_full_immunization_feasibility_sanity(self):
        inst = sv.synthetic_instance(9, n=3, target_rt=1.2)
        res = solve_via(inst, 0.0)
        cap = (inst.net.populations * inst.state0.s).sum()
        assert 0 <= res.doses <= cap

    def test_one_node_closed_form(self):
        inst = sv.synthetic_instance(13, n=1, target_rt=1.2)
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts)
        res = allocator.solve_allocation(prob, 0.0)
        assert res.stats.method == "lmi-cutting-plane"
        _, abar = sv.build_flow_matrix(inst.net)
        cap = prob.scale[0] * prob.s0[0] * prob.b1_per_cell(0.0)[0]
        assert res.u[0] == pytest.approx(min(cap, 1 / abar[0, 0]), rel=1e-6)

    def test_certificate_postcondition_random(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            inst = sv.synthetic_instance(int(rng.integers(1e6)),
                                         n=int(rng.integers(2, 6)),
                                         target_rt=float(rng.uniform(1.0, 1.6)))
            alpha = float(rng.uniform(-0.01, 0.02))
            res = solve_via(inst, alpha)
            assert res.certificate.satisfied
            assert res.certificate.lambda_max <= -alpha + 1e-8


class TestProblemAssembly:
    def test_two_group_coupling_matches_worked_matrix(self):
        net = sv.NetworkInstance(tau=[[0.4, 0.1], [0.1, 0.4]],
                                 populations=[100.0, 200.0],
                                 group_populations=[[80.0, 20.0],
                                                    [100.0, 100.0]])
        gamma = np.array([[20.0, 2.0], [2.0, 4.0]])
        ref = np.ones(2)
        cs = sv.ContactStructure(contacts=gamma * (ref / ref.sum())[None, :],
                                 reference_pop=ref)
        eps, r_a, r_s, kappa = ingest.derive_disease_params(5.0, 6.0, 0.01)
        params = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa,
                                  beta=0.05, beta0=np.array([1.0, 1.0]),
                                  alpha_hat=0.5)
        state = sv.EpidemicState(s=np.full(4, 0.9), xa=np.full(4, 0.05),
                                 xs=np.zeros(4), e=np.zeros(4),
                                 h=np.full(4, 0.05))
        prob = allocator.build_problem(state, net, params, cs)
        expected_aprime = np.array([[40, 1, 20, 2], [4, 2, 2, 4],
                                    [16, 0.4, 35, 3.5], [1.6, 0.8, 3.5, 7]]) / 9
        # Gamma is positive definite: the Gram route, which forms no flow
        assert prob.flow is None
        assert prob.kernel.dense * prob.scale == pytest.approx(expected_aprime,
                                                               abs=1e-12)
        assert model.flow_for_model(net, params, cs) == pytest.approx(
            expected_aprime, abs=1e-12)

    def test_box_respects_later_state(self):
        inst = sv.synthetic_instance(3, n=3, target_rt=1.3)
        sched = sv.VaccinationSchedule(daily_rate=0.005, total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                                  sched, horizon=30)
        later = sv.EpidemicState(s=traj.s[-1], xa=traj.xa[-1], xs=traj.xs[-1],
                                 e=traj.e[-1], h=traj.h[-1], vax=traj.vax[-1])
        res = solve_via(ingest.EpidemicInstance(net=inst.net, params=inst.params,
                                                state0=later,
                                                contacts=inst.contacts), 0.0)
        assert np.all(res.v <= later.s + 1e-12)

    @pytest.mark.parametrize("route", ["gram", "bilinear"])
    def test_zero_transmission_needs_no_doses(self, route):
        # b1 = 0 in every cell: nothing transmits, so v = 0 at every rate
        # and the whole budget buys the bracket top
        inst = sv.synthetic_instance(3, n=2, target_rt=1.1)
        params = replace(inst.params, beta_s=0.0, beta_a=0.0)
        prob = allocator.build_problem(inst.state0, inst.net, params, None)
        solve = (allocator.solve_allocation if route == "gram"
                 else allocator.solve_bilinear)
        for alpha in (0.0, prob.max_rate - 1e-4):
            res = solve(prob, alpha)
            assert res.stats.method == ("lmi-cutting-plane" if route == "gram"
                                        else "bilinear-slp")
            assert res.certificate.satisfied
            assert np.all(res.v == 0) and res.doses == 0
        if route == "bilinear":
            prob = replace(prob, kernel=None,
                           flow=model.flow_for_model(inst.net, params, None))
        alpha, res = allocator.max_decay(prob, 0.05 * inst.net.total_population)
        assert alpha == prob.max_rate - 1e-4
        assert res.doses == 0 and res.certificate.satisfied

    def test_silent_group_gets_no_doses_on_either_route(self):
        # one age group with beta0 = 0 holds zero rows of the coupling; the
        # other groups' doses agree across the routes
        inst = sv.synthetic_instance(0, n=3, groups=True)
        beta0 = inst.params.beta0.copy()
        beta0[2] = 0.0
        params = replace(inst.params, beta0=beta0)
        prob = allocator.build_problem(inst.state0, inst.net, params,
                                       inst.contacts)
        g = inst.net.n_groups
        for alpha in (0.01, 0.015):
            gram = allocator.solve_allocation(prob, alpha)
            bil = allocator.solve_bilinear(prob, alpha)
            assert gram.stats.method == "lmi-cutting-plane"
            assert gram.certificate.satisfied and bil.certificate.satisfied
            assert np.all(gram.v[2::g] == 0) and np.all(bil.v[2::g] == 0)
            assert np.all(bil.direction[2::g] == 0)
            assert gram.doses > 0
            assert bil.doses == pytest.approx(gram.doses, rel=1e-6)
        _, res = allocator.max_decay(prob, 0.05 * inst.net.total_population)
        assert res.certificate.satisfied and np.all(res.v[2::g] == 0)

    def test_silent_group_closed_form_on_the_bilinear_route(self):
        # one location, two groups, the second silent: the first group's
        # condition is the scalar b1 (s0 - q v) K_00 <= 1
        inst = indefinite_two_group_instance(target_rt=4.0)
        params = replace(inst.params,
                         beta0=np.array([inst.params.beta0[0], 0.0]))
        prob = allocator.build_problem(inst.state0, inst.net, params,
                                       inst.contacts)
        assert prob.kernel is None
        res = allocator.solve_allocation(prob, 0.0)
        b1 = prob.b1_per_cell(0.0)[0]
        expected = (prob.s0[0] - 1.0 / (b1 * prob.flow[0, 0])) / prob.q[0]
        assert expected > 0 and res.v[1] == 0
        assert res.v[0] == pytest.approx(expected, rel=1e-9)
        assert res.certificate.satisfied


class TestBinarySearch:
    def test_zero_budget_recovers_unvaccinated_eigenvalue(self):
        inst = sv.synthetic_instance(23, n=3, target_rt=1.2)
        lam = np.max(np.linalg.eigvals(model.infection_submatrix(
            inst.state0.s, inst.net, inst.params)).real)
        alpha, res = sv.max_decay_binary_search(inst.state0, inst.net,
                                                inst.params, None, budget=0.0)
        assert alpha == pytest.approx(-lam, abs=2e-5)
        assert res.doses <= 1e-6

    def test_saturating_budget_reaches_bracket_top(self):
        inst = sv.synthetic_instance(23, n=2, target_rt=1.1)
        params = replace(inst.params, psi=1.0)
        budget = float((inst.net.populations * inst.state0.s).sum())
        alpha, _ = sv.max_decay_binary_search(inst.state0, inst.net, params,
                                              None, budget=budget)
        top = model.max_certificate_rate(params) - 1e-4
        assert alpha == pytest.approx(top, abs=1e-9)

    def test_matches_alpha_grid_oracle(self):
        inst = sv.synthetic_instance(31, n=3, target_rt=1.3)
        budget = 0.1 * inst.net.total_population
        alpha, _ = sv.max_decay_binary_search(inst.state0, inst.net,
                                              inst.params, None, budget)

        def feasible(a):
            try:
                res = solve_via(inst, a)
            except sv.InfeasibleAllocationError:
                return False
            return res.doses <= budget + 1e-6

        grid = np.arange(alpha - 3e-4, alpha + 3e-4, 1e-4)
        best_grid = max(a for a in grid if feasible(a))
        assert abs(alpha - best_grid) <= 2e-4

    def test_negative_budget_rejected(self):
        inst = sv.synthetic_instance(23, n=2, target_rt=1.2)
        with pytest.raises(ValueError):
            sv.max_decay_binary_search(inst.state0, inst.net, inst.params,
                                       None, budget=-1.0)

    def test_bisection_stats_count_every_probe(self, monkeypatch):
        steps, probes = [0], []
        knapsack, minimize = allocator._knapsack, allocator.spectral_box_minimize

        def counted_step(*args):
            steps[0] += 1
            return knapsack(*args)

        def recorded_probe(*args, **kwargs):
            v, d, stats = minimize(*args, **kwargs)
            probes.append(stats)
            return v, d, stats

        monkeypatch.setattr(allocator, "_knapsack", counted_step)
        monkeypatch.setattr(allocator, "spectral_box_minimize", recorded_probe)
        inst = indefinite_two_group_instance()
        _, res = sv.max_decay_binary_search(
            inst.state0, inst.net, inst.params, inst.contacts,
            0.05 * inst.net.total_population)
        assert len(probes) > 1
        assert res.stats.lp_calls == steps[0] > probes[-1].lp_calls
        assert res.stats.lp_calls == sum(p.lp_calls for p in probes)
        assert res.stats.iterations == sum(p.iterations for p in probes)


def covid_problem(seed, n, **kwargs):
    inst = sv.synthetic_instance(seed, n=n, **kwargs)
    return (allocator.build_problem(inst.state0, inst.net, inst.params,
                                    inst.contacts),
            inst.net.total_population)


def seir_problem(r0, seed):
    params, state = bubar.us_like_instance(r0, seed=seed)
    return (bubar.bubar_problem(state, params),
            float(params.populations.sum()))


def uncut_slp(prob, budget):
    """`allocator._slp_min_radius` without its stop at the Collatz-Wielandt
    bound: it tries steps until the trust region falls below 1e-12.
    Returns (v, r, Perron direction, iterations)."""
    K, s0, q, weights = prob.flow, prob.s0, prob.q, prob.weights
    top = float(prob.vmax.max())
    v, trust = np.zeros_like(s0), 0.5 * max(top, 1e-6)
    rho, d, w = allocator._perron_pair(s0[:, None] * K)
    for it in range(1, allocator.SLP_MAX_ITER + 1):
        lo, hi = np.maximum(0.0, v - trust), np.minimum(prob.vmax, v + trust)
        step = hi - allocator._knapsack(
            q * w * (K @ d) / float(w @ d), weights,
            float(weights @ hi) - budget, np.zeros_like(v), hi - lo)
        step *= min(1.0, budget / max(float(weights @ step), 1e-300))
        P = (s0 - q * step)[:, None] * K
        rho_step, d_step = allocator._perron(P)
        if rho_step < rho - allocator.SLP_TOL * rho:
            v, rho, d, w = step, rho_step, d_step, allocator._perron(P.T)[1]
            trust = min(trust * 1.5, top)
        else:
            trust *= 0.5
            if trust < 1e-12 * max(1.0, top):
                break
    return v, rho, d, it


class TestDirectSearch:
    """max_decay on a scalar b1 against the cold bisection of its problem,
    whose alpha is the low end of a 1e-5 bracket."""

    @staticmethod
    def assert_within_cold_bracket(prob, budget):
        alpha, res = allocator.max_decay(prob, budget)
        cold_alpha, cold = cold_problem_bisection(prob, budget)
        assert res.stats.search == "direct"
        assert res.certificate.satisfied and cold.certificate.satisfied
        assert cold_alpha - 1e-9 <= alpha <= cold_alpha + 1e-5 + 1e-9
        assert res.doses <= budget * (1 + 1e-9)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_covid_matches_cold_bisection(self, n):
        for seed in range(4):
            prob, population = covid_problem(seed, n)
            assert prob.kernel is not None
            self.assert_within_cold_bracket(prob, 0.05 * population)

    @pytest.mark.parametrize("r0", [1.05, 1.15, 1.5, 2.5])
    def test_seir_matches_cold_bisection(self, r0):
        for seed in range(4):
            prob, population = seir_problem(r0, seed)
            assert prob.kernel is None
            self.assert_within_cold_bracket(prob, 0.05 * population)

    @pytest.mark.parametrize("case", [("covid", 5), ("covid", 20),
                                      ("covid", 50), ("seir", 1.15),
                                      ("seir", 2.5)])
    def test_rate_root_takes_few_b1_calls(self, case):
        # the closed-form root of b1(alpha) r* = 1 against a bisection of the
        # same test to 1e-15 width, which took 55 b1 calls a solve: one call
        # checks the root, a few more step it down, and one sets the rate
        model_name, size = case
        limit = 4
        for seed in range(4):
            prob, population = (covid_problem(seed, size) if model_name ==
                                "covid" else seir_problem(size, seed))
            budget = 0.05 * population
            radius = (allocator._slp_min_radius(prob, budget)
                      if prob.kernel is None else allocator._gram_min_radius(
                          prob, budget, allocator.CutPool()))[1]
            calls, b1_at = [], prob.b1_at
            prob = replace(prob,
                           b1_at=lambda rate: calls.append(rate) or b1_at(rate))
            alpha, res = allocator.max_decay(prob, budget)
            assert len(calls) <= limit
            assert res.certificate.satisfied
            assert radius * b1_at(alpha) <= 1.0
            bisected, _ = allocator.bisect_rate(
                lambda rate: radius * b1_at(rate) <= 1.0 or None, -2.0,
                prob.max_rate - 1e-4, 1e-15)
            assert abs(alpha - bisected) <= 1e-15

    @pytest.mark.parametrize("case", [("covid", seed) for seed in range(4)]
                             + [("seir", r0) for r0 in (1.05, 1.15, 1.5, 2.5)])
    def test_closed_form_roots(self, case):
        # radii whose roots sweep the bracket, lie within 1e-12 of 0 and
        # near its low end; one ulp of alpha moves r b1 by about ulp /
        # (max_rate - alpha) relative, 2.8e-13 at the bracket top, so the
        # residual is checked to 1e-3 below the top and the top by its root
        model_name, key = case
        prob = (covid_problem(key, 5) if model_name == "covid"
                else seir_problem(key, 0))[0]
        lo, hi = -2.0, prob.max_rate - 1e-4
        near_zero = [sign * 10.0 ** -k for k in (12, 14, 16, 300)
                     for sign in (1, -1)]
        for target in [*np.linspace(lo, hi - 1e-3, 101), lo + 1e-12, 0.0,
                       *near_zero]:
            radius = 1.0 / prob.b1_at(target)
            closed = prob.rate_at_radius(radius)
            alpha = allocator._certified_rate(prob, radius, hi)
            assert radius * prob.b1_at(alpha) <= 1.0
            for rate in (closed, alpha):
                assert abs(radius * prob.b1_at(rate) - 1.0) <= 1e-13
            assert 0.0 <= closed - alpha <= 1e-15
        for target in (hi - 1e-9, hi):
            assert abs(prob.rate_at_radius(1.0 / prob.b1_at(target))
                       - target) <= 4 * np.spacing(hi)
        assert prob.rate_at_radius(0.0) == pytest.approx(prob.max_rate,
                                                         rel=1e-15)

    @pytest.mark.parametrize("r0, seed, iterations", [
        (1.15, 0, (66, 53)), (1.15, 1, (69, 56)), (1.5, 2, (62, 48)),
        (2.5, 0, (66, 53))])
    def test_slp_stops_once_no_step_can_be_accepted(self, r0, seed,
                                                    iterations):
        prob, population = seir_problem(r0, seed)
        v, radius, d, stats = allocator._slp_min_radius(prob,
                                                        0.05 * population)
        ref_v, ref_radius, ref_d, ref_iterations = uncut_slp(
            prob, 0.05 * population)
        assert np.array_equal(v, ref_v) and np.array_equal(d, ref_d)
        assert radius == ref_radius
        assert (ref_iterations, stats.iterations) == iterations
        assert stats.converged and stats.lp_calls == stats.iterations

    def test_converges_when_min_radius_is_far_below_start(self):
        # r* is 0.14 of the unvaccinated radius: measured in that radius, the
        # last 1e-9 of relative gap lay below the LP's feasibility tolerance
        prob, _ = covid_problem(23, 2, target_rt=1.1)
        self.assert_within_cold_bracket(prob,
                                        0.9 * float(prob.weights @ prob.vmax))

    def test_zero_budget_gives_unvaccinated_eigenvalue(self,
                                                        seir_chain_matrix):
        inst = sv.synthetic_instance(23, n=3, target_rt=1.2)
        covid_lam = np.max(np.linalg.eigvals(model.infection_submatrix(
            inst.state0.s, inst.net, inst.params)).real)
        params, state = bubar.us_like_instance(1.15, seed=0)
        seir_lam = np.max(np.linalg.eigvals(seir_chain_matrix(
            state, params, np.zeros(params.n_groups))).real)
        for prob, lam in ((covid_problem(23, 3, target_rt=1.2)[0], covid_lam),
                          (seir_problem(1.15, 0)[0], seir_lam)):
            alpha, res = allocator.max_decay(prob, 0.0)
            assert res.stats.search == "direct"
            assert alpha == pytest.approx(-lam, rel=0, abs=1e-9)
            assert res.doses == 0.0

    def test_budget_short_of_bracket_low_end_raises(self):
        for prob, population in (covid_problem(0, 3, target_rt=100.0),
                                 seir_problem(100.0, 0)):
            with pytest.raises(sv.InfeasibleAllocationError):
                allocator.max_decay(prob, 0.01 * population)

    def test_stats_count_the_one_solve(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("the direct search makes no bisection probe")

        steps, lps, pools = [0], [0], []
        knapsack, solve_lp = allocator._knapsack, _lp.solve
        real_pool = allocator.CutPool

        def counted_step(*args):
            steps[0] += 1
            return knapsack(*args)

        def counted_lp(*args, **kwargs):
            lps[0] += 1
            return solve_lp(*args, **kwargs)

        def tracked_pool():
            pools.append(real_pool())
            return pools[-1]

        monkeypatch.setattr(allocator, "spectral_box_minimize", no_probe)
        monkeypatch.setattr(allocator, "lmi_box_maximize", no_probe)
        monkeypatch.setattr(allocator, "_knapsack", counted_step)
        monkeypatch.setattr(_lp, "solve", counted_lp)
        monkeypatch.setattr(allocator, "CutPool", tracked_pool)
        prob, population = seir_problem(1.15, 0)
        _, res = allocator.max_decay(prob, 0.05 * population)
        assert res.stats.method == "bilinear-slp"
        assert res.stats.lp_calls == res.stats.iterations == steps[0] > 0
        assert lps[0] == 0 and not pools
        prob, population = covid_problem(0, 20)
        _, res = allocator.max_decay(prob, 0.05 * population)
        assert res.stats.method == "lmi-cutting-plane"
        assert len(pools) == 1
        assert res.stats.lp_calls == lps[0] == pools[0].lp_calls > 1
        assert res.stats.cuts == len(pools[0].rows) > 1
        assert res.stats.iterations == res.stats.lp_calls + 1

    @pytest.mark.parametrize("route", ["gram", "bilinear"])
    def test_bracket_top_counts_both_solves(self, route, monkeypatch):
        # the whole supply buys the bracket top, so the search solves that
        # rate once more and spends only what it needs
        if route == "gram":
            inst = sv.synthetic_instance(23, n=2, target_rt=1.1)
            prob = allocator.build_problem(
                inst.state0, inst.net, replace(inst.params, psi=1.0), None)
            budget = float(prob.weights @ prob.vmax)
            names = ("_gram_min_radius", "lmi_box_maximize")
        else:
            params, state = bubar.us_like_instance(1.15, seed=0, psi=1.0)
            prob = bubar.bubar_problem(state, params)
            budget = float(params.populations.sum())
            names = ("_slp_min_radius", "spectral_box_minimize")
        stats = {name: [] for name in names}

        def recorded(name, solve):
            def wrapped(*args, **kwargs):
                out = solve(*args, **kwargs)
                stats[name].append(out[-1])
                return out
            return wrapped

        for name in names:
            monkeypatch.setattr(allocator, name,
                                recorded(name, getattr(allocator, name)))
        alpha, res = allocator.max_decay(prob, budget)
        assert alpha == prob.max_rate - 1e-4
        assert res.certificate.satisfied
        assert res.doses <= budget * (1 + 1e-9)
        assert res.stats.search == "direct"
        (search,), (top,) = stats[names[0]], stats[names[1]]
        for key in ("iterations", "cuts", "lp_calls"):
            assert getattr(res.stats, key) == (getattr(search, key)
                                               + getattr(top, key)), key
        if route == "bilinear":
            assert alpha == pytest.approx(0.1999, abs=1e-12)
            assert res.doses == pytest.approx(998726.4913, rel=1e-9)


class TestAllocationProperties:
    def test_doses_monotone_in_alpha(self):
        for seed in (40, 41):
            inst = sv.synthetic_instance(seed, n=3, target_rt=1.3)
            doses = [solve_via(inst, a).doses
                     for a in (-0.02, 0.0, 0.01, 0.02, 0.03)]
            assert np.all(np.diff(doses) >= -1e-6 * max(doses))

    def test_doses_monotone_in_efficacy(self):
        inst = sv.synthetic_instance(44, n=3, target_rt=1.3)
        doses = []
        for psi in (0.6, 0.8, 0.95, 1.0):
            params = replace(inst.params, psi=psi)
            bumped = ingest.EpidemicInstance(net=inst.net, params=params,
                                             state0=inst.state0)
            doses.append(solve_via(bumped, 0.005).doses)
        assert np.all(np.diff(doses) <= 1e-6 * max(doses))

    def test_scale_invariance_in_population(self):
        inst = sv.synthetic_instance(45, n=3, target_rt=1.25)
        res = solve_via(inst, 0.01)
        scaled_net = sv.NetworkInstance(tau=inst.net.tau,
                                        populations=10 * inst.net.populations)
        scaled_params = sv.calibrate_transmission(
            scaled_net, inst.params, inst.state0,
            sv.effective_reproduction_number(inst.state0, inst.net, inst.params))
        res10 = solve_via(ingest.EpidemicInstance(net=scaled_net,
                                                  params=scaled_params,
                                                  state0=inst.state0), 0.01)
        assert res10.doses == pytest.approx(10 * res.doses, rel=1e-6)
        assert res10.v == pytest.approx(res.v, abs=1e-8)

    def test_infeasible_rate_reported_distinctly(self):
        inst = sv.synthetic_instance(50, n=2, target_rt=4.0)
        params = replace(inst.params, psi=0.5)
        prob = allocator.build_problem(inst.state0, inst.net, params, None)
        assert prob.kernel is not None  # solve_allocation takes the LMI
        with pytest.raises(sv.InfeasibleAllocationError):
            allocator.solve_allocation(prob, 0.0)
        with pytest.raises(sv.InfeasibleAllocationError):
            allocator.solve_bilinear(prob, 0.0)


class TestSearchEnds:
    """The ends of the rate search: an affordable bracket top, and a final
    solve that lands above the budget."""

    def test_bisect_rate_returns_an_affordable_top(self):
        tried = []
        rate, found = allocator.bisect_rate(
            lambda rate: tried.append(rate) or ("fits", rate), -2.0, 0.5, 1e-5)
        assert (rate, found) == (0.5, ("fits", 0.5))
        assert tried == [-2.0, 0.5]

    @pytest.mark.parametrize("seed", range(2))
    def test_final_solve_over_budget_takes_the_search_point(self, seed,
                                                           monkeypatch):
        # a bisected covid problem; its final solve is made to overshoot
        prob, population = covid_problem(seed, 5)
        prob = replace(prob, rate_at_radius=None)
        budget = 0.05 * population
        cap = budget + 1e-9 * (1.0 + budget)
        solve, final = allocator.solve_allocation, []

        def overshooting(prob, alpha, pool=None):
            result = solve(prob, alpha, pool)
            final.append(result)
            return replace(result, v=2.0 * result.v, doses=2.0 * cap)

        monkeypatch.setattr(allocator, "solve_allocation", overshooting)
        alpha, res = allocator.max_decay(prob, budget)
        assert len(final) == 1 and res.stats.search == "bisection"
        assert res.doses <= cap
        assert res.certificate.satisfied
        assert np.all(res.v <= prob.vmax)
        assert res.alpha == alpha


def indefinite_problem():
    inst = indefinite_two_group_instance()
    return (allocator.build_problem(inst.state0, inst.net, inst.params,
                                    inst.contacts), inst.net.total_population)


class TestRateFreeProblem:
    """A problem holds no rate: one problem solved at several rates and then
    searched gives answers bit-equal to fresh problems', and keeps every field
    as it was."""

    CASES = {"gram": lambda: covid_problem(0, 5),
             "gram-age": lambda: covid_problem(0, 2, groups=True),
             "bilinear-indefinite": indefinite_problem,
             "seir": lambda: seir_problem(1.15, 0)}

    @pytest.mark.parametrize("case", CASES)
    def test_solves_leave_the_problem_as_fresh(self, case):
        make = self.CASES[case]
        prob, population = make()
        before = {f.name: getattr(prob, f.name) for f in fields(prob)}
        values = {name: value.copy() for name, value in before.items()
                  if isinstance(value, np.ndarray)}
        budget = 0.05 * population
        rates = (0.0, -0.01, 0.005)

        def answers(problem):
            docs = [allocator.result_to_dict(
                allocator.solve_allocation(problem(), alpha))
                for alpha in rates]
            alpha, res = allocator.max_decay(problem(), budget)
            return docs + [alpha, allocator.result_to_dict(res)]

        reused = answers(lambda: prob)
        fresh = answers(lambda: make()[0])
        assert reused == fresh
        assert all(getattr(prob, name) is value
                   for name, value in before.items())
        assert all(np.array_equal(getattr(prob, name), value)
                   for name, value in values.items())


def cold_problem_bisection(prob, budget, width=1e-5):
    """Reference bisection: a full, certified solve at every probe."""
    cap = budget + 1e-9 * (1.0 + budget)

    def attempt(alpha):
        try:
            res = allocator.solve_allocation(prob, alpha)
        except sv.InfeasibleAllocationError:
            return None
        return res if res.doses <= cap else None

    return allocator.bisect_rate(attempt, -2.0, prob.max_rate - 1e-4, width)


def cold_bisection(inst, budget, width=1e-5):
    return cold_problem_bisection(
        allocator.build_problem(inst.state0, inst.net, inst.params,
                                inst.contacts), budget, width)


class TestCertifiedOrRaise:
    def test_nudged_allocation_raises(self, nudged_gram_route):
        inst = sv.synthetic_instance(0, n=5)
        with pytest.raises(sv.SolverError, match="certificate"):
            solve_via(inst, 0.0)

    # the benchmark's alloc-mix operations on the covid models: (model, n,
    # budget fraction, or None for the alpha = 0 solve)
    ALLOC_MIX = ([("covid", n, 0.05) for n in (5, 20, 50)]
                 + [("covid", n, None) for n in (100, 200)]
                 + [("covid-demographic", n, 0.05) for n in (5, 10, 20)])

    @pytest.mark.parametrize("model_name, n, budget", ALLOC_MIX)
    @pytest.mark.parametrize("seed", range(3))
    def test_benchmark_allocations_match_dense_certificate(
            self, seed, model_name, n, budget, monkeypatch):
        # each certificate is the bracket's upper end; dense eigvals of the
        # infection block M confirm it and agree with its lambda_max to 1e-9
        # of max(|lambda_max|, the rate limit), the scale alpha lives on
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                        / "bench"))
        inst = importlib.import_module("checks").build_instance(
            model_name, n, seed)
        if budget is None:
            alpha = 0.0
            result = allocator.solve_allocation(allocator.build_problem(
                inst.state0, inst.net, inst.params, inst.contacts), alpha)
        else:
            alpha, result = sv.max_decay_binary_search(
                inst.state0, inst.net, inst.params, inst.contacts,
                budget * inst.net.total_population)
        s_post = np.clip(inst.state0.s - inst.params.psi * result.v, 0, None)
        lam = np.max(np.linalg.eigvals(model.infection_submatrix(
            s_post, inst.net, inst.params, inst.contacts)).real)
        cert = result.certificate
        assert cert.satisfied and lam <= -alpha + model.CERTIFICATE_TOL
        scale = max(abs(lam), model.max_certificate_rate(inst.params))
        assert abs(cert.lambda_max - lam) <= 1e-9 * scale


class TestGramRoute:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_gram_and_bilinear_agree(self, n):
        for seed in range(5):
            inst = sv.synthetic_instance(seed, n=n)
            gram = solve_via(inst, 0.0, "lmi")
            bil = solve_via(inst, 0.0, "bilinear")
            assert gram.certificate.satisfied and bil.certificate.satisfied
            assert gram.doses == pytest.approx(bil.doses, rel=1e-6)

    @pytest.mark.parametrize("n", [100, 200])
    def test_large_instances_take_gram_route(self, n):
        res = solve_via(sv.synthetic_instance(0, n=n), 0.0)
        assert res.stats.method == "lmi-cutting-plane"
        assert res.certificate.satisfied

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_pooled_bisection_matches_cold(self, n):
        inst = sv.synthetic_instance(0, n=n, groups=True)
        budget = 0.05 * inst.net.total_population
        alpha, res = sv.max_decay_binary_search(inst.state0, inst.net,
                                                inst.params, inst.contacts,
                                                budget)
        cold_alpha, cold = cold_bisection(inst, budget)
        assert res.certificate.satisfied and cold.certificate.satisfied
        assert res.doses <= budget * (1 + 1e-9)
        assert alpha >= cold_alpha - 1e-5
        assert res.stats.lp_calls >= res.stats.cuts > 0

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_settled_probes_match_full_accuracy(self, n, monkeypatch):
        # probes whose eigensolves stop once their bracket decides the probe
        # against probes that close every bracket to 1e-12
        full = model._top_eig
        for seed in range(4):
            inst = sv.synthetic_instance(seed, n=n, groups=True)
            args = (inst.state0, inst.net, inst.params, inst.contacts,
                    0.05 * inst.net.total_population)
            monkeypatch.setattr(allocator, "_top_eig", full)
            alpha, res = sv.max_decay_binary_search(*args)
            monkeypatch.setattr(
                allocator, "_top_eig",
                lambda *a, settle=None, **kw: full(*a, **kw))
            full_alpha, full_res = sv.max_decay_binary_search(*args)
            assert alpha == full_alpha
            assert res.doses == pytest.approx(full_res.doses, rel=1e-7)
            assert res.certificate.satisfied and full_res.certificate.satisfied

    def test_budgeted_search_kernel_work(self, monkeypatch):
        # kernel applications of the 5%-budget search on age n=10 (60
        # cells, all on the power path); it made 1,339 when every probe
        # closed its brackets to 1e-12, and 347 with settled probes
        inst = sv.synthetic_instance(0, n=10, groups=True)
        calls, matvec = [], sv.GramKernel.__matmul__
        monkeypatch.setattr(
            sv.GramKernel, "__matmul__",
            lambda kernel, y: calls.append(1) or matvec(kernel, y))
        _, res = sv.max_decay_binary_search(inst.state0, inst.net, inst.params,
                                            inst.contacts,
                                            0.05 * inst.net.total_population)
        assert res.certificate.satisfied
        assert 0 < len(calls) <= 0.4 * 1339

    def test_route_does_not_depend_on_units(self):
        inst = sv.synthetic_instance(0, n=3, groups=True)
        scaled_cs = sv.ContactStructure(contacts=1e-6 * inst.contacts.contacts,
                                        reference_pop=inst.contacts.reference_pop)
        scaled_net = sv.NetworkInstance(
            tau=inst.net.tau, populations=10 * inst.net.populations,
            group_populations=10 * inst.net.group_populations)
        for net, cs in ((inst.net, inst.contacts), (scaled_net, inst.contacts),
                        (inst.net, scaled_cs)):
            prob = allocator.build_problem(inst.state0, net, inst.params, cs)
            assert prob.kernel is not None and prob.flow is None
            flow = model.flow_for_model(net, inst.params, cs)
            gram = prob.kernel.dense * prob.scale[None, :]
            assert gram == pytest.approx(
                flow, rel=1e-9, abs=1e-12 * np.abs(flow).max())
        indefinite = indefinite_two_group_instance()
        tiny = sv.ContactStructure(contacts=1e-6 * indefinite.contacts.contacts,
                                   reference_pop=indefinite.contacts.reference_pop)
        assert sv.coupling_gram_kernel(indefinite.net, indefinite.params,
                                       tiny) is None


class TestSerialization:
    def test_result_round_trip_json(self):
        inst = sv.synthetic_instance(60, n=2, target_rt=1.2)
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       None)
        res = allocator.solve_allocation(prob, 0.0)
        rd = json.loads(json.dumps(allocator.result_to_dict(res)))
        assert np.asarray(rd["v"]) == pytest.approx(res.v)
        assert rd["certificate"]["satisfied"] is True
        assert rd["certificate"]["margin"] == pytest.approx(
            -res.alpha - res.certificate.lambda_max)
        assert rd["solver"]["lp_calls"] == res.stats.lp_calls
        assert rd["doses"] == pytest.approx(res.doses)


def random_knapsack(rng, m, grid):
    """A one-row LP min cost'x s.t. gain'x >= need, lo <= x <= hi. On the
    grid, costs and gains take few values: zeros and tied ratios abound."""
    if grid:
        cost, gain = rng.integers(0, 3, m) / 2.0, rng.integers(0, 3, m) / 2.0
    else:
        cost, gain = rng.uniform(0, 2, m), rng.uniform(0, 1, m)
        cost[rng.random(m) < 0.2] = 0.0
        gain[rng.random(m) < 0.2] = 0.0
    lo = rng.uniform(0, 1, m)
    hi = lo + rng.uniform(0, 1, m) * (rng.random(m) < 0.9)
    need = gain @ lo + rng.uniform(-0.3, 1.3) * (gain @ (hi - lo))
    return cost, gain, need, lo, hi


class TestKnapsackStep:
    @pytest.mark.parametrize("m", [1, 5, 9, 40])
    def test_matches_highs(self, m):
        outcomes = {"lower corner": 0, "raised": 0, "infeasible": 0}
        for seed in range(60):
            rng = np.random.default_rng(seed)
            cost, gain, need, lo, hi = random_knapsack(rng, m, grid=seed % 2)
            x = allocator._knapsack(cost, gain, need, lo, hi)
            res = scipy.optimize.linprog(cost, A_ub=-gain[None, :],
                                         b_ub=[-need], bounds=np.c_[lo, hi],
                                         method="highs")
            if res.status == 2:
                assert x is None, seed
                outcomes["infeasible"] += 1
                continue
            assert res.success and x is not None, seed
            assert cost @ x == pytest.approx(res.fun, rel=1e-9, abs=1e-12)
            assert np.all(lo <= x) and np.all(x <= hi)
            assert gain @ x >= need - 1e-12 * max(1.0, abs(need))
            if gain @ lo >= need:
                assert np.array_equal(x, lo)
                outcomes["lower corner"] += 1
            else:
                outcomes["raised"] += 1
        assert min(outcomes.values()) > 0, outcomes


def strongly_connected_oracle(adj: np.ndarray) -> bool:
    n_comp, _ = scipy.sparse.csgraph.connected_components(adj,
                                                          connection="strong")
    return n_comp <= 1


def named_digraphs():
    cycle = np.roll(np.eye(6, dtype=bool), 1, axis=1)
    blocks = np.zeros((6, 6), dtype=bool)
    blocks[:3, :3] = blocks[3:, 3:] = True
    dag = np.triu(np.ones((6, 6), dtype=bool), k=1)
    return {"cycle": cycle, "two blocks": blocks, "dag": dag,
            "one node": np.zeros((1, 1), dtype=bool)}


class TestReducibility:
    @pytest.mark.parametrize("name", sorted(named_digraphs()))
    def test_named_graphs_match_scipy(self, name):
        adj = named_digraphs()[name]
        assert allocator._strongly_connected(adj) == \
            strongly_connected_oracle(adj)
        assert allocator._strongly_connected(adj) == (name in ("cycle",
                                                              "one node"))

    def test_random_sparse_graphs_match_scipy(self):
        outcomes = {True: 0, False: 0}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 30))
            adj = rng.random((m, m)) < rng.uniform(0.02, 0.3)
            verdict = allocator._strongly_connected(adj)
            assert verdict == strongly_connected_oracle(adj), seed
            outcomes[verdict] += 1
        assert min(outcomes.values()) > 20, outcomes

    @pytest.mark.parametrize("K, reducible", [
        ([[2.0, 1.0], [0.0, 2.0]], True),
        ([[2.0, 1.0], [1.0, 2.0]], False)])
    def test_bilinear_route_warns_on_reducible_coupling(self, K, reducible):
        args = (np.array(K), np.ones(2), np.ones(2), np.ones(2), np.ones(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = allocator.spectral_box_minimize(*args)[0]
        assert [("reducible" in str(w.message)) for w in caught] == \
            ([True] if reducible else [])
        rho = allocator._perron((1.0 - v)[:, None] * np.array(K))[0]
        assert rho <= 1.0 + 1e-9 and np.all(v > 0)


class TestScaleInvariance:
    """Calibration to Rt (R0) scales b1 alone in the scalar-chain models, so
    the largest decay rate a budget buys is the least radius of diag(s -
    psi v) A under the budget, whatever the rates: the budgeted plan's dose
    shares are the same, bit for bit, at every Rt."""

    SHARE = 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogeneous_plan_does_not_depend_on_rt(self, seed):
        shares = []
        for rt in (1.1, 1.5, 2.5):
            inst = sv.synthetic_instance(seed, n=5, target_rt=rt)
            _, result = allocator.max_decay_binary_search(
                inst.state0, inst.net, inst.params, inst.contacts,
                self.SHARE * inst.net.total_population)
            shares.append(result.dose_vector / result.doses)
        for other in shares[1:]:
            assert np.array_equal(other, shares[0])

    def test_seir_plan_does_not_depend_on_r0(self):
        shares = []
        for r0 in (1.05, 1.5, 2.5):
            params, state0 = bubar.us_like_instance(r0)
            _, result = bubar.solve_bubar_allocation(
                state0, params, supply=self.SHARE * params.populations.sum())
            shares.append(result.dose_vector / result.doses)
        for other in shares[1:]:
            assert np.array_equal(other, shares[0])
