import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import stabvax as sv
from stabvax import allocator, ingest, model


def solve_via(inst, alpha, path="auto"):
    prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                   inst.contacts, alpha)
    if path == "lmi":
        return allocator.solve_diagonal_lmi(prob)
    if path == "bilinear":
        return allocator.solve_bilinear(prob)
    return allocator.solve_allocation(prob)


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
    # each case gives a factor F with F F' = B^{-1} for the bound B of the
    # constraint diag(u) <= B
    def test_identity_bound_forces_unit_diagonal(self):
        u, stats = sv.lmi_box_maximize(np.eye(3), np.zeros(3),
                                       np.full(3, 5.0), np.ones(3))
        assert u == pytest.approx(np.ones(3), abs=1e-8)
        assert stats.converged

    def test_decoupled_diagonal_bound(self):
        rates = np.array([2.0, 0.5, 4.0])
        u, _ = sv.lmi_box_maximize(np.diag(np.sqrt(rates)), np.zeros(3),
                                   np.full(3, 100.0), np.ones(3))
        assert u == pytest.approx(1 / rates, abs=1e-8)

    def test_two_by_two_stationarity(self):
        # bound = Abar^{-1} for the worked mobility matrix; with equal
        # objective weights the slack (a - u1) = (b - u2) = |offdiag|:
        # u = (200, 400), objective 600.
        abar = np.array([[0.5, 0.2], [0.2, 0.35]]) / 180.0
        u, stats = sv.lmi_box_maximize(np.linalg.cholesky(abar), np.zeros(2),
                                       np.full(2, 1000.0), np.ones(2))
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
            sv.lmi_box_maximize(np.eye(2), np.full(2, 2.0), np.full(2, 3.0),
                                np.ones(2))

    def test_weighted_objective(self):
        factor = np.linalg.cholesky(np.array([[0.5, 0.2], [0.2, 0.35]]) / 180.0)
        heavy_first, _ = sv.lmi_box_maximize(factor, np.zeros(2),
                                             np.full(2, 1000.0),
                                             np.array([10.0, 1.0]))
        assert heavy_first[0] > 200.0  # weight shifts the optimum toward u1


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
                                       inst.contacts, 0.0)
        assert prob.factor is None  # Gamma has no Cholesky factor
        with pytest.raises(sv.NotPositiveDefiniteError):
            allocator.solve_diagonal_lmi(prob)
        res = allocator.solve_allocation(prob)
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied

    def test_indefinite_two_group_matches_grid_oracle(self):
        inst = indefinite_two_group_instance()
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts, 0.0)
        res = allocator.solve_bilinear(prob)
        # brute-force v grid at 1e-3 with exact 2x2 spectral radius
        flow = prob.coupling * prob.populations[None, :]
        v1 = np.arange(0.0, prob.s0[0] + 1e-12, 1e-3)
        v2 = np.arange(0.0, prob.s0[1] + 1e-12, 1e-3)
        V1, V2 = np.meshgrid(v1, v2, indexing="ij")
        w1 = prob.b1[0] * (prob.s0[0] - prob.psi * V1)
        w2 = prob.b1[1] * (prob.s0[1] - prob.psi * V2)
        a = w1 * flow[0, 0]
        d = w2 * flow[1, 1]
        bc = w1 * flow[0, 1] * w2 * flow[1, 0]
        disc = np.sqrt(np.maximum((a - d) ** 2 + 4 * bc, 0.0))
        rho = np.maximum(np.abs(a + d + disc), np.abs(a + d - disc)) / 2
        doses = prob.populations[0] * V1 + prob.populations[1] * V2
        grid_best = doses[rho <= 1.0].min()
        cell = 1e-3 * prob.populations.sum()
        assert abs(res.doses - grid_best) <= cell

    def test_full_immunization_feasibility_sanity(self):
        inst = sv.synthetic_instance(9, n=3, target_rt=1.2)
        res = solve_via(inst, 0.0)
        cap = (inst.net.populations * inst.state0.s).sum()
        assert 0 <= res.doses <= cap

    def test_one_node_closed_form(self):
        inst = sv.synthetic_instance(13, n=1, target_rt=1.2)
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts, 0.0)
        res = allocator.solve_diagonal_lmi(prob)
        _, abar = sv.build_flow_matrix(inst.net)
        cap = prob.box_upper()[0]
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
        prob = allocator.build_problem(state, net, params, cs, 0.0)
        expected_aprime = np.array([[40, 1, 20, 2], [4, 2, 2, 4],
                                    [16, 0.4, 35, 3.5], [1.6, 0.8, 3.5, 7]]) / 9
        assert prob.coupling * prob.populations[None, :] == pytest.approx(
            expected_aprime, abs=1e-12)

    def test_box_respects_later_state(self):
        from stabvax import dynamics, policies
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

    def test_zero_transmission_rejected(self):
        inst = sv.synthetic_instance(3, n=2, target_rt=1.1)
        params = replace(inst.params, beta_s=0.0, beta_a=0.0)
        with pytest.raises(ValueError):
            allocator.build_problem(inst.state0, inst.net, params, None, 0.0)


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
        prob = allocator.build_problem(inst.state0, inst.net, params, None, 0.0)
        with pytest.raises(sv.InfeasibleAllocationError):
            allocator.solve_diagonal_lmi(prob)
        with pytest.raises(sv.InfeasibleAllocationError):
            allocator.solve_bilinear(prob)


def cold_bisection(inst, budget, width=1e-5):
    """Reference bisection: a full, certified solve at every probe."""
    cap = budget + 1e-9 * (1.0 + budget)

    def attempt(alpha):
        try:
            res = solve_via(inst, alpha)
        except sv.InfeasibleAllocationError:
            return None
        return res if res.doses <= cap else None

    top = model.max_certificate_rate(inst.params) - 1e-4
    return allocator.bisect_rate(attempt, -2.0, top, width)


class TestCertifiedOrRaise:
    def test_nudged_allocation_raises(self, nudged_gram_route):
        inst = sv.synthetic_instance(0, n=5)
        with pytest.raises(sv.SolverError, match="certificate"):
            solve_via(inst, 0.0)


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

    def test_route_does_not_depend_on_units(self):
        inst = sv.synthetic_instance(0, n=3, groups=True)
        scaled_cs = sv.ContactStructure(contacts=1e-6 * inst.contacts.contacts,
                                        reference_pop=inst.contacts.reference_pop)
        scaled_net = sv.NetworkInstance(
            tau=inst.net.tau, populations=10 * inst.net.populations,
            group_populations=10 * inst.net.group_populations)
        for net, cs in ((inst.net, inst.contacts), (scaled_net, inst.contacts),
                        (inst.net, scaled_cs)):
            prob = allocator.build_problem(inst.state0, net, inst.params, cs, 0.0)
            assert prob.factor is not None
            assert prob.factor @ prob.factor.T == pytest.approx(
                prob.coupling, rel=1e-9, abs=1e-12 * np.abs(prob.coupling).max())
        indefinite = indefinite_two_group_instance()
        tiny = sv.ContactStructure(contacts=1e-6 * indefinite.contacts.contacts,
                                   reference_pop=indefinite.contacts.reference_pop)
        assert sv.coupling_gram_factor(indefinite.net, tiny) is None


class TestSerialization:
    def test_problem_and_result_round_trip_json(self):
        inst = sv.synthetic_instance(60, n=2, target_rt=1.2)
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       None, 0.0)
        res = allocator.solve_allocation(prob)
        pd = json.loads(json.dumps(allocator.problem_to_dict(prob)))
        rd = json.loads(json.dumps(allocator.result_to_dict(res)))
        assert np.asarray(pd["coupling"]) == pytest.approx(prob.coupling)
        assert np.asarray(rd["v"]) == pytest.approx(res.v)
        assert rd["certificate"]["satisfied"] is True
        assert rd["certificate"]["margin"] == pytest.approx(
            -res.alpha - res.certificate.lambda_max)
        assert rd["solver"]["lp_calls"] == res.stats.lp_calls
        assert rd["doses"] == pytest.approx(res.doses)
