import importlib
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import stabvax as sv
from stabvax import allocator, dynamics, ingest, model


def two_group_network():
    return sv.NetworkInstance(tau=[[0.4, 0.1], [0.1, 0.4]],
                              populations=[100.0, 200.0],
                              group_populations=[[80.0, 20.0], [100.0, 100.0]])


def toy_contacts(gamma):
    gamma = np.asarray(gamma, dtype=float)
    ref = np.ones(gamma.shape[0])
    return sv.ContactStructure(contacts=gamma * (ref / ref.sum())[None, :],
                               reference_pop=ref)


def homogeneous_params(beta_s=0.3, beta_a=0.1, psi=0.95):
    eps, r_a, r_s, kappa = ingest.derive_disease_params(
        ingest.DEFAULT_ASYMPTOMATIC_PERIOD, ingest.DEFAULT_SYMPTOMATIC_PERIOD,
        ingest.DEFAULT_MEAN_IFR)
    return sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa,
                            beta_s=beta_s, beta_a=beta_a, psi=psi)


def random_network(rng, n):
    weights = rng.uniform(0.1, 1.0, (n, n)) + np.eye(n)
    row_sums = rng.uniform(0.3, 0.7, n)
    tau = weights / weights.sum(axis=1, keepdims=True) * row_sums[:, None]
    pops = rng.uniform(1e3, 1e5, n)
    return sv.NetworkInstance(tau=tau, populations=pops)


class TestNetworkInstance:
    def test_rejects_row_sums_above_one(self):
        with pytest.raises(ValueError):
            sv.NetworkInstance(tau=[[0.9, 0.3]] * 2, populations=[1.0, 1.0])

    def test_rejects_group_mismatch(self):
        with pytest.raises(ValueError):
            sv.NetworkInstance(tau=[[0.5]], populations=[100.0],
                               group_populations=[[40.0, 40.0]])

    def test_validated_record_is_read_only(self):
        tau = np.array([[0.4, 0.1], [0.1, 0.4]])
        net = sv.NetworkInstance(tau=tau, populations=[100.0, 200.0],
                                 group_populations=[[80.0, 20.0], [100.0, 100.0]])
        with pytest.raises(FrozenInstanceError):
            net.tau = np.eye(2)
        for arr in (net.tau, net.populations, net.group_populations,
                    *sv.build_flow_matrix(net)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # the record holds its own copy: the caller's array stays writable
        tau[0, 0] = 0.0
        assert net.tau[0, 0] == 0.4


class TestPickledRecords:
    """A record that crosses a process pool arrives read-only, cache and
    all, so a worker neither rebuilds nor can stale the coupling."""

    @pytest.mark.parametrize("groups", [False, True], ids=["covid", "age"])
    def test_round_trip_stays_read_only(self, groups, monkeypatch):
        import pickle

        inst = ingest.synthetic_instance(0, 5, groups=groups)
        flow, abar = sv.build_flow_matrix(inst.net)
        if groups:
            assert inst.contacts._gamma_is_gram
        copy = pickle.loads(pickle.dumps(inst))
        calls = []
        monkeypatch.setattr(model, "_flow_pair",
                            lambda *args: calls.append(1))
        copied_flow, copied_abar = sv.build_flow_matrix(copy.net)
        assert calls == []
        assert np.array_equal(copied_flow, flow)
        assert np.array_equal(copied_abar, abar)
        arrays = [copy.net.tau, copy.net.populations, copied_flow, copied_abar]
        if groups:
            arrays += [copy.net.group_populations, copy.contacts.contacts,
                       copy.contacts.reference_pop]
            assert "gamma" in vars(copy.contacts)
            arrays.append(copy.contacts.gamma)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            copy.net.tau = copy.net.tau


class TestFlowMatrix:
    def test_single_closed_location(self):
        net = sv.NetworkInstance(tau=[[1.0]], populations=[50.0])
        flow, abar = sv.build_flow_matrix(net)
        assert abar == pytest.approx(np.array([[1 / 50.0]]))
        assert flow == pytest.approx(np.array([[1.0]]))

    def test_worked_two_group_example(self):
        # m(1) = 60, m(2) = 90, Abar = (1/180) [[0.5, 0.2], [0.2, 0.35]]
        net = two_group_network()
        mass = net.tau.T @ net.populations
        assert mass == pytest.approx([60.0, 90.0])
        _, abar = sv.build_flow_matrix(net)
        expected = np.array([[0.5, 0.2], [0.2, 0.35]]) / 180.0
        assert np.abs(abar - expected).max() < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 3)
        flow, abar = sv.build_flow_matrix(net)
        n = net.n
        mass = np.array([net.populations @ net.tau[:, l] for l in range(n)])
        abar_ref = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                abar_ref[i, j] = sum(net.tau[i, l] * net.tau[j, l] / mass[l]
                                     for l in range(n))
        assert abar == pytest.approx(abar_ref, abs=1e-15)
        assert flow == pytest.approx(abar_ref * net.populations[None, :])

    def test_empty_column_contributes_zero(self):
        net = sv.NetworkInstance(tau=[[0.5, 0.0], [0.7, 0.0]],
                                 populations=[10.0, 10.0])
        _, abar = sv.build_flow_matrix(net)
        assert np.all(np.isfinite(abar))
        assert abar[0, 0] == pytest.approx(0.25 / (0.5 * 10 + 0.7 * 10)
                                           + 0.0)

    def test_gram_factor_is_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 7)))
            _, abar = sv.build_flow_matrix(net)
            assert abar == pytest.approx(abar.T)
            assert scipy.linalg.eigvalsh(abar)[0] >= -1e-10

    def test_computed_once_for_every_caller(self, monkeypatch):
        # calibration, the problem, the certificate and the simulation rhs
        # of one instance share one Abar
        calls = []
        builder = model._flow_pair
        monkeypatch.setattr(model, "_flow_pair",
                            lambda *args: calls.append(1) or builder(*args))
        inst = ingest.synthetic_instance(0, 50)
        prob = allocator.build_problem(inst.state0, inst.net, inst.params,
                                       inst.contacts)
        sv.check_decay_certificate(inst.state0, inst.net, inst.params, None,
                                   np.zeros(50), 0.0)
        dynamics.covid_rhs_factory(inst.net, inst.params)
        assert len(calls) == 1
        assert prob.kernel.abar is sv.build_flow_matrix(inst.net)[1]

    def test_networks_keep_their_own_kernels(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 6)
        other = sv.NetworkInstance(tau=0.5 * net.tau, populations=net.populations)
        params = homogeneous_params()
        kernel = model.coupling_gram_kernel(net, params)
        other_kernel = model.coupling_gram_kernel(other, params)
        assert kernel.abar is model.coupling_gram_kernel(net, params).abar
        assert kernel.abar is not other_kernel.abar
        # half of tau is half the person-time m: Abar = tau diag(1/m) tau' halves
        assert other_kernel.abar == pytest.approx(0.5 * kernel.abar, rel=1e-12)


class TestDemographicCoupling:
    @staticmethod
    def coupling(net, cs):
        """The age model's flow A' = (Abar (x) Gamma) diag(group populations)."""
        params = replace(homogeneous_params(), beta_a=None, beta_s=None,
                         beta=1.0, beta0=[1.0], alpha_hat=0.5)
        return model.flow_for_model(net, params, cs)

    def test_worked_example(self):
        net = two_group_network()
        cs = toy_contacts([[20.0, 2.0], [2.0, 4.0]])
        coupling = self.coupling(net, cs)
        expected = np.array([[40, 1, 20, 2], [4, 2, 2, 4],
                             [16, 0.4, 35, 3.5], [1.6, 0.8, 3.5, 7]]) / 9.0
        assert np.abs(coupling - expected).max() < 1e-12

    def test_single_location_single_group(self):
        net = sv.NetworkInstance(tau=[[1.0]], populations=[30.0],
                                 group_populations=[[30.0]])
        cs = toy_contacts([[7.0]])
        assert self.coupling(net, cs) == pytest.approx(
            np.array([[7.0]]))

    def test_entrywise_kronecker_oracle(self):
        rng = np.random.default_rng(3)
        net = sv.NetworkInstance(
            tau=[[0.3, 0.2], [0.1, 0.5]], populations=[120.0, 80.0],
            group_populations=[[70.0, 50.0], [30.0, 50.0]])
        gamma = rng.uniform(0.5, 3.0, (2, 2))
        gamma = 0.5 * (gamma + gamma.T)
        cs = toy_contacts(gamma)
        coupling = self.coupling(net, cs)
        _, abar = sv.build_flow_matrix(net)
        flat_pop = net.group_populations.reshape(-1)
        g = 2
        for i in range(2):
            for a in range(g):
                for j in range(2):
                    for b in range(g):
                        expected = abar[i, j] * gamma[a, b] * flat_pop[j * g + b]
                        assert coupling[i * g + a, j * g + b] == pytest.approx(expected)

    def test_requires_group_populations(self):
        net = sv.NetworkInstance(tau=[[1.0]], populations=[10.0])
        with pytest.raises(ValueError):
            self.coupling(net, toy_contacts([[1.0]]))


class TestIntrinsicConnectivity:
    def test_uniform_demography_scales_by_group_count(self):
        contacts = np.array([[1.0, 2.0], [2.0, 1.0]])
        pop = np.array([50.0, 50.0])
        assert sv.intrinsic_connectivity(contacts, pop) == pytest.approx(2 * contacts)

    def test_ny_fixture_recovers_published_matrix(self):
        cs = ingest.ny_contact_structure()
        gamma = cs.gamma
        assert gamma[0, 0] == pytest.approx(22.9768, abs=1e-9)
        assert gamma[1, 1] == pytest.approx(54.2639, abs=1e-9)
        assert gamma[5, 5] == pytest.approx(15.2828, abs=1e-9)
        assert gamma == pytest.approx(ingest.NY_GAMMA, abs=1e-9)
        assert sv.cholesky_factor(gamma) is not None

    def test_gamma_and_its_cholesky_verdict_are_computed_once(self, monkeypatch):
        calls = []
        factor = model.cholesky_factor
        monkeypatch.setattr(model, "cholesky_factor",
                            lambda mat: calls.append(1) or factor(mat))
        inst = ingest.synthetic_instance(0, 3, groups=True)
        cs = inst.contacts
        assert cs.gamma is cs.gamma
        kernel = model.coupling_gram_kernel(inst.net, inst.params, cs)
        assert kernel.gamma is cs.gamma
        assert model.coupling_gram_kernel(inst.net, inst.params, cs) is not None
        assert len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            cs.gamma[0, 0] = 0.0
        with pytest.raises(FrozenInstanceError):
            cs.contacts = cs.contacts

    def test_reciprocal_contacts_give_symmetric_gamma(self):
        rng = np.random.default_rng(12)
        pop = rng.uniform(20, 80, 5)
        raw = rng.uniform(1, 4, (5, 5))
        total = 0.5 * (raw + raw.T)  # symmetric total contacts
        contacts = total / pop[:, None]
        gamma = sv.intrinsic_connectivity(contacts, pop)
        assert np.abs(gamma - gamma.T).max() < 1e-12


class TestB1:
    def test_symptomatic_only_chain(self):
        p = homogeneous_params(beta_s=0.4, beta_a=0.0)
        expected = 0.4 * p.eps / ((p.eps + p.r_a) * (p.r_s + p.kappa))
        assert sv.compute_b1(p, 0.0) == pytest.approx(expected)

    def test_asymptomatic_only_chain(self):
        p = homogeneous_params(beta_s=0.0, beta_a=0.2)
        alpha = 0.01
        assert sv.compute_b1(p, alpha) == pytest.approx(
            0.2 / (p.eps + p.r_a - alpha))

    def test_links_to_reproduction_number(self):
        # b1(0) * lambda_max(diag(s) A) equals Rt
        inst = ingest.two_node_case(1)
        flow, _ = sv.build_flow_matrix(inst.net)
        radius = np.max(np.abs(np.linalg.eigvals(
            inst.state0.s[:, None] * flow)))
        rt = sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
        assert sv.compute_b1(inst.params, 0.0) * radius == pytest.approx(rt, rel=1e-10)

    def test_excessive_rate_raises(self):
        p = homogeneous_params()
        with pytest.raises(sv.InfeasibleRateError):
            sv.compute_b1(p, 1.0)


class TestReproductionNumber:
    def test_zero_transmission(self):
        net = sv.NetworkInstance(tau=[[0.6]], populations=[100.0])
        p = homogeneous_params(beta_s=0.0, beta_a=0.0)
        st = sv.EpidemicState(s=[0.9], xa=[0.05], xs=[0.0], e=[0.0], h=[0.05])
        assert sv.effective_reproduction_number(st, net, p) == 0.0

    def test_single_node_closed_form(self):
        net = sv.NetworkInstance(tau=[[1.0]], populations=[500.0])
        p = homogeneous_params(beta_s=0.25, beta_a=0.0)
        st = sv.EpidemicState(s=[1.0], xa=[0.0], xs=[0.0], e=[0.0], h=[0.0])
        expected = 0.25 * p.eps / ((p.eps + p.r_a) * (p.r_s + p.kappa))
        assert sv.effective_reproduction_number(st, net, p) == pytest.approx(expected)

    def test_two_node_fixture_hits_target(self):
        inst = ingest.two_node_case(2)
        rt = sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
        assert rt == pytest.approx(1.0697, abs=1e-4)

    def test_demographic_matches_reduced_radius(self):
        inst = ingest.synthetic_instance(8, n=2, groups=True, target_rt=1.25)
        reduced = model.discrete_stability_matrix(
            inst.state0.s, inst.net, inst.params, inst.contacts, 0.0)
        radius = float(np.max(np.abs(np.linalg.eigvals(reduced))))
        rt = sv.effective_reproduction_number(inst.state0, inst.net,
                                              inst.params, inst.contacts)
        assert rt == pytest.approx(radius, rel=1e-9)

    def test_zero_symptomatic_outflow_is_an_input_error(self):
        # symptomatic infections that never end: the homogeneous closed form
        # would divide by zero and the age model's dense eigvals meet infs
        inst = ingest.synthetic_instance(0, n=3)
        params = replace(inst.params, r_s=0.0, kappa=0.0)
        with pytest.raises(ValueError, match=r"r_s \+ kappa is 0$"):
            sv.effective_reproduction_number(inst.state0, inst.net, params)
        state, net, params, contacts = group_outflow_case()
        params = replace(params, r_s=np.array([0.0, 0.9]),
                         kappa=np.array([0.0, 0.6]))
        with pytest.raises(ValueError, match=r"in age groups \[0\]"):
            sv.effective_reproduction_number(state, net, params, contacts)
        # the certificate still takes that group's rate limit of 0
        cert = sv.check_decay_certificate(state, net, params, contacts,
                                          np.zeros(4), -0.1)
        assert cert.satisfied and np.isfinite(cert.spectral_radius)

    def test_zero_asymptomatic_outflow_is_an_input_error(self):
        # asymptomatic infections that never end: c1 = eps + r_a divides
        inst = ingest.synthetic_instance(0, n=3)
        params = replace(inst.params, eps=0.0, r_a=0.0)
        with pytest.raises(ValueError,
                           match=r"^Rt is undefined: eps \+ r_a is 0$"):
            sv.effective_reproduction_number(inst.state0, inst.net, params)
        inst = ingest.synthetic_instance(0, n=2, groups=True)
        params = replace(inst.params, eps=0.0, r_a=0.0)
        with pytest.raises(ValueError, match=r"eps \+ r_a is 0"):
            sv.effective_reproduction_number(inst.state0, inst.net, params,
                                             inst.contacts)


    @staticmethod
    def full_next_generation_rt(state, net, params, contacts):
        """Top eigenvalue of L D^{-1} with the 2m x 2m inverse formed."""
        flow = model.flow_for_model(net, params, contacts)
        beta_a, beta_s, r_s, kappa = model._cell_rates(net, params)
        m = flow.shape[0]
        weighted = state.s[:, None] * flow
        eye, zero = np.eye(m), np.zeros((m, m))
        lin = np.block([[beta_a[:, None] * weighted, beta_s[:, None] * weighted],
                        [zero, zero]])
        dmat = np.block([[(params.eps + params.r_a) * eye, zero],
                         [-params.eps * eye, np.diag(r_s + kappa)]])
        return np.max(np.linalg.eigvals(lin @ np.linalg.inv(dmat)).real)

    def test_matches_full_formula_with_group_outflows(self):
        # r_s + kappa differs by group by O(1); contacts are not reciprocal
        state, net, params, _ = group_outflow_case()
        cs = toy_contacts([[20.0, 6.0], [2.0, 4.0]])
        assert sv.effective_reproduction_number(state, net, params, cs) == (
            pytest.approx(self.full_next_generation_rt(state, net, params, cs),
                          rel=1e-12))

    @pytest.mark.parametrize("seed,groups", [(0, False), (3, False), (0, True),
                                             (5, True)])
    def test_matches_full_formula_on_synthetic(self, seed, groups):
        inst = ingest.synthetic_instance(seed, n=4, groups=groups)
        args = (inst.state0, inst.net, inst.params, inst.contacts)
        assert sv.effective_reproduction_number(*args) == pytest.approx(
            self.full_next_generation_rt(*args), rel=1e-12)

class TestCalibration:
    def test_zero_target(self):
        inst = ingest.two_node_case(1)
        p = sv.calibrate_transmission(inst.net, inst.params, inst.state0, 0.0)
        assert p.beta_s == 0.0

    def test_linearity_doubling(self):
        inst = ingest.two_node_case(1)
        rt = sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
        doubled = sv.calibrate_transmission(inst.net, inst.params,
                                            inst.state0, 2 * rt)
        assert doubled.beta_s == pytest.approx(2 * inst.params.beta_s, rel=1e-9)

    def test_negative_target_rejected(self):
        inst = ingest.two_node_case(1)
        with pytest.raises(sv.CalibrationError):
            sv.calibrate_transmission(inst.net, inst.params, inst.state0, -1.0)

    @pytest.mark.parametrize("n, groups", [(5, False), (50, False),
                                           (10, True)])
    def test_missed_target_raises(self, monkeypatch, n, groups):
        # the check solve, warm-started from the reference solve on 50
        # locations or 60 age cells, still sees a rescale 1% off
        inst = ingest.synthetic_instance(0, n, groups=groups)
        scale = sv.DiseaseParams.with_transmission_scale
        monkeypatch.setattr(sv.DiseaseParams, "with_transmission_scale",
                            lambda self, factor: scale(self, 1.01 * factor))
        with pytest.raises(sv.CalibrationError, match="missed target"):
            sv.calibrate_transmission(inst.net, inst.params, inst.state0, 1.2,
                                      inst.contacts)

    def test_unreachable_target(self):
        net = sv.NetworkInstance(tau=[[0.5]], populations=[100.0])
        p = homogeneous_params()
        st = sv.EpidemicState(s=[0.0], xa=[0.0], xs=[0.0], e=[0.0], h=[1.0])
        with pytest.raises(sv.CalibrationError):
            sv.calibrate_transmission(net, p, st, 1.2)


class TestDecayCertificate:
    def test_full_immunization_spectrum(self):
        inst = ingest.two_node_case(1)
        p = replace(inst.params, psi=1.0)
        cert = sv.check_decay_certificate(inst.state0, inst.net, p, None,
                                          inst.state0.s, alpha=0.02)
        expected = -min(p.eps + p.r_a, p.r_s + p.kappa)
        assert cert.lambda_max == pytest.approx(expected, abs=1e-10)
        assert cert.satisfied

    def test_supercritical_unvaccinated_fails_at_zero_rate(self):
        inst = ingest.two_node_case(3)  # calibrated to Rt > 1
        cert = sv.check_decay_certificate(inst.state0, inst.net, inst.params,
                                          None, np.zeros(2), alpha=0.0)
        assert not cert.satisfied
        assert cert.spectral_radius > 1.0

    def test_out_of_box_rejected(self):
        inst = ingest.two_node_case(1)
        with pytest.raises(ValueError):
            sv.check_decay_certificate(inst.state0, inst.net, inst.params,
                                       None, inst.state0.s + 0.1, alpha=0.0)


class TestSpectralEquivalences:
    def test_kronecker_top_eigenvalue_factorizes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_network(rng, 3)
            _, abar = sv.build_flow_matrix(net)
            raw = rng.uniform(0.2, 2.0, (4, 4))
            gamma = raw @ raw.T  # PSD
            lhs = scipy.linalg.eigvalsh(np.kron(abar, gamma))[-1]
            rhs = scipy.linalg.eigvalsh(abar)[-1] * scipy.linalg.eigvalsh(gamma)[-1]
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_threshold_formulations_agree_at_zero_rate(self):
        # spectral radius <= 1  <=>  Rt <= 1  <=>  lambda_max(M) <= 0
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            inst = ingest.synthetic_instance(int(rng.integers(1e6)),
                                             n=int(rng.integers(1, 5)),
                                             target_rt=float(rng.uniform(0.5, 1.6)))
            lam = np.max(np.linalg.eigvals(model.infection_submatrix(
                inst.state0.s, inst.net, inst.params)).real)
            if abs(lam) < 1e-6:
                continue
            checked += 1
            rt = sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
            radius = np.max(np.abs(np.linalg.eigvals(
                model.discrete_stability_matrix(inst.state0.s, inst.net,
                                                inst.params, None, 0.0))))
            assert (radius <= 1.0) == (rt <= 1.0) == (lam <= 0.0)

    def test_reduction_chain_three_ways(self):
        # LMI form <=> discrete-time radius <=> continuous M + alpha I
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            inst = ingest.synthetic_instance(int(rng.integers(1e6)),
                                             n=int(rng.integers(2, 5)),
                                             target_rt=float(rng.uniform(0.8, 1.5)))
            alpha = float(rng.uniform(-0.03, 0.03))
            v = rng.uniform(0, 1, inst.net.n) * inst.state0.s
            s_post = inst.state0.s - inst.params.psi * v
            lam = np.max(np.linalg.eigvals(model.infection_submatrix(
                s_post, inst.net, inst.params)).real)
            if abs(lam + alpha) < 1e-6:
                continue
            checked += 1
            continuous = lam <= -alpha
            try:
                radius = np.max(np.abs(np.linalg.eigvals(
                    model.discrete_stability_matrix(s_post, inst.net,
                                                    inst.params, None, alpha))))
                discrete = radius <= 1.0
                b1 = sv.compute_b1(inst.params, alpha)
                _, abar = sv.build_flow_matrix(inst.net)
                u = inst.net.populations * b1 * s_post
                lmi = scipy.linalg.eigvalsh(
                    np.linalg.inv(abar) - np.diag(u))[0] >= 0
            except sv.InfeasibleRateError:
                discrete = lmi = False
            assert continuous == discrete == lmi


def dense_certificate(state, net, params, v, alpha, contacts=None):
    """(lambda_max, radius) from dense eigvals of M and of the reduced matrix."""
    s_post = np.clip(state.s - params.psi * v, 0.0, None)
    lam = np.max(np.linalg.eigvals(
        model.infection_submatrix(s_post, net, params, contacts)).real)
    try:
        radius = np.max(np.abs(np.linalg.eigvals(
            model.discrete_stability_matrix(s_post, net, params, contacts, alpha))))
    except sv.InfeasibleRateError:
        radius = np.inf
    return lam, radius


def dense_rt(state, net, params):
    """Top eigenvalue of diag(beta_a / c1) W + diag(beta_s) W diag(eps / (c1 d2))."""
    c1, d2 = params.eps + params.r_a, params.r_s + params.kappa
    weighted = state.s[:, None] * sv.build_flow_matrix(net)[0]
    gen = (params.beta_a / c1) * weighted + params.beta_s * weighted * (params.eps / (c1 * d2))
    return max(np.max(np.linalg.eigvals(gen).real), 0.0)


def assert_matches_dense(state, net, params, v, alpha, contacts=None):
    cert = sv.check_decay_certificate(state, net, params, contacts, v, alpha)
    lam, radius = dense_certificate(state, net, params, v, alpha, contacts)
    assert abs(cert.lambda_max - lam) <= 1e-12
    if np.isinf(radius):
        assert cert.spectral_radius == np.inf
    else:
        assert cert.spectral_radius == pytest.approx(radius, rel=1e-12, abs=1e-300)
    return cert


class TestSymmetricSpectra:
    """The homogeneous model's Rt, lambda_max and reduced radius, from one
    symmetric eigensolve, against dense eigvals."""

    @pytest.mark.parametrize("n", [1, 3, 8, 30])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_eigvals(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = ingest.synthetic_instance(seed, n=n)
        state, net, params = inst.state0, inst.net, inst.params
        s = state.s
        some = rng.uniform(size=n) < 0.5
        perfect = replace(params, psi=1.0)
        for alpha in (-0.05, 0.0, 0.02):
            for v in (np.zeros(n), rng.uniform(0, 1, n) * s, s):
                assert_matches_dense(state, net, params, v, alpha)
            # cells with s_post = 0
            assert_matches_dense(state, net, perfect, np.where(some, s, 0.0), alpha)
        rt = sv.effective_reproduction_number(state, net, params)
        assert rt == pytest.approx(dense_rt(state, net, params), rel=1e-12)

    def test_all_cells_immunized(self):
        inst = ingest.synthetic_instance(2, n=6)
        params = replace(inst.params, psi=1.0)
        cert = assert_matches_dense(inst.state0, inst.net, params,
                                    inst.state0.s, 0.01)
        assert cert.lambda_max == pytest.approx(
            max(-(params.eps + params.r_a), -(params.r_s + params.kappa)), abs=1e-15)
        assert cert.spectral_radius == 0.0

    def test_zero_transmission(self):
        inst = ingest.synthetic_instance(4, n=5)
        params = inst.params.with_transmission_scale(0.0)
        assert sv.effective_reproduction_number(inst.state0, inst.net, params) == 0.0
        cert = assert_matches_dense(inst.state0, inst.net, params, np.zeros(5), 0.0)
        assert cert.lambda_max == pytest.approx(
            max(-(params.eps + params.r_a), -(params.r_s + params.kappa)), abs=1e-15)

    def test_rate_at_or_above_limit_has_infinite_radius(self):
        inst = ingest.synthetic_instance(1, n=4)
        limit = model.max_certificate_rate(inst.params)
        for alpha in (limit, limit + 0.1):
            cert = assert_matches_dense(inst.state0, inst.net, inst.params,
                                        0.5 * inst.state0.s, alpha)
            assert cert.spectral_radius == np.inf and not cert.satisfied

    def test_homogeneous_model_calls_no_dense_eigvals(self, monkeypatch):
        inst = ingest.synthetic_instance(0, n=8)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigvals on the homogeneous model")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        sv.check_decay_certificate(inst.state0, inst.net, inst.params, None,
                                   0.3 * inst.state0.s, 0.01)
        sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
        sv.calibrate_transmission(inst.net, inst.params, inst.state0, 1.1)


def group_outflow_case():
    """Two locations of two groups whose r_s + kappa differ by O(1), with a
    symmetric Gamma: the rate limit is group 0's outflow 0.15."""
    eps, r_a, _, _ = ingest.derive_disease_params(5.0, 6.0, 0.01)
    params = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=np.array([0.1, 0.9]),
                              kappa=np.array([0.05, 0.6]), beta=0.004,
                              beta0=np.array([0.7, 1.3]), alpha_hat=0.4)
    s = np.array([0.95, 0.6, 0.8, 0.7])
    state = sv.EpidemicState(s=s, xa=np.zeros(4), xs=np.zeros(4),
                             e=np.zeros(4), h=1 - s)
    return state, two_group_network(), params, toy_contacts([[20.0, 6.0],
                                                             [6.0, 4.0]])


def count_symmetric_eigensolves(monkeypatch):
    """A list that grows by one per eigh or eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda mat, real=real: calls.append(1) or real(mat))
    return calls


class TestAgeSpectra:
    """The age model's Rt, lambda_max and reduced radius from the Gram kernel
    F' diag(N b1 s) F, against dense eigvals of M and of the reduced matrix
    and against the next-generation matrix with its inverse formed."""

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_eigvals(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = ingest.synthetic_instance(seed, n=n, groups=True)
        state, net, params, cs = inst.state0, inst.net, inst.params, inst.contacts
        assert model.coupling_gram_kernel(net, params, cs) is not None
        s = state.s
        some = rng.uniform(size=s.size) < 0.5
        perfect = replace(params, psi=1.0)
        for alpha in (-0.05, 0.0, 0.02):
            for v in (np.zeros(s.size), rng.uniform(0, 1, s.size) * s, s):
                assert_matches_dense(state, net, params, v, alpha, cs)
            # cells with s_post = 0
            assert_matches_dense(state, net, perfect, np.where(some, s, 0.0),
                                 alpha, cs)
        rt = sv.effective_reproduction_number(state, net, params, cs)
        assert rt == pytest.approx(TestReproductionNumber.full_next_generation_rt(
            state, net, params, cs), rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_group_outflows_and_a_bounded_radius(self, scale):
        # with every group-0 cell immunized, rho stays finite up to the rate
        # limit: about 0.026 there at scale 1 (lambda_max = -limit) and 2.6
        # at scale 100
        state, net, params, cs = group_outflow_case()
        params = params.with_transmission_scale(scale)
        perfect = replace(params, psi=1.0)
        limit = model.max_certificate_rate(params)
        for alpha in (-0.05, 0.0, 0.1, 0.99 * limit):
            for v in (np.zeros(4), 0.5 * state.s):
                assert_matches_dense(state, net, params, v, alpha, cs)
            assert_matches_dense(state, net, perfect,
                                 state.s * np.array([1.0, 0.0, 1.0, 0.0]), alpha, cs)
        rt = sv.effective_reproduction_number(state, net, params, cs)
        assert rt == pytest.approx(TestReproductionNumber.full_next_generation_rt(
            state, net, params, cs), rel=1e-12)

    def test_bounded_radius_ends_at_the_limit_test(self, monkeypatch):
        # rho stays below 1 up to the rate limit: one solve for the radius,
        # one Newton step past the limit, one test just below it
        state, net, params, cs = group_outflow_case()
        perfect = replace(params, psi=1.0)
        calls = count_symmetric_eigensolves(monkeypatch)
        cert = sv.check_decay_certificate(state, net, perfect, cs, state.s
                                          * np.array([1.0, 0.0, 1.0, 0.0]), 0.0)
        assert cert.lambda_max == -model.max_certificate_rate(params)
        assert len(calls) <= 3

    def test_all_cells_immunized(self):
        inst = ingest.synthetic_instance(2, n=6, groups=True)
        params = replace(inst.params, psi=1.0)
        cert = assert_matches_dense(inst.state0, inst.net, params,
                                    inst.state0.s, 0.01, inst.contacts)
        assert cert.lambda_max == -model.max_certificate_rate(params)
        assert cert.spectral_radius == 0.0

    def test_zero_transmission(self):
        inst = ingest.synthetic_instance(4, n=5, groups=True)
        params = inst.params.with_transmission_scale(0.0)
        assert sv.effective_reproduction_number(inst.state0, inst.net, params,
                                                inst.contacts) == 0.0
        cert = assert_matches_dense(inst.state0, inst.net, params,
                                    np.zeros(inst.state0.s.size), 0.0,
                                    inst.contacts)
        assert cert.lambda_max == -model.max_certificate_rate(params)

    def test_rate_at_or_above_limit_has_infinite_radius(self):
        inst = ingest.synthetic_instance(1, n=4, groups=True)
        limit = model.max_certificate_rate(inst.params)
        for alpha in (limit, limit + 0.1):
            cert = assert_matches_dense(inst.state0, inst.net, inst.params,
                                        0.5 * inst.state0.s, alpha,
                                        inst.contacts)
            assert cert.spectral_radius == np.inf and not cert.satisfied

    def test_group_that_never_recovers_takes_dense_path(self):
        state, net, params, cs = group_outflow_case()
        params = replace(params, r_s=np.array([0.0, 0.9]),
                         kappa=np.array([0.0, 0.6]))
        assert model.max_certificate_rate(params) == 0.0
        cert = assert_matches_dense(state, net, params, np.zeros(4), 0.0, cs)
        assert cert.spectral_radius == np.inf and not cert.satisfied

    def test_cholesky_gamma_calls_no_dense_eigvals(self, monkeypatch):
        inst = ingest.synthetic_instance(0, n=8, groups=True)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigvals on a Cholesky Gamma")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        sv.check_decay_certificate(inst.state0, inst.net, inst.params,
                                   inst.contacts, 0.3 * inst.state0.s, 0.01)
        sv.effective_reproduction_number(inst.state0, inst.net, inst.params,
                                         inst.contacts)
        sv.calibrate_transmission(inst.net, inst.params, inst.state0, 1.1,
                                  inst.contacts)

    def test_non_cholesky_gamma_takes_dense_path(self, monkeypatch):
        state, net, params, _ = group_outflow_case()
        cs = toy_contacts([[20.0, 6.0], [2.0, 4.0]])  # not reciprocal
        assert model.coupling_gram_kernel(net, params, cs) is None
        sizes = []
        real = np.linalg.eigvals

        def counted(mat):
            sizes.append(mat.shape[0])
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        m = state.s.shape[0]
        sv.check_decay_certificate(state, net, params, cs, 0.3 * state.s, 0.01)
        assert sizes == [2 * m, m]
        sv.effective_reproduction_number(state, net, params, cs)
        assert sizes == [2 * m, m, m]

    # the anchor instances of the benchmark's alloc-mix workload
    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_allocations_certify_densely(self, seed, n, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                        / "bench"))
        checks = importlib.import_module("checks")
        budget = importlib.import_module("workloads").BUDGET
        inst = checks.build_instance("covid-demographic", n, seed)
        alpha, result = sv.max_decay_binary_search(
            inst.state0, inst.net, inst.params, inst.contacts,
            budget * inst.net.total_population)
        lam, radius = dense_certificate(inst.state0, inst.net, inst.params,
                                        result.v, alpha, inst.contacts)
        assert lam <= -alpha + model.CERTIFICATE_TOL
        # the search for lambda_max starts at the certified rate, next to
        # its root: at most one Newton step past the radius's eigensolve
        calls = count_symmetric_eigensolves(monkeypatch)
        sv.check_decay_certificate(inst.state0, inst.net, inst.params,
                                   inst.contacts, result.v, alpha)
        assert len(calls) <= 2
        assert abs(result.certificate.lambda_max - lam) <= 1e-12
        assert result.certificate.spectral_radius == pytest.approx(radius,
                                                                   rel=1e-12)
