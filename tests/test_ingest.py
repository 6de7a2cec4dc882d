import numpy as np
import pytest

import stabvax as sv
from stabvax import ingest


class TestTravelRates:
    def test_always_home_gives_zero_row(self):
        tau = ingest.build_travel_rates(trips=[[5.0, 5.0], [5.0, 5.0]],
                                        dwell_minutes=[1440.0, 700.0])
        assert np.all(tau[0] == 0.0)
        assert tau[1].sum() == pytest.approx(1 - 700 / 1440)

    def test_two_node_benchmark_values(self):
        tau = ingest.build_travel_rates(
            trips=[[8000.0, 200.0], [200.0, 8000.0]],
            dwell_minutes=[800.0, 800.0])
        assert tau[0, 0] == pytest.approx((640 / 1440) * (8000 / 8200), abs=1e-10)
        assert tau[0, 0] == pytest.approx(0.43360, abs=5e-6)
        assert tau.sum(axis=1) == pytest.approx([640 / 1440] * 2)

    def test_zero_trip_row_is_isolated_with_warning(self):
        with pytest.warns(UserWarning):
            tau = ingest.build_travel_rates(trips=[[0.0, 0.0], [3.0, 1.0]],
                                            dwell_minutes=[600.0, 600.0])
        assert np.all(tau[0] == 0.0)

    def test_network_invariants_hold(self):
        rng = np.random.default_rng(1)
        tau = ingest.build_travel_rates(
            trips=rng.uniform(10, 500, (4, 4)),
            dwell_minutes=rng.uniform(100, 1400, 4))
        net = sv.NetworkInstance(tau=tau, populations=np.full(4, 1e4))
        assert np.all(net.tau.sum(axis=1) <= 1 + 1e-12)

    def test_negative_trips_rejected(self):
        with pytest.raises(ingest.IngestError, match="trip counts"):
            ingest.build_travel_rates(trips=[[5.0, -1.0], [1.0, 5.0]],
                                      dwell_minutes=[600.0, 600.0])

    @pytest.mark.parametrize("dwell", [-1.0, 1441.0])
    def test_dwell_minutes_outside_a_day_rejected(self, dwell):
        with pytest.raises(ingest.IngestError, match="dwell minutes"):
            ingest.build_travel_rates(trips=[[5.0, 1.0], [1.0, 5.0]],
                                      dwell_minutes=[600.0, dwell])


class TestInitialState:
    def test_no_cases(self):
        state = sv.derive_initial_state(confirmed=[0.0], deaths=[0.0],
                                        populations=[1000.0])
        assert state.s == pytest.approx([1.0])
        assert state.xa == pytest.approx([0.0])

    def test_reporting_factor_inflation(self):
        state = sv.derive_initial_state(confirmed=[217.0], deaths=[0.0],
                                        populations=[10_000.0])
        assert state.s == pytest.approx([0.9])

    def test_recovered_split_with_deaths(self):
        confirmed, deaths, pop = 217.0, 40.0, 10_000.0
        state = sv.derive_initial_state(confirmed=[confirmed],
                                        deaths=[deaths], populations=[pop])
        true_cases = confirmed / 0.217
        expected_h = (true_cases - deaths) * ingest.RECOVERED_RATIO / pop
        assert state.h == pytest.approx([expected_h])
        assert state.e == pytest.approx([deaths / pop])
        active = (true_cases - deaths) * (1 - ingest.RECOVERED_RATIO)
        assert state.xa == pytest.approx([0.81 * active / pop])
        assert state.xs == pytest.approx([0.19 * active / pop])
        state.validate()

    def test_excess_infections_rejected(self):
        with pytest.raises(ingest.IngestError):
            sv.derive_initial_state(confirmed=[500.0], deaths=[0.0],
                                    populations=[1000.0])

    @pytest.mark.parametrize("confirmed, deaths", [(-1.0, 0.0), (10.0, -1.0)])
    def test_negative_case_counts_rejected(self, confirmed, deaths):
        with pytest.raises(ingest.IngestError, match="nonnegative"):
            sv.derive_initial_state(confirmed=[confirmed], deaths=[deaths],
                                    populations=[1000.0])

    def test_deaths_above_true_infections_rejected(self):
        # 217 confirmed imply 1000 true infections
        with pytest.raises(ingest.IngestError, match="deaths exceed"):
            sv.derive_initial_state(confirmed=[217.0], deaths=[1001.0],
                                    populations=[10_000.0])


class TestFatalityRegression:
    def test_age_zero(self):
        assert sv.ifr_by_age(0) == pytest.approx(10 ** -3.27 / 100, rel=1e-12)
        assert sv.ifr_by_age(0) == pytest.approx(5.37e-6, rel=1e-3)

    def test_age_eighty(self):
        assert sv.ifr_by_age(80) == pytest.approx(10 ** (-3.27 + 0.0524 * 80) / 100)
        assert sv.ifr_by_age(80) == pytest.approx(0.0836, abs=2e-4)

    def test_population_mean(self):
        assert ingest.mean_ifr() == pytest.approx(0.0242, abs=5e-4)


class TestRateDerivation:
    def test_canonical_values(self):
        # the canonical pipeline's periods, not the printed table's medians
        # (5.05, 6.2)
        assert ingest.DEFAULT_ASYMPTOMATIC_PERIOD == 5.0025
        assert ingest.DEFAULT_SYMPTOMATIC_PERIOD == 6.2475
        eps, r_a, r_s, kappa = sv.derive_disease_params(5.0025, 6.2475, 0.0242)
        assert eps == pytest.approx(0.0469, abs=5e-4)
        assert r_a == pytest.approx(0.153, abs=5e-4)
        assert r_s == pytest.approx(0.1436, abs=5e-4)
        assert kappa == pytest.approx(0.0165, abs=5e-4)

    def test_zero_fatality(self):
        _, _, r_s, kappa = sv.derive_disease_params(5.0, 8.0, 0.0)
        assert kappa == 0.0
        assert r_s == pytest.approx(1 / 8.0)

    def test_per_group_vectors(self):
        eps, r_a, r_s, kappa = sv.derive_disease_params(
            5.0025, 6.2475, ingest.group_ifr())
        assert kappa[5] == pytest.approx(0.0565, abs=5e-4)
        assert r_s[5] == pytest.approx(0.1035, abs=5e-4)
        assert kappa[0] == pytest.approx(4.7e-6, abs=5e-7)

    def test_forward_inversion_round_trip(self):
        eps, r_a, r_s, kappa = sv.derive_disease_params(4.2, 7.3, 0.013)
        assert eps + r_a == pytest.approx(1 / 4.2, abs=1e-10)
        assert r_s + kappa == pytest.approx(1 / 7.3, abs=1e-10)
        assert eps / (eps + r_a) == pytest.approx(0.19 / 0.81, abs=1e-10)
        assert (0.19 / 0.81) * kappa / (kappa + r_s) == pytest.approx(0.013, abs=1e-10)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ingest.IngestError):
            sv.derive_disease_params(5.0, 6.0, 0.9)


class TestSyntheticInstances:
    def test_seed_determinism(self):
        a = sv.synthetic_instance(17, n=4, target_rt=1.2)
        b = sv.synthetic_instance(17, n=4, target_rt=1.2)
        assert np.array_equal(a.net.tau, b.net.tau)
        assert np.array_equal(a.state0.s, b.state0.s)
        assert a.params.beta_s == b.params.beta_s

    def test_calibration_postcondition(self):
        inst = sv.synthetic_instance(5, n=3, target_rt=1.37)
        rt = sv.effective_reproduction_number(inst.state0, inst.net,
                                              inst.params, inst.contacts)
        assert rt == pytest.approx(1.37, abs=1e-6)

    def test_row_sums_and_populations_in_range(self):
        inst = sv.synthetic_instance(11, n=6, target_rt=1.1)
        sums = inst.net.tau.sum(axis=1)
        assert np.all((sums >= 0.3 - 1e-9) & (sums <= 0.7 + 1e-9))
        assert np.all((inst.net.populations >= 1e3)
                      & (inst.net.populations <= 1e6))
        inst.state0.validate()

    def test_demographic_variant(self):
        inst = sv.synthetic_instance(2, n=2, groups=True, target_rt=1.3)
        assert inst.net.n_groups == 6
        rt = sv.effective_reproduction_number(inst.state0, inst.net,
                                              inst.params, inst.contacts)
        assert rt == pytest.approx(1.3, abs=1e-6)

    def test_two_node_case_inputs(self):
        inst = sv.two_node_case(2)
        assert inst.net.populations == pytest.approx([2000.0, 2000.0])
        assert inst.state0.s == pytest.approx([0.7, 0.9])
        assert inst.net.tau[0, 0] == pytest.approx((640 / 1440) * (8000 / 8200))
        rt = sv.effective_reproduction_number(inst.state0, inst.net, inst.params)
        assert rt == pytest.approx(1.0697, abs=1e-6)


class TestFileIO(object):
    def _write_inputs(self, tmp_path):
        (tmp_path / "trips.csv").write_text(
            "origin_id,dest_id,daily_trips\n"
            "a,a,8000\na,b,200\nb,a,200\nb,b,8000\n")
        (tmp_path / "dwell.csv").write_text(
            "location_id,median_dwell_minutes\na,800\nb,800\n")
        (tmp_path / "cases.csv").write_text(
            "location_id,cum_confirmed,cum_deaths,population\n"
            "a,217,5,10000\nb,100,2,8000\n")

    def test_load_instance_from_files(self, tmp_path):
        self._write_inputs(tmp_path)
        net, state = ingest.load_instance_from_files(
            tmp_path / "trips.csv", tmp_path / "dwell.csv",
            tmp_path / "cases.csv")
        assert net.n == 2
        assert net.populations == pytest.approx([10000.0, 8000.0])
        state.validate()

    def test_missing_column_is_input_error(self, tmp_path):
        self._write_inputs(tmp_path)
        (tmp_path / "cases.csv").write_text("location_id,cum_confirmed\na,1\n")
        with pytest.raises(ingest.IngestError):
            ingest.load_instance_from_files(
                tmp_path / "trips.csv", tmp_path / "dwell.csv",
                tmp_path / "cases.csv")

    def test_location_without_trips_warns(self, tmp_path):
        self._write_inputs(tmp_path)
        (tmp_path / "cases.csv").write_text(
            "location_id,cum_confirmed,cum_deaths,population\n"
            "a,217,5,10000\nb,100,2,8000\nc,10,0,5000\n")
        (tmp_path / "dwell.csv").write_text(
            "location_id,median_dwell_minutes\na,800\nb,800\nc,700\n")
        with pytest.warns(UserWarning):
            net, _ = ingest.load_instance_from_files(
                tmp_path / "trips.csv", tmp_path / "dwell.csv",
                tmp_path / "cases.csv")
        assert np.all(net.tau[2] == 0.0)

    def test_instance_json_round_trip(self, tmp_path):
        for groups in (False, True):
            inst = sv.synthetic_instance(21, n=2, groups=groups, target_rt=1.2)
            path = tmp_path / f"inst_{groups}.json"
            sv.save_instance(inst, path)
            loaded = sv.load_instance(path)
            assert np.allclose(loaded.net.tau, inst.net.tau)
            assert np.allclose(loaded.state0.s, inst.state0.s)
            rt_a = sv.effective_reproduction_number(
                inst.state0, inst.net, inst.params, inst.contacts)
            rt_b = sv.effective_reproduction_number(
                loaded.state0, loaded.net, loaded.params, loaded.contacts)
            assert rt_a == pytest.approx(rt_b, abs=1e-12)

    @pytest.mark.parametrize("groups", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_saving_a_loaded_instance_reproduces_the_file(self, tmp_path,
                                                          seed, groups):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        sv.save_instance(sv.synthetic_instance(seed, n=3, groups=groups), first)
        sv.save_instance(sv.load_instance(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_file_holds_every_record_field_but_none(self, tmp_path):
        # only library-built beta_a params have no alpha_hat
        inst = sv.synthetic_instance(0, n=2)
        inst.params = sv.DiseaseParams(eps=0.1, r_a=0.1, r_s=0.1, kappa=0.01,
                                       beta_a=0.2, beta_s=0.4)
        doc = ingest.instance_to_dict(inst)
        assert list(doc) == ["model", "network", "params", "state0"]
        assert list(doc["network"]) == ["tau", "populations"]
        assert list(doc["params"]) == ["eps", "r_a", "r_s", "kappa", "psi",
                                       "beta_a", "beta_s"]
        assert list(doc["state0"]) == ["s", "xa", "xs", "e", "h", "vax"]
        assert ingest.instance_from_dict(doc).params == inst.params

    def test_missing_vax_defaults_to_zeros(self):
        doc = ingest.instance_to_dict(sv.synthetic_instance(0, n=2))
        del doc["state0"]["vax"]
        assert np.all(ingest.instance_from_dict(doc).state0.vax == 0.0)

    # tests/test_cli.py::TestInstanceFile runs the other malformed files
    @pytest.mark.parametrize("edit", [
        lambda doc: {key: doc[key] for key in doc if key != "params"},
        lambda doc: {**doc, "params": {**doc["params"], "eps": "fast"}},
    ], ids=["missing-section", "string-rate"])
    def test_malformed_document_raises_ingest_error(self, edit):
        doc = ingest.instance_to_dict(sv.synthetic_instance(0, n=2))
        with pytest.raises(ingest.IngestError):
            ingest.instance_from_dict(edit(doc))
