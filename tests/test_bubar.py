from dataclasses import replace

import numpy as np
import pytest

from stabvax import bubar
from stabvax.dynamics import VaccinationSchedule


def symmetric_fixture():
    """The SEIR fixture with its contact gram C diag(1/N) symmetrized."""
    params, _ = bubar.us_like_instance(1.15, seed=0)
    gram = params.contacts / params.populations[None, :]
    contacts = 0.5 * (gram + gram.T) * params.populations[None, :]
    params = bubar.calibrate_r0(replace(params, contacts=contacts), 1.15)
    return params, bubar.initial_bubar_state(params, 0.001, 0.001)


class TestAllocationRoutes:
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_lmi_and_bilinear_agree_on_symmetric_contacts(self, alpha,
                                                          monkeypatch):
        params, state = symmetric_fixture()
        _, lmi = bubar.solve_bubar_allocation(state, params, alpha=alpha)
        monkeypatch.setattr(bubar, "cholesky_factor", lambda mat: None)
        _, bil = bubar.solve_bubar_allocation(state, params, alpha=alpha)
        assert lmi.stats.method == "bubar-lmi"
        assert bil.stats.method == "bubar-bilinear"
        assert lmi.certificate.satisfied and bil.certificate.satisfied
        assert lmi.doses == pytest.approx(bil.doses, rel=1e-6)

    def test_default_fixture_routes_to_bilinear(self):
        params, state = bubar.us_like_instance(1.15, seed=0)
        _, res = bubar.solve_bubar_allocation(state, params, alpha=0.0)
        assert res.stats.method == "bubar-bilinear"
        assert res.certificate.satisfied


SEIR_POLICIES = ["optimal-stabilizing", *bubar.PRIORITY_PRESETS]


class TestBatchedSimulation:
    def test_columns_match_single_runs(self):
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        batch = bubar.simulate_bubar_policies(params, state0, SEIR_POLICIES,
                                              sched, horizon=60)
        assert len(batch) == len(SEIR_POLICIES) == 6
        for name, traj in zip(SEIR_POLICIES, batch):
            single = bubar.simulate_bubar(params, state0, name,
                                          daily_rate=0.0033,
                                          total_budget=0.05, horizon=60)
            for field in ("susceptible", "infectious", "cum_infected",
                          "deaths", "doses"):
                a, b = getattr(traj, field), getattr(single, field)
                assert a.shape == b.shape == (61, params.n_groups)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field
            assert traj.total_doses() == pytest.approx(
                0.05 * params.populations.sum(), rel=1e-9)
