from dataclasses import replace

import pytest

from stabvax import bubar


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
