import numpy as np
import pytest

from stabvax import allocator, bubar


@pytest.fixture
def nudged_gram_route(monkeypatch):
    """Make the Gram route return u 0.1% above its optimum (less vaccine),
    which moves every solve with vaccinated cells off its certificate."""
    real = allocator.lmi_box_maximize

    def nudged(kernel, lower, upper, weights, mass, **kwargs):
        u, stats = real(kernel, lower, upper, weights, mass, **kwargs)
        return np.minimum(1.001 * u, upper), stats

    monkeypatch.setattr(allocator, "lmi_box_maximize", nudged)


def _seir_chain_matrix(state, params, v):
    """The linearized SEIR (E*, I*) block after dosing with v, dense over the
    6 g compartments: the oracle of `bubar.bubar_certificate`'s reduction."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    flow = bubar.bubar_flow_matrix(state, params)
    top = ((1 - v) * state.S)[:, None] * flow
    mid = (state.Sx + (1 - params.psi) * v * state.S)[:, None] * flow
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    eye, zero = np.eye(params.n_groups), np.zeros_like(flow)
    return np.block([
        [-a * eye, zero, zero, top, top, top],
        [zero, -a * eye, zero, mid, mid, mid],
        [zero, zero, -a * eye, zero, zero, zero],
        [a * eye, zero, zero, -b * eye, zero, zero],
        [zero, a * eye, zero, zero, -b * eye, zero],
        [zero, zero, a * eye, zero, zero, -b * eye],
    ])


@pytest.fixture
def seir_chain_matrix():
    return _seir_chain_matrix
