import numpy as np
import pytest

from stabvax import allocator


@pytest.fixture
def nudged_gram_route(monkeypatch):
    """Make the Gram route return u 0.1% above its optimum (less vaccine),
    which moves every solve with vaccinated cells off its certificate."""
    real = allocator.lmi_box_maximize

    def nudged(kernel, lower, upper, weights, mass, **kwargs):
        u, stats = real(kernel, lower, upper, weights, mass, **kwargs)
        return np.minimum(1.001 * u, upper), stats

    monkeypatch.setattr(allocator, "lmi_box_maximize", nudged)
