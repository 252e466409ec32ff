import numpy as np
import pytest

from pathqv import VolatilityField


def _far_breaking_field(kind):
    """The constant field 1, whose closed form breaks beyond |xi| = 50: phi
    is NaN ("phi-nan") or inf ("phi-inf") there, or d_xi is 0 ("d_xi-zero")."""
    def exact_flow(tau, xi, t):
        far = np.abs(xi) > 50.0
        if kind == "d_xi-zero":
            return xi + t, np.where(far, 0.0, 1.0), 0.0
        return np.where(far, np.nan if kind == "phi-nan" else np.inf, xi + t), 1.0, 0.0

    return VolatilityField(sigma=lambda t, xi: 1.0, sigma_t=lambda t, xi: 0.0,
                           sigma_xi=lambda t, xi: 0.0, time_free=True,
                           exact_flow=exact_flow)


@pytest.fixture
def far_breaking_field():
    """``far_breaking_field(kind)``: a field whose closed form breaks far out."""
    return _far_breaking_field
