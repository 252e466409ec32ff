import sys
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathqv import (
    DomainError,
    FlowIntegrationError,
    VolatilityField,
    constant_field,
    field_from_expression,
    flow,
    flow_identity_defects,
    flow_with_derivatives,
    scalar_linear_field,
    sqrt1p_field,
)
from pathqv.flow import FLOW_CHECKS, _checked, _integrate, sample_box_values


def bs_field():
    return scalar_linear_field(
        lambda t: 0.2 + 0.1 * np.asarray(t, dtype=np.float64),
        lambda t: 0.1 + 0.0 * np.asarray(t, dtype=np.float64),
        name="bs",
    )


def dp45(field):
    """The same field without its closed-form flow, so that it runs DP45."""
    return replace(field, exact_flow=None)


def both_paths(*fields):
    """Each field as given (closed form where it has one) and through DP45."""
    return [g for f in fields for g in (f, dp45(f))]


def test_constant_field_flow_is_line():
    for f in both_paths(constant_field(0.7)):
        check_constant_flow(f)


def check_constant_flow(f):
    for tau in (0.0, 0.5):
        for t in (-1.0, 0.0, 0.25, 1.0):
            assert flow(f, tau, 1.2, t) == pytest.approx(1.2 + 0.7 * t, abs=1e-12)
    _, d_xi, d_tau, d_tt = flow_with_derivatives(f, 0.3, -0.4, 0.8)
    assert d_xi == pytest.approx(1.0, abs=1e-12)
    assert d_tau == pytest.approx(0.0, abs=1e-12)
    assert d_tt == pytest.approx(0.0, abs=1e-12)


def test_linear_field_flow_closed_form():
    for f in both_paths(bs_field()):
        check_linear_flow(f)


def check_linear_flow(f):
    for tau in (0.0, 0.4, 1.0):
        s = 0.2 + 0.1 * tau
        for xi in (-1.5, 0.3, 2.0):
            for t in (-0.8, 0.5, 1.0):
                want = xi * np.exp(s * t)
                assert flow(f, tau, xi, t) == pytest.approx(want, abs=1e-9)
    tau, xi, t = 0.4, 1.5, 0.9
    _, d_xi, d_tau, _ = flow_with_derivatives(f, tau, xi, t)
    s = 0.2 + 0.1 * tau
    assert d_xi == pytest.approx(np.exp(s * t), abs=1e-9)
    # differentiate the closed form in tau: xi t sigma'(tau) e^{sigma(tau) t}
    assert d_tau == pytest.approx(xi * t * 0.1 * np.exp(s * t), abs=1e-9)
    fd = (flow(f, tau + 1e-6, xi, t) - flow(f, tau - 1e-6, xi, t)) / 2e-6
    assert d_tau == pytest.approx(fd, abs=1e-5)


def test_sqrt_field_flow_closed_form():
    for f in both_paths(sqrt1p_field()):
        check_sqrt_flow(f)


def check_sqrt_flow(f):
    for xi in (-2.0, 0.0, 0.5):
        for t in (-1.0, 0.3, 1.0):
            want = np.sinh(t + np.arcsinh(xi))
            assert flow(f, 0.0, xi, t) == pytest.approx(want, abs=1e-9)
    _, _, _, d_tt = flow_with_derivatives(f, 0.0, 0.5, 0.7)
    z = np.sinh(0.7 + np.arcsinh(0.5))
    assert d_tt == pytest.approx(z, abs=1e-9)  # sigma_xi * sigma = phi here
    h = 1e-3  # second difference: h small enough for truncation, large
    # enough that the integrator tolerance does not dominate h^2
    fd = (
        flow(f, 0.0, 0.5, 0.7 + h) - 2 * flow(f, 0.0, 0.5, 0.7) + flow(f, 0.0, 0.5, 0.7 - h)
    ) / h**2
    assert d_tt == pytest.approx(fd, abs=1e-5)


def test_semigroup_property():
    rng = np.random.default_rng(12)
    for field in both_paths(constant_field(-0.3), bs_field(), sqrt1p_field()):
        for _ in range(8):
            tau = float(rng.uniform(0, 1))
            xi = float(rng.uniform(-2, 2))
            s = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-1, 1))
            mid = flow(field, tau, xi, s)
            assert flow(field, tau, mid, t) == pytest.approx(
                flow(field, tau, xi, s + t), abs=1e-8
            )


def test_reverse_time_identity():
    # phi_t(tau, xi, -t) = phi_xi(tau, xi, -t) sigma(tau, xi)
    rng = np.random.default_rng(21)
    for field in both_paths(bs_field(), sqrt1p_field()):
        for _ in range(6):
            tau = float(rng.uniform(0, 1))
            xi = float(rng.uniform(-1.5, 1.5))
            t = float(rng.uniform(-1, 1))
            phi, d_xi, _, _ = flow_with_derivatives(field, tau, xi, -t)
            lhs = float(np.asarray(field.sigma(tau, phi)))
            rhs = d_xi * float(np.asarray(field.sigma(tau, xi)))
            assert lhs == pytest.approx(rhs, abs=1e-7)


def test_second_order_reverse_identity():
    # phi_xixi sig^2 - 2 phi_xit sig + phi_tt  (all at -t)
    #   = -phi_xi(-t) * phi_tt at the pulled-back point
    rng = np.random.default_rng(33)
    h = 1e-4
    for field in both_paths(bs_field(), sqrt1p_field()):
        for _ in range(5):
            tau = float(rng.uniform(0, 1))
            xi = float(rng.uniform(-1.2, 1.2))
            t = float(rng.uniform(-0.9, 0.9))
            phi, d_xi, _, d_tt = flow_with_derivatives(field, tau, xi, -t)
            up, d_xi_up, _, _ = flow_with_derivatives(field, tau, xi + h, -t)
            dn, d_xi_dn, _, _ = flow_with_derivatives(field, tau, xi - h, -t)
            sig = float(np.asarray(field.sigma(tau, xi)))
            phi_xixi = (d_xi_up - d_xi_dn) / (2 * h)
            phi_xit = (
                float(np.asarray(field.sigma(tau, up)))
                - float(np.asarray(field.sigma(tau, dn)))
            ) / (2 * h)
            lhs = phi_xixi * sig**2 - 2 * phi_xit * sig + d_tt
            _, _, _, d_tt_fwd = flow_with_derivatives(field, tau, phi, t)
            assert lhs == pytest.approx(-d_xi * d_tt_fwd, abs=1e-5)


def test_d_xi_matches_finite_differences():
    rng = np.random.default_rng(44)
    h = 1e-5
    for field in (bs_field(), sqrt1p_field()):
        for _ in range(5):
            tau = float(rng.uniform(0, 1))
            xi = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-1, 1))
            _, d_xi, _, _ = flow_with_derivatives(field, tau, xi, t)
            fd = (flow(field, tau, xi + h, t) - flow(field, tau, xi - h, t)) / (2 * h)
            assert d_xi == pytest.approx(fd, abs=1e-5)


def test_d_xi_two_sided_exponential_bounds():
    field = sqrt1p_field()  # sup |sigma_xi| = 1
    rng = np.random.default_rng(55)
    for _ in range(10):
        xi = float(rng.uniform(-2, 2))
        t = float(rng.uniform(-1, 1))
        _, d_xi, _, _ = flow_with_derivatives(field, 0.0, xi, t)
        assert np.exp(-abs(t)) * (1 - 1e-8) <= d_xi <= np.exp(abs(t)) * (1 + 1e-8)
        assert d_xi > 0.0


def test_batch_matches_scalar():
    field = sqrt1p_field()
    tau = np.zeros(40)
    xi = np.linspace(-2, 2, 40)
    t = np.linspace(-1, 1, 40)
    phi, dxi, dtau, dtt = flow_with_derivatives(field, tau, xi, t)
    want = np.sinh(t + np.arcsinh(xi))
    assert np.max(np.abs(phi - want)) <= 1e-9
    for i in (0, 17, 39):
        assert flow(field, 0.0, float(xi[i]), float(t[i])) == pytest.approx(
            float(phi[i]), abs=1e-10
        )


def test_field_validation_catches_wrong_derivative():
    with pytest.raises(DomainError):
        VolatilityField(
            sigma=lambda t, xi: np.sin(xi) + 0.0 * np.asarray(t),
            sigma_t=lambda t, xi: 0.0 * np.asarray(t) + 0.0 * xi,
            sigma_xi=lambda t, xi: np.cos(xi) + 1.0 + 0.0 * np.asarray(t),  # off by 1
            time_free=True,
        )


def test_field_validation_catches_bound_violation():
    sin_t = dict(sigma=lambda t, xi: 1.0 + np.asarray(t) * np.sin(xi),
                 sigma_t=lambda t, xi: np.sin(xi) + 0.0 * np.asarray(t),
                 sigma_xi=lambda t, xi: np.asarray(t) * np.cos(xi))
    with pytest.raises(DomainError, match="declared time_free has sigma_t != 0"):
        VolatilityField(**sin_t, time_free=True)  # sigma_t = sin(xi)
    assert VolatilityField(**sin_t).time_free is False


def test_field_validation_rejects_non_finite():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(DomainError):
            field_from_expression("sqrt(xi)")  # sigma_xi is NaN for xi < 0
        with pytest.raises(DomainError):
            field_from_expression("1e999")  # sigma itself is inf


def test_field_validation_refuses_a_nan_central_difference():
    # finite on the sample box, but sigma(t, -5 - 1e-5) is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="sigma_xi disagrees with finite differences"):
            VolatilityField(sigma=lambda t, xi: np.power(xi + 5.0, 1.5),
                            sigma_t=lambda t, xi: 0.0,
                            sigma_xi=lambda t, xi: 1.5 * np.power(xi + 5.0, 0.5),
                            time_free=True)


def test_integrator_raises_on_nan():
    # sqrt(xi) is NaN from the first stage at xi = -1
    bare = SimpleNamespace(sigma=lambda t, xi: np.sqrt(xi),
                           sigma_t=lambda t, xi: 0.0,
                           sigma_xi=lambda t, xi: 0.5 / np.sqrt(xi))
    # a valid field whose flow from -5.9 runs out of its domain xi >= -6
    leaves = VolatilityField(
        sigma=lambda t, xi: np.sqrt(xi + 6.0),
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: 0.5 / np.sqrt(xi + 6.0),
        time_free=True,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        for field, xi, t in ((bare, -1.0, 0.5), (leaves, -5.9, -1.0)):
            with pytest.raises(FlowIntegrationError):
                flow(field, 0.0, xi, t)
            with pytest.raises(FlowIntegrationError):
                flow(field, np.zeros(2), np.array([xi, 0.5]), np.array([t, t]))
    assert np.isfinite(flow(leaves, 0.0, -5.9, 0.5))


def test_step_budget_guard(monkeypatch):
    field = dp45(sqrt1p_field())
    monkeypatch.setattr(sys.modules["pathqv.flow"], "_MAX_STEPS", 3)
    with pytest.raises(FlowIntegrationError):
        _checked(field, 0.0, 1.0, 1.0)
    with pytest.raises(FlowIntegrationError):
        _checked(field, np.zeros(4), np.ones(4), np.ones(4))


# -- rest points: d_xi from the variational row or from sigma(phi) / sigma(xi) --

def sin_flow(xi, t):
    """The flow of u' = sin(u) and its d_xi, stable at the rest point 0."""
    phi = 2.0 * np.arctan(np.tan(xi / 2.0) * np.exp(t))
    d_xi = np.exp(t) / (np.cos(xi / 2.0) ** 2 + np.sin(xi / 2.0) ** 2 * np.exp(2.0 * t))
    return phi, d_xi


REST_XI = (0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, 1.0)
REST_T = (-1.0, -0.5, 0.5, 1.0)


def test_sin_field_near_its_rest_point_in_a_batch():
    field = field_from_expression("sin(xi)")
    xi, t = (a.ravel() for a in np.meshgrid(REST_XI, REST_T))
    phi, d_xi, d_tau, _ = flow_with_derivatives(field, 0.3, xi, t)
    want_phi, want_d_xi = sin_flow(xi, t)
    assert np.max(np.abs(phi - want_phi)) <= 1e-9
    assert np.max(np.abs(d_xi - want_d_xi)) <= 1e-9
    assert np.all(d_xi > 0.0) and np.all(d_tau == 0.0)
    # at the rest point itself the point stays put and d_xi = e^t
    assert np.all(phi[xi == 0.0] == 0.0)
    assert np.max(np.abs(d_xi[xi == 0.0] - np.exp(t[xi == 0.0]))) <= 1e-9


@pytest.mark.parametrize("xi", REST_XI)
def test_sin_field_near_its_rest_point_one_point_at_a_time(xi):
    field = field_from_expression("sin(xi)")
    for t in REST_T:
        phi, d_xi, _, _ = flow_with_derivatives(field, 0.3, xi, t)
        want_phi, want_d_xi = sin_flow(xi, t)
        assert abs(phi - want_phi) <= 1e-9 and abs(d_xi - want_d_xi) <= 1e-9
        assert d_xi > 0.0
    # the same point in a batch of its own horizons
    phi, d_xi, _, _ = flow_with_derivatives(field, 0.3, xi, np.array(REST_T))
    want_phi, want_d_xi = sin_flow(xi, np.array(REST_T))
    assert np.max(np.abs(phi - want_phi)) <= 1e-9
    assert np.max(np.abs(d_xi - want_d_xi)) <= 1e-9 and np.all(d_xi > 0.0)


def test_time_dependent_field_at_its_rest_point():
    field = bs_field()
    tau, t = np.array([0.0, 0.4, 1.0, 0.7]), np.array([-0.8, 0.5, 1.0, 0.0])
    for xi in (np.zeros(4), np.array([0.0, 1.5, -0.3, 2.0])):
        exact = _checked(field, tau, xi, t)
        numeric = _checked(dp45(field), tau, xi, t)
        for a, b in zip(exact, numeric):
            assert np.max(np.abs(a - b)) <= 1e-9
        for i in range(4):
            alone = _checked(dp45(field), tau[i], xi[i], t[i])
            assert all(abs(a - b[i]) <= 1e-9 for a, b in zip(alone, exact))
        assert np.all(numeric[1] > 0.0)


# field, rest point xi0, and d_xi at xi0 + d after time t; the error scale
# |xi| + ATOL / RTOL of these fields is far from the distance d
REST_CASES = {
    "sin(xi) at 0": ("sin(xi)", 0.0, lambda d, t: sin_flow(d, t)[1]),
    "sin(xi) at pi": ("sin(xi)", np.pi, lambda d, t: sin_flow(d, -t)[1]),
    "xi-1": ("xi-1", 1.0, lambda d, t: np.exp(t)),
    "3*(xi-4)": ("3*(xi-4)", 4.0, lambda d, t: np.exp(3.0 * t)),
    "2*sin(xi-1)": ("2*sin(xi-1)", 1.0, lambda d, t: sin_flow(d, 2.0 * t)[1]),
}


@pytest.mark.parametrize("case", sorted(REST_CASES))
def test_d_xi_keeps_its_relative_accuracy_near_rest_points(case):
    # the variational row takes over where the quotient sigma(phi) / sigma(xi)
    # would lose accuracy; an absolute cut on |sigma(xi)| fails here
    src, xi0, want = REST_CASES[case]
    field = field_from_expression(src)
    t = np.array([-1.0, -0.5, 0.5, 1.0])
    for d in np.concatenate([np.logspace(-8, 0.3, 12), -np.logspace(-8, 0.3, 12)]):
        _, d_xi, _, _ = flow_with_derivatives(field, 0.3, xi0 + d, t)
        assert np.max(np.abs(d_xi / want(d, t) - 1.0)) <= 5e-11, d
        _, d_xi, _, _ = flow_with_derivatives(field, 0.3, xi0 + d, 1.0)
        assert abs(d_xi / want(d, 1.0) - 1.0) <= 5e-11, d


def test_guards_raise_near_rest_points(monkeypatch):
    # xi = 1 is a rest point of (xi-1) xi^2, and the flow from just above
    # it blows up: the step size underflows
    cubic = field_from_expression("(xi-1)*xi^2")
    leaves = VolatilityField(  # rest point at -6, where sigma_xi is infinite
        sigma=lambda t, xi: np.sqrt(xi + 6.0),
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: 0.5 / np.sqrt(xi + 6.0),
        time_free=True,
    )
    sin = field_from_expression("sin(xi)")
    with np.errstate(invalid="ignore", divide="ignore"):
        for field, xi, t, match in ((cubic, 1.0 + 1e-6, 30.0, "underflow"),
                                    (leaves, -6.0, -1.0, "non-finite")):
            with pytest.raises(FlowIntegrationError, match=match):
                flow_with_derivatives(field, 0.0, xi, t)
            with pytest.raises(FlowIntegrationError, match=match):
                flow_with_derivatives(field, np.zeros(2), np.array([xi, 0.5]), np.array([t, t]))
    monkeypatch.setattr(sys.modules["pathqv.flow"], "_MAX_STEPS", 3)
    with pytest.raises(FlowIntegrationError, match="steps"):
        _checked(sin, 0.0, 1e-6, 1.0)
    with pytest.raises(FlowIntegrationError, match="steps"):
        _checked(sin, np.zeros(2), np.array([0.0, 1.0]), np.ones(2))


def dp45_fields():
    return [field_from_expression("1+0.3*sin(xi)"), dp45(sqrt1p_field())]


def test_closed_form_results_are_handed_out_uncopied_unless_shared():
    # an input a closed form returns, or a result it returns twice, is
    # handed out as a copy: no output shares memory with an input or with
    # another output
    tau, xi, t = np.zeros(5), np.linspace(0.0, 1.0, 5), np.full(5, 0.5)
    e = np.exp(xi)
    shared = SimpleNamespace(exact_flow=lambda tau, xi, t: (e, e, xi),
                             sigma=lambda t, xi: 0.0, sigma_xi=lambda t, xi: 0.0)
    out = _checked(shared, tau, xi, t)
    assert not any(np.shares_memory(v, w) for v in out for w in (tau, xi, t, e, *out)
                   if v is not w)
    phi, d_xi, d_tau, _ = out
    assert np.array_equal(phi, e) and np.array_equal(d_xi, e) and np.array_equal(d_tau, xi)
    # a closed form that returns its input xi as phi hands out a copy of it
    still = VolatilityField(sigma=lambda t, xi: 0.0, sigma_t=lambda t, xi: 0.0,
                            sigma_xi=lambda t, xi: 0.0, time_free=True,
                            exact_flow=lambda tau, xi, t: (xi, 1.0, 0.0))
    tau, xi, t = np.zeros(5), np.arange(5.0), np.full(5, 0.5)
    phi = flow_with_derivatives(still, tau, xi, t)[0]
    assert xi.flags.owndata and not np.shares_memory(phi, xi) and np.array_equal(phi, xi)


def batch(n):
    """n points (tau, xi, t) as 1-D arrays, tau in [0, 1), xi in [-3, 3], t in [-1, 1]."""
    rng = np.random.default_rng(n)
    return rng.uniform(0.0, 1.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n)


def assert_same_bits(got, want):
    # the same bits, each in a writeable float64 array
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64 and g.flags.writeable and w.flags.writeable
        assert bits(g) == bits(w)


@pytest.mark.parametrize("n", [2, 17, 8193])
def test_one_dimensional_batch_has_the_bits_of_its_other_forms(n):
    # a 1-D batch, a 2-D array, a scalar tau and one point at a time give
    # the same bits
    tau, xi, t = batch(n)
    for field in (constant_field(0.7), bs_field(), sqrt1p_field()):
        out = flow_with_derivatives(field, tau, xi, t)
        assert all(type(v) is np.ndarray and v.shape == (n,) for v in out)
        assert not any(np.shares_memory(v, w) for v in out for w in (tau, xi, t, *out)
                       if v is not w)
        square = flow_with_derivatives(field, *(v.reshape(-1, 1) for v in (tau, xi, t)))
        assert all(v.shape == (n, 1) for v in square)
        assert_same_bits([v.reshape(-1) for v in square], out)
        fixed = flow_with_derivatives(field, np.full(n, 0.3), xi, t)
        scalar_tau = flow_with_derivatives(field, 0.3, xi, t)
        assert all(v.shape == (n,) for v in scalar_tau)
        assert_same_bits(scalar_tau, fixed)
        alone = [flow_with_derivatives(field, *point) for point in zip(tau, xi, t)]
        assert all(type(v) is np.float64 for point in alone for v in point)
        assert_same_bits([np.array(v) for v in zip(*alone)], out)
        assert bits(flow(field, tau, xi, t)) == bits(out[0])
    field = field_from_expression("1+0.3*sin(xi)")  # DP45: the same batch in 2-D
    out = flow_with_derivatives(field, tau, xi, t)
    square = flow_with_derivatives(field, *(v.reshape(1, -1) for v in (tau, xi, t)))
    assert_same_bits([v.reshape(-1) for v in square], out)


def test_non_finite_input_of_a_one_dimensional_batch_is_refused():
    for field in (sqrt1p_field(), field_from_expression("1+0.3*sin(xi)")):
        for k in (1, 2):
            for bad in (np.nan, np.inf):
                points = [v.copy() for v in batch(17)]
                points[k][5] = bad
                with pytest.raises(FlowIntegrationError,
                                   match="^flow inputs tau, xi and t must be finite$"):
                    flow_with_derivatives(field, *points)


def test_one_point_gives_the_same_bits_in_any_shape():
    point = (0.3, 0.7, -0.8)
    for field in dp45_fields():
        scalar = _checked(field, *point)
        for shape in ((), (1,), (1, 1)):
            out = _checked(field, *(np.full(shape, v) for v in point))
            assert all(np.shape(v) == shape for v in out)
            assert [bits(v) for v in out] == [bits(v) for v in scalar]


def test_zero_horizons_in_a_batch_are_identities():
    xi = np.array([-1.2, 0.4, 0.9, 2.5, -0.3])
    t = np.array([0.0, 0.6, 0.0, -0.7, 0.0])
    for field in dp45_fields():
        phi, d_xi, d_tau, _ = _checked(field, np.full(5, 0.4), xi, t)
        still = t == 0.0
        assert np.array_equal(phi[still], xi[still])
        assert np.all(d_xi[still] == 1.0) and np.all(d_tau[still] == 0.0)
        assert np.all(phi[~still] != xi[~still])


def test_zero_horizon_is_identity():
    field = bs_field()
    phi, d_xi, d_tau, _ = flow_with_derivatives(field, 0.5, 1.3, 0.0)
    assert phi == 1.3
    assert d_xi == 1.0
    assert d_tau == 0.0


# -- identity suite ----------------------------------------------------------

IDENTITY_FIELDS = {
    "constant": lambda: constant_field(0.7),
    "sqrt1p": sqrt1p_field,
    "geometric": bs_field,
    "expression": lambda: field_from_expression("1+0.3*sin(xi)"),
    "constant-dp45": lambda: dp45(constant_field(0.7)),
    "sqrt1p-dp45": lambda: dp45(sqrt1p_field()),
    "geometric-dp45": lambda: dp45(bs_field()),
}


def scalar_identity_defects(field, h=1e-4):
    """The identity suite point by point, one scalar flow solve at a time."""
    def sig(tau, xi):
        return float(np.asarray(field.sigma(tau, xi)))

    taus, xis = (0.0, 0.3, 0.7, 1.0), (-1.5, -0.4, 0.2, 1.1)
    ss, ts = (-0.6, 0.25, 0.5), (-0.5, 0.3, 0.8)
    worst = dict.fromkeys((name for name, _ in FLOW_CHECKS), 0.0)

    def record(name, d):
        worst[name] = max(worst[name], d)

    for tau in taus:
        for xi in xis:
            for s in ss:
                for t in ts:
                    mid = flow(field, tau, xi, s)
                    record("semigroup", abs(flow(field, tau, mid, t) - flow(field, tau, xi, s + t)))
            for t in ts:
                phi, d_xi, _, d_tt = flow_with_derivatives(field, tau, xi, -t)
                up, d_xi_up, _, _ = flow_with_derivatives(field, tau, xi + h, -t)
                dn, d_xi_dn, _, _ = flow_with_derivatives(field, tau, xi - h, -t)
                _, _, _, d_tt_fwd = flow_with_derivatives(field, tau, phi, t)
                s0 = sig(tau, xi)
                record("reverse-time identity", abs(sig(tau, phi) - d_xi * s0))
                phi_xixi = (d_xi_up - d_xi_dn) / (2 * h)
                phi_xit = (sig(tau, up) - sig(tau, dn)) / (2 * h)
                lhs = phi_xixi * s0**2 - 2.0 * phi_xit * s0 + d_tt
                record("second-order identity", abs(lhs + d_xi * d_tt_fwd))
                record("d_xi vs finite differences",
                       abs((up - dn) / (2 * h) - d_xi))
    return worst


@pytest.mark.parametrize("name", sorted(IDENTITY_FIELDS))
def test_identity_defects_within_tolerance(name):
    defects = flow_identity_defects(IDENTITY_FIELDS[name]())
    assert list(defects) == [check for check, _ in FLOW_CHECKS]
    for check, tol in FLOW_CHECKS:
        assert defects[check] <= tol, check


@pytest.mark.parametrize("name", sorted(IDENTITY_FIELDS))
def test_identity_defects_match_scalar_recomputation(name):
    field = IDENTITY_FIELDS[name]()
    batched = flow_identity_defects(field)
    scalar = scalar_identity_defects(field)
    for check, _ in FLOW_CHECKS:
        assert abs(batched[check] - scalar[check]) <= 1e-9, check


def test_identity_defects_flag_a_wrong_sensitivity():
    # sigma_xi off by 0.1 (bypassing field validation).  Away from rest
    # points d_xi is sigma(phi) / sigma(xi), which does not read sigma_xi:
    # the reverse-time identity and the d_xi check hold by construction,
    # and the wrong d_tt = sigma_xi sigma breaks the second-order identity
    base = sqrt1p_field()
    wrong = SimpleNamespace(sigma=base.sigma, sigma_t=base.sigma_t,
                            sigma_xi=lambda t, xi: base.sigma_xi(t, xi) + 0.1)
    defects = flow_identity_defects(wrong)
    assert defects["semigroup"] <= 1e-8
    assert defects["reverse-time identity"] <= 1e-7
    assert defects["d_xi vs finite differences"] <= 1e-5
    assert defects["second-order identity"] > 1e-3
    # a rest point at xi = 0.2, inside the sample box, makes the batch
    # integrate the variational row, which the wrong sigma_xi breaks
    wrong = SimpleNamespace(sigma=lambda t, xi: np.sin(xi - 0.2), sigma_t=base.sigma_t,
                            sigma_xi=lambda t, xi: np.cos(xi - 0.2) + 0.1)
    defects = flow_identity_defects(wrong)
    assert defects["semigroup"] <= 1e-8
    assert defects["reverse-time identity"] > 1e-3
    assert defects["d_xi vs finite differences"] > 1e-3


# -- closed-form flows: properties over generated points ---------------------

def make_field(kind, p, q):
    """A built-in field with a closed-form flow; p and q parametrize it."""
    if kind == "constant":
        return constant_field(p)
    if kind == "geometric":
        return scalar_linear_field(lambda t: p + q * np.asarray(t, dtype=np.float64),
                                   lambda t: q + 0.0 * np.asarray(t, dtype=np.float64))
    return sqrt1p_field()


kinds = st.sampled_from(["constant", "geometric", "sqrt1p"])
params = st.floats(-0.5, 0.5)
points = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
                  min_size=1, max_size=12)


def columns(pts):
    return tuple(np.array(c) for c in zip(*pts))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kind=kinds, p=params, q=params, pts=points)
def test_exact_flow_agrees_with_dp45(kind, p, q, pts):
    field = make_field(kind, p, q)
    tau, xi, t = columns(pts)
    exact = _checked(field, tau, xi, t)
    numeric = _checked(dp45(field), tau, xi, t)
    for a, b in zip(exact, numeric):
        assert np.max(np.abs(a - b)) <= 1e-9


def bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kind=kinds, p=params, q=params, pts=points, data=st.data())
def test_exact_flow_is_batch_invariant(kind, p, q, pts, data):
    field = make_field(kind, p, q)
    i = data.draw(st.integers(0, len(pts) - 1))
    batch = _checked(field, *columns(pts))
    alone = _checked(field, *pts[i])
    assert [bits(v) for v in alone] == [bits(v[i]) for v in batch]
    assert all(np.ndim(v) == 0 for v in alone)


def test_one_closed_form_point_gives_the_bits_of_its_batch():
    # a point alone runs on plain floats, a batch on arrays
    tau, xi, t = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(-3.0, 3.0, 7),
                             np.linspace(-1.0, 1.0, 5), indexing="ij")
    for field in (constant_field(0.7), bs_field(), sqrt1p_field()):
        batch = flow_with_derivatives(field, tau, xi, t)
        values = flow(field, tau, xi, t)
        for i in np.ndindex(tau.shape):
            point = (float(tau[i]), float(xi[i]), float(t[i]))
            for shape in ((), (1,), (1, 1)):
                alone = flow_with_derivatives(field, *(np.full(shape, v) for v in point))
                assert all(np.shape(v) == shape for v in alone)
                assert [bits(v) for v in alone] == [bits(v[i]) for v in batch]
            alone = flow_with_derivatives(field, *point)
            assert all(isinstance(v, np.float64) for v in alone)
            assert [bits(v) for v in alone] == [bits(v[i]) for v in batch]
            assert bits(flow(field, *point)) == bits(values[i])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kind=kinds, p=params, q=params, pts=points,
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_exact_flow_raises_on_non_finite_xi(kind, p, q, pts, bad, data):
    field = make_field(kind, p, q)
    tau, xi, t = columns(pts)
    xi[data.draw(st.integers(0, len(pts) - 1))] = bad
    with pytest.raises(FlowIntegrationError):
        flow_with_derivatives(field, tau, xi, t)
    with pytest.raises(FlowIntegrationError):
        flow(field, tau[0], bad, t[0])


def wrong_flow(exact_flow, member, factor):
    """exact_flow with one member broken; except "d_xi at t = 0" the defect
    vanishes at t = 0, so only the finite-difference checks can see it."""
    def broken(tau, xi, t):
        if member == "time":  # the flow of factor * sigma
            return exact_flow(tau, xi, factor * t)
        phi, d_xi, d_tau = exact_flow(tau, xi, t)
        if member == "d_xi at t = 0":
            return phi, factor * d_xi, d_tau
        if member == "d_xi":
            return phi, (1.0 + (factor - 1.0) * t) * d_xi, d_tau
        return phi, d_xi, d_tau + (factor - 1.0) * t

    return broken


# the check that refuses each broken member, as its error message says
WRONG_FLOW_MESSAGES = {"time": "does not solve", "d_xi at t = 0": r"not \(xi, 1, 0\)",
                       "d_xi": "d_xi disagrees", "d_tau": "d_tau disagrees"}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kind=kinds, p=st.floats(0.1, 0.5), q=params, factor=st.floats(1.01, 2.0),
       member=st.sampled_from(sorted(WRONG_FLOW_MESSAGES)))
def test_wrong_exact_flow_is_refused(kind, p, q, factor, member):
    # p >= 0.1 keeps the field off zero, whose flow ignores a time scale
    field = make_field(kind, p, q)
    with pytest.raises(DomainError, match=WRONG_FLOW_MESSAGES[member]):
        replace(field, exact_flow=wrong_flow(field.exact_flow, member, factor))


def test_exact_flow_not_finite_at_a_difference_point_is_refused():
    # finite on the box at t = 0 and +-0.5, but NaN at t = 0.5 + 1e-5
    field = sqrt1p_field()

    def pole(tau, xi, t):
        phi, d_xi, d_tau = field.exact_flow(tau, xi, t)
        return phi + 0.0 / (np.asarray(t) - (0.5 + 1e-5)), d_xi, d_tau

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="^exact_flow is not finite at sampled points$"):
            replace(field, exact_flow=pole)


def counted(field):
    """The field's callables wrapped in call counters, and the counter."""
    calls = Counter()

    def wrap(name):
        fn = getattr(field, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)

        return counting

    names = ("sigma", "sigma_t", "sigma_xi", "exact_flow")
    return {name: wrap(name) for name in names}, calls


@pytest.mark.parametrize("make", [lambda: constant_field(0.7), bs_field, sqrt1p_field])
def test_construction_evaluates_each_callable_on_stacked_slabs(make):
    # the box, its difference shifts and exact_flow's 15 slabs go in a few
    # stacked calls, not one call per slab
    field = make()
    callables, calls = counted(field)
    replace(field, **callables)
    assert calls["exact_flow"] == 1
    assert calls["sigma"] <= 4
    assert calls["sigma_xi"] == calls["sigma_t"] == 1


def test_sample_box_is_shared_read_only():
    # every field construction reads the same box, so a callable that
    # writes into its arguments must not change it for the next one
    def scribble(t, xi):
        xi *= 0.0
        return 1.0

    with pytest.raises(ValueError):
        sample_box_values(scribble, "scribble")
    t, xi = sample_box_values(lambda t, xi: t, "t"), sample_box_values(lambda t, xi: xi, "xi")
    assert (t.min(), t.max(), xi.min(), xi.max()) == (0.0, 1.0, -5.0, 5.0)
    with pytest.raises(DomainError, match=r"xi in \[-5, 5\]"):
        sample_box_values(lambda t, xi: 1.0 / xi, "1/xi")


def test_non_finite_exact_flow_is_refused():
    field = sqrt1p_field()
    with pytest.raises(DomainError, match="not finite"):
        replace(field, exact_flow=lambda tau, xi, t: (xi / (xi - xi), 1.0, 0.0))


ONE_POINT_FIELDS = {  # DP45 fields and the rows they integrate
    "expression": lambda: field_from_expression("1+0.3*sin(xi)"),  # u
    "sqrt1p-dp45": lambda: dp45(sqrt1p_field()),  # u
    "power": lambda: field_from_expression("1+0.5*xi^3/(1+xi^2)^1.3"),  # u
    "time-dependent": lambda: field_from_expression("(1+0.2*t)*(1+0.3*sin(xi))"),  # u, w
    "geometric-dp45": lambda: dp45(bs_field()),  # u, v, w
    "rest-point": lambda: field_from_expression("sin(xi)"),  # u, v: xi is scaled near 0
}


@settings(derandomize=True, max_examples=10, deadline=None)
@given(pts=points, copies=st.integers(2, 4), data=st.data())
def test_dp45_one_point_agrees_with_its_batch(pts, copies, data):
    # one point runs on floats and a batch on arrays, through the same
    # operations in the same order, so a point alone has the bits of its
    # copies in a batch; the shared step of a mixed batch moves a value
    # only in its last digits
    i = data.draw(st.integers(0, len(pts) - 1))
    for name, make in ONE_POINT_FIELDS.items():
        field = make()
        near = [(tau, 1e-3 * xi, t) for tau, xi, t in pts] if name == "rest-point" else pts
        batch = _checked(field, *columns(near))
        alone = _checked(field, *near[i])
        for a, b in zip(alone, batch):
            assert abs(a - b[i]) <= 1e-11
        same = [np.full(copies, v) for v in near[i]]
        alone += (flow(field, *near[i]),)
        copied = flow_with_derivatives(field, *same) + (flow(field, *same),)
        for a, b in zip(alone, copied):
            assert bits(b) == bits(np.full(copies, a)), name


@pytest.mark.parametrize("field", [constant_field(0.7), dp45(constant_field(0.7)),
                                   field_from_expression("2")])
def test_flow_with_derivatives_returns_four_arrays_of_phi_shape(field):
    # the field callables return scalars here; d_tt is padded like phi
    tau, xi, t = np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 1.0, 3)[:, None], 0.5
    out = flow_with_derivatives(field, tau, xi, t)
    assert [np.shape(v) for v in out] == [(3, 4)] * 4
    assert all(isinstance(v, np.ndarray) for v in out)


def raises_quietly(fn, *args):
    """fn(*args) raises FlowIntegrationError and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(FlowIntegrationError):
            fn(*args)


@pytest.mark.parametrize("field", [sqrt1p_field(), constant_field(1.0),
                                   field_from_expression("1+0.1*exp(xi)")],
                         ids=["sqrt1p", "constant", "dp45"])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["tau", "xi", "t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_refused(field, which, bad):
    # a start at -inf used to pass through: sigma(-inf) = 1 is finite
    point = [0.0, 0.5, 1.0]
    point[which] = bad
    batch = [np.array([0.0, 0.0]), np.array([0.5, 0.5]), np.array([1.0, 1.0])]
    batch[which][1] = bad
    for fn in (flow, flow_with_derivatives):
        raises_quietly(fn, field, *point)
        raises_quietly(fn, field, *batch)


def test_flow_overflow_is_a_flow_error():
    # both entry points share one guard: no bare OverflowError from a
    # power of Python floats, no numpy warning
    field = field_from_expression("xi^2+1")
    for fn in (flow, flow_with_derivatives):
        raises_quietly(fn, field, 0.0, 1e200, 1.0)
        raises_quietly(fn, field, np.zeros(2), np.array([0.5, 1e200]), np.ones(2))
    # a closed-form flow whose d_tt overflows at a finite flow value
    raises_quietly(flow_with_derivatives, sqrt1p_field(), 0.0, 1e200, 1.0)


def test_python_float_overflow_in_a_field_is_a_flow_error():
    # a float ** raises OverflowError where numpy would give inf; the flow
    # turns it into its own error
    field = VolatilityField(sigma=lambda t, xi: xi ** 2, sigma_t=lambda t, xi: 0.0,
                            sigma_xi=lambda t, xi: 2.0 * xi)
    with pytest.raises(FlowIntegrationError, match="overflow during flow integration"):
        flow(field, 0.0, 1e200, 1.0)


def test_scalar_linear_field_refuses_a_pole_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="finite on"):
            scalar_linear_field(lambda t: 1 / (t - 0.5), lambda t: -1 / (t - 0.5) ** 2)


# -- the inner solve: what the blocks of a pathwise solve call -----------------

INNER_FIELDS = {"const": constant_field(0.7), "linear": bs_field(), "sqrt1p": sqrt1p_field(),
                "dp45": field_from_expression("1+0.3*sin(xi)"),
                "dp45-w-row": field_from_expression("(0.2+0.1*t)*xi")}


@pytest.mark.parametrize("name", INNER_FIELDS)
def test_inner_solve_gives_the_bits_of_flow_with_derivatives(name):
    # on a 1-D block and on single points as floats; a value that is one
    # number for the whole block stays a float, and the public entry
    # points pad it to the block's shape
    field = INNER_FIELDS[name]
    tau, xi, t = batch(33)
    public = flow_with_derivatives(field, tau, xi, t)
    inner = _integrate(field, tau, xi, t)
    for got, want in zip(inner, public):
        assert isinstance(got, float) or got.shape == want.shape
        assert bits(np.broadcast_to(got, want.shape)) == bits(want)
    assert bits(_integrate(field, tau, xi, t, derivatives=False)[0]) == bits(flow(field, tau, xi, t))
    for i in (0, 11, 32):
        point = (float(tau[i]), float(xi[i]), float(t[i]))
        inner = _integrate(field, *point)
        assert all(type(v) is float for v in inner)
        assert [bits(v) for v in inner] == [bits(v) for v in flow_with_derivatives(field, *point)]
        assert _integrate(field, *point, derivatives=False) == (flow(field, *point),)


def test_inner_solve_leaves_closed_form_constants_unpadded():
    tau, xi, t = batch(9)
    _, d_xi, d_tau, d_tt = _integrate(constant_field(0.7), tau, xi, t)
    assert (d_xi, d_tau, d_tt) == (1.0, 0.0, 0.0)
    assert all(type(v) is float for v in (d_xi, d_tau, d_tt))
    assert type(_integrate(sqrt1p_field(), tau, xi, t)[2]) is float
    # a time-free DP45 field has no w row: its d_tau is the float 0.0 too
    assert _integrate(INNER_FIELDS["dp45"], tau, xi, t)[2] == 0.0


@pytest.mark.parametrize("kind", ["phi-nan", "phi-inf", "d_xi-zero"])
def test_inner_solve_refuses_a_broken_closed_form(kind, far_breaking_field):
    field = far_breaking_field(kind)
    xi = np.array([0.5, 60.0, -1.0])
    for points in ((np.zeros(3), xi, np.full(3, 0.5)), (0.0, 60.0, 0.5)):
        raises_quietly(_integrate, field, *points)
        raises_quietly(flow_with_derivatives, field, *points)
    # within |xi| <= 50 it is the straight line
    assert bits(_integrate(field, np.zeros(2), xi[[0, 2]], np.full(2, 0.5))[0]) == bits(xi[[0, 2]] + 0.5)


def test_inner_solve_refuses_an_overflowing_d_tt():
    # sqrt1p at 1e200: phi and d_xi are finite, sigma_xi sigma is not
    for points in ((np.zeros(2), np.array([0.5, 1e200]), np.ones(2)), (0.0, 1e200, 1.0)):
        raises_quietly(_integrate, sqrt1p_field(), *points)
