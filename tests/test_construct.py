import numpy as np
import pytest
from scipy.integrate import quad

from pathqv import (
    DomainError,
    FunctionSequence,
    IrrationalShift,
    build_x,
    build_y,
    coefficients_x,
    coefficients_y,
    predicted_qv,
    preset,
    qv_level,
)


def const_seq(c):
    return FunctionSequence.constant_in_n(lambda t: np.full(np.shape(t), c), abs(c))


def test_zero_sequence_gives_zero_path():
    x = build_x(const_seq(0.0), 8)
    assert np.all(x.values == 0.0)


def test_all_ones_coefficients_and_qv():
    x = build_x(preset("one"), 10)
    c = coefficients_x(preset("one"), 10)
    for row in c.theta:
        assert np.all(row == 1.0)
    # exact finite-level value: 2^-n * sum of 2^m over m < n
    for n in (4, 7, 10):
        assert qv_level(x, n, 1.0) == pytest.approx(1.0 - 2.0**-n, abs=1e-12)


def test_curved_qv_matches_quadrature_oracle():
    x = build_x(preset("fig1-left"), 14)
    oracle, _ = quad(lambda s: np.cos(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert abs(qv_level(x, 14, 1.0) - oracle) <= 0.05


def test_linear_qv_matches_quadrature_oracle():
    y = build_y(preset("fig2-left"), IrrationalShift(float(np.e)), 14)
    oracle, _ = quad(lambda s: np.sin(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert abs(qv_level(y, 14, 1.0) - oracle) <= 0.05


def test_constant_sequence_shift_invariant():
    # constants are rotation-invariant: same coefficients either way
    f = const_seq(1.7)
    cy = coefficients_y(f, IrrationalShift(float(np.e)), 8)
    cx = coefficients_x(f, 8)
    for m in range(8):
        assert np.array_equal(cy.theta[m], cx.theta[m])
    # finite-level qv scales as c^2 times the all-ones value
    y = build_y(f, IrrationalShift(float(np.e)), 10)
    assert qv_level(y, 10, 1.0) == pytest.approx(1.7**2 * (1.0 - 2.0**-10), rel=1e-12)


def test_different_alpha_same_qv_limit():
    f = preset("fig2-left")
    y_e = build_y(f, IrrationalShift(float(np.e)), 12)
    y_10e = build_y(f, IrrationalShift(10.0 * float(np.e)), 12)
    assert np.max(np.abs(y_e.values - y_10e.values)) > 0.05  # genuinely different paths
    q1 = qv_level(y_e, 12, 1.0)
    q2 = qv_level(y_10e, 12, 1.0)
    pred = predicted_qv(f, "linear", 1.0)
    assert abs(q1 - pred) <= 0.05 and abs(q2 - pred) <= 0.05


def test_rotation_fractional_parts_exact():
    shift = IrrationalShift(float(np.e))
    p, q = float(np.e).as_integer_ratio()
    arr = shift.frac_array(1000)
    for k in (0, 1, 17, 999):
        exact = ((p * k) % q) / q
        assert arr[k] == exact
        assert shift.frac(k) == exact
    # naive float arithmetic agrees to rounding for small k
    assert abs(arr[17] - (float(np.e) * 17) % 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [float(np.e), 10.0 * float(np.pi)])
def test_coefficients_y_rows_are_rotation_prefixes(alpha):
    shift = IrrationalShift(alpha)
    ident = FunctionSequence.constant_in_n(lambda t: np.asarray(t, dtype=np.float64), 1.0)
    rows = coefficients_y(ident, shift, 12).theta
    assert len(rows) == 12
    for n, row in enumerate(rows):
        assert np.array_equal(row, shift.frac_array(2**n))


def test_rotation_requires_positive_alpha():
    with pytest.raises(DomainError):
        IrrationalShift(0.0)
    with pytest.raises(DomainError):
        IrrationalShift(-2.0)


def test_predicted_qv_examples():
    assert predicted_qv(const_seq(1.0), "curved", 0.3) == pytest.approx(0.3, abs=1e-10)
    oracle, _ = quad(lambda s: np.cos(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert predicted_qv(preset("fig1-left"), "curved", 1.0) == pytest.approx(oracle, abs=1e-9)
    oracle_sin, _ = quad(lambda s: np.sin(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert predicted_qv(preset("fig2-left"), "linear", 0.25) == pytest.approx(
        0.25 * oracle_sin, abs=1e-9
    )
    with pytest.raises(DomainError):
        predicted_qv(const_seq(1.0), "weird", 0.5)


def test_coefficients_linear_in_f():
    f = preset("fig1-left")
    g = preset("fig1-right")
    fg = FunctionSequence(
        lambda n, t: f.term(n, t) + g.term(n, t),
        lambda t: f.limit(t) + g.limit(t),
        f.uniform_bound + g.uniform_bound,
    )
    cf = coefficients_x(f, 8)
    cg = coefficients_x(g, 8)
    cfg = coefficients_x(fg, 8)
    for m in range(8):
        assert np.array_equal(cfg.theta[m], cf.theta[m] + cg.theta[m])


def test_holder_half_bound():
    # adjacent dyadic increments at the synthesis level obey C sqrt(h)
    for name in ("one", "fig1-left", "fig2-right"):
        f = preset(name)
        x = build_x(f, 12)
        C = (1.0 + np.sqrt(2.0)) * f.uniform_bound + 1e-9
        max_inc = np.max(np.abs(np.diff(x.values)))
        assert max_inc <= C * np.sqrt(2.0**-12)


def test_empirical_qv_error_trend():
    for name in ("fig1-left", "fig1-right"):
        f = preset(name)
        x = build_x(f, 14)
        pred = predicted_qv(f, "curved", 1.0)
        errs = [abs(qv_level(x, n, 1.0) - pred) for n in (8, 10, 12, 14)]
        for a, b in zip(errs, errs[1:]):
            assert b <= 2.0 * a + 1e-12  # non-increasing within factor-2 slack


def test_uniform_bound_enforced():
    with pytest.raises(DomainError):
        FunctionSequence.constant_in_n(lambda t: 2.0 + 0.0 * np.asarray(t), 1.0)


def test_nonconvergent_sequence_warns():
    diverging = lambda n, t: np.sin(n * np.asarray(t, dtype=np.float64)) * (n % 7) / 7.0
    with pytest.warns(UserWarning):
        FunctionSequence(diverging, lambda t: 0.0 * np.asarray(t), 1.0)


def test_preset_lookup():
    assert preset("fig2-right").uniform_bound == 10.0
    with pytest.raises(DomainError):
        preset("nope")
