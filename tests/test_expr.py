import warnings

import numpy as np
import pytest

from pathqv import DomainError, Expression, evaluate_constant, field_from_expression
from pathqv.expr import scalar_function


def test_arithmetic_and_precedence():
    e = Expression("2+3*4^2", variables=())
    assert e() == 50.0
    assert Expression("2*3+4", variables=())() == 10.0
    assert Expression("(2+3)*4", variables=())() == 20.0
    assert Expression("2^3^2", variables=())() == 512.0  # right-associative
    assert Expression("-2^2", variables=())() == -4.0
    assert Expression("6/4/2", variables=())() == 0.75


def test_constants_and_functions():
    assert evaluate_constant("e") == pytest.approx(np.e, rel=1e-15)
    assert evaluate_constant("10*e") == pytest.approx(10 * np.e, rel=1e-15)
    assert evaluate_constant("sin(pi/2)") == pytest.approx(1.0, rel=1e-15)
    assert evaluate_constant("sqrt(2)^2") == pytest.approx(2.0, rel=1e-14)
    assert evaluate_constant("exp(0)") == 1.0
    assert evaluate_constant("sinh(1)") == pytest.approx(np.sinh(1.0), rel=1e-15)


def test_variables_vectorize():
    f = scalar_function("cos(2*pi*t)", "t")
    t = np.linspace(0, 1, 11)
    assert np.allclose(f(t), np.cos(2 * np.pi * t), atol=1e-15)
    sig = Expression("(0.2+0.1*t)*xi", ("t", "xi"))
    assert sig(0.5, 2.0) == pytest.approx(0.5, rel=1e-15)
    out = sig(t, np.ones_like(t))
    assert out.shape == t.shape


def test_parse_errors():
    with pytest.raises(DomainError):
        Expression("2+", variables=())
    with pytest.raises(DomainError):
        Expression("sin(", variables=())
    with pytest.raises(DomainError):
        Expression("foo(3)", variables=())
    with pytest.raises(DomainError):
        Expression("t", variables=())  # undeclared variable
    with pytest.raises(DomainError):
        Expression("2 $ 3", variables=())
    with pytest.raises(DomainError):
        Expression("2 3", variables=())  # trailing input


def test_differentiation_matches_finite_differences():
    cases = [
        ("xi^3", ("xi",)),
        ("sin(2*xi)+cos(xi^2)", ("xi",)),
        ("sqrt(1+xi^2)", ("xi",)),
        ("exp(-xi/2)*xi", ("xi",)),
        ("sinh(xi)", ("xi",)),
    ]
    pts = np.array([-1.3, -0.2, 0.4, 1.7])
    h = 1e-6
    for src, variables in cases:
        e = Expression(src, variables)
        de = e.diff("xi")
        fd = (e(pts + h) - e(pts - h)) / (2 * h)
        assert np.allclose(de(pts), fd, atol=1e-7), src


def test_differentiation_partial():
    e = Expression("(0.2+0.1*t)*xi", ("t", "xi"))
    assert e.diff("t")(0.3, 2.0) == pytest.approx(0.2, rel=1e-14)
    assert e.diff("xi")(0.3, 2.0) == pytest.approx(0.23, rel=1e-14)


def test_nonconstant_exponent_derivative_rejected():
    e = Expression("2^xi", ("xi",))
    with pytest.raises(DomainError):
        e.diff("xi")
    # constant exponents are fine even when written as expressions
    e2 = Expression("xi^(1+1)", ("xi",))
    assert e2.diff("xi")(3.0) == pytest.approx(6.0, rel=1e-14)


def test_field_from_expression_matches_builtin():
    from pathqv import flow, sqrt1p_field

    fe = field_from_expression("sqrt(1+xi^2)")
    fb = sqrt1p_field()
    for xi in (-1.0, 0.3):
        for t in (0.5, -0.7):
            assert flow(fe, 0.0, xi, t) == pytest.approx(flow(fb, 0.0, xi, t), abs=1e-10)
    assert fe.sup_sigma_xi <= 1.0 + 1e-12


def test_field_from_expression_time_dependent():
    fe = field_from_expression("(0.2+0.1*t)*xi")
    assert float(np.asarray(fe.sigma_t(0.0, 2.0))) == pytest.approx(0.2, rel=1e-12)
    assert float(np.asarray(fe.sigma_xi(1.0, 5.0))) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("src", ["1+0.3*sin(xi)", "sqrt(1+xi^2)", "xi + 0*t"])
def test_time_free_field_declares_a_zero_t_bound(src):
    assert field_from_expression(src).sup_sigma_t == 0.0


@pytest.mark.parametrize("src", ["(0.2+0.1*t)*xi", "xi*(t-t)"])
def test_only_a_folded_zero_t_derivative_is_time_free(src):
    # xi*(t-t) samples a zero t-derivative, but its tree does not fold to 0
    assert field_from_expression(src).sup_sigma_t > 0.0


def test_time_dependent_expression_field_d_tau_matches_closed_form():
    from pathqv import flow_with_derivatives

    fe = field_from_expression("(0.2+0.1*t)*xi")
    rng = np.random.default_rng(8)
    tau, xi, t = rng.uniform(0, 1, 64), rng.uniform(-2, 2, 64), rng.uniform(-1, 1, 64)
    # d/dtau of xi e^{(0.2 + 0.1 tau) t}
    want = xi * t * 0.1 * np.exp((0.2 + 0.1 * tau) * t)
    _, _, d_tau, _ = flow_with_derivatives(fe, tau, xi, t)
    assert np.max(np.abs(d_tau - want)) <= 1e-9
    for i in (0, 31, 63):
        _, _, d_tau, _ = flow_with_derivatives(fe, tau[i], xi[i], t[i])
        assert abs(d_tau - want[i]) <= 1e-9


def test_expression_wrong_arity():
    e = Expression("xi", ("xi",))
    with pytest.raises(DomainError):
        e(1.0, 2.0)


def test_expression_returns_what_numpy_gives_unpadded():
    # the field contract: anything that broadcasts; eval_on pads where needed
    t, xi = np.zeros(3), np.linspace(-1.0, 1.0, 3)
    assert Expression("2")(t, xi) == 2.0 and np.ndim(Expression("2")(t, xi)) == 0
    assert np.shape(Expression("2*t")(0.5, xi)) == ()
    assert np.shape(Expression("1+t*0")(t, 0.0)) == (3,)


def test_power_of_a_float_has_the_bits_of_an_array():
    # ^ is numpy's power on plain floats too; Python's ** differs from it in
    # the last bit for some inputs, and gives a complex for a negative base
    e = Expression("xi^-2.5 + xi^3", ("xi",))
    xi = np.random.default_rng(0).uniform(0.1, 5.0, 2000)
    assert [float(e(float(v))) for v in xi] == e(xi).tolist()
    with np.errstate(invalid="ignore"):
        assert np.isnan(Expression("(xi+10)^0.5", ("xi",))(-11.0))


@pytest.mark.parametrize("src", ["1/(xi-7)", "xi^0.5"], ids=["pole", "root"])
def test_field_from_expression_non_finite_derivative_on_its_box(src):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError) as err:
            field_from_expression(src)
    assert src in str(err.value) and "xi in [-8, 8]" in str(err.value)
