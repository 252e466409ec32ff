import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathqv import DomainError, Expression, evaluate_constant, field_from_expression
from pathqv.expr import sequence_from_expression


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
    f = Expression("cos(2*pi*t)", ("t",))
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
    # Python syntax outside the grammar; a call's name must precede its "("
    for src in ("(sin)(xi)", "exp)(e", "sin(xi)(xi)", "2(3)", "sin()", "2**3", "1_0", "0x1",
                "xi # 2", "not xi", "True", "xi if xi"):
        with pytest.raises(DomainError):
            Expression(src, ("t", "xi"))


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


def test_field_from_expression_time_dependent():
    fe = field_from_expression("(0.2+0.1*t)*xi")
    assert float(np.asarray(fe.sigma_t(0.0, 2.0))) == pytest.approx(0.2, rel=1e-12)
    assert float(np.asarray(fe.sigma_xi(1.0, 5.0))) == pytest.approx(0.3, rel=1e-12)


def _solves(field):
    from pathqv import flow_with_derivatives

    xi = np.linspace(-1.0, 1.0, 5)
    batch = flow_with_derivatives(field, 0.3, xi, 0.5)
    point = flow_with_derivatives(field, 0.3, xi[1], 0.5)
    assert np.allclose([c[1] for c in batch], point, rtol=1e-9, atol=1e-12)
    return batch


# cos and unary minus leave a negated zero in the t-derivative, which folds
@pytest.mark.parametrize("src", ["1+0.3*sin(xi)", "sqrt(1+xi^2)", "xi + 0*t", "2+cos(xi)",
                                 "-xi", "exp(-xi^2/2)", "1+0.5*exp(-xi)"])
def test_time_free_field_declares_a_zero_t_bound(src):
    field = field_from_expression(src)
    assert field.time_free is True
    assert not np.any(_solves(field)[2])  # d_tau


@pytest.mark.parametrize("src", ["(0.2+0.1*t)*xi", "xi*(t-t)"])
def test_only_a_folded_zero_t_derivative_is_time_free(src):
    # xi*(t-t) samples a zero t-derivative, but its tree does not fold to 0
    field = field_from_expression(src)
    assert field.time_free is False
    _solves(field)


def test_a_field_stores_its_sup_bounds_as_floats():
    from pathqv import VolatilityField

    calls = []

    def sigma_t(t, xi):
        calls.append(1)
        return 0.0

    field = VolatilityField(sigma=lambda t, xi: 1.0 + 0.3 * np.sin(xi), sigma_t=sigma_t,
                            sigma_xi=lambda t, xi: 0.3 * np.cos(xi), time_free=True)
    calls.clear()  # construction samples sigma_t
    assert not np.any(_solves(field)[2]) and not calls
    # the flow takes any object with the field's attributes; one without
    # time_free integrates d_tau
    duck = SimpleNamespace(**{k: getattr(field, k) for k in ("sigma", "sigma_t", "sigma_xi")})
    assert not np.any(_solves(duck)[2]) and calls


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


def test_quotient_of_floats_has_the_value_of_an_array():
    # Python raises ZeroDivisionError on a float divided by zero; the
    # expression gives numpy's inf or NaN instead, without a warning
    e = Expression("x/y", ("x", "y"))
    special = [0.0, -0.0, 1.5, -2.0, 5e-324, np.inf, -np.inf, np.nan]
    values = special + np.random.default_rng(1).uniform(-3.0, 3.0, 40).tolist()
    a, b = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    with np.errstate(all="ignore"):
        want = a / b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([e(float(x), float(y)) for x, y in zip(a, b)])
        # differentiating evaluates a constant exponent, here 1/0 = inf
        d = Expression("xi^(1/0)", ("xi",)).diff("xi")
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()
    assert d.ast[1] == ("num", np.inf)


@pytest.mark.parametrize("src", ["1/(xi-7)", "xi^0.5"], ids=["pole", "root"])
def test_field_from_expression_non_finite_derivative_on_its_box(src):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError) as err:
            field_from_expression(src)
    assert src in str(err.value) and "xi in [-8, 8]" in str(err.value)


# -- the grammar, as property tests ---------------------------------------------

_LEAVES = st.one_of(
    st.floats(0.0, 1e300).map(lambda v: ("num", abs(v))),  # abs: no -0.0
    st.sampled_from([("var", "t"), ("var", "xi")]),
)
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    kids.map(lambda a: ("neg", a)),
    st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "sinh", "exp", "sqrt"]), kids),
    st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), kids, kids),
), max_leaves=12)
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _render(node, full):
    """(text, precedence) of a tree, with the parentheses the grammar's
    precedence needs, or around every operation when ``full``."""
    tag = node[0]
    if tag == "num":
        return repr(node[1]), 5
    if tag == "var":
        return node[1], 5
    if tag == "call":
        return f"{node[1]}({_render(node[2], full)[0]})", 5

    def operand(child, least):
        text, prec = _render(child, full)
        return f"({text})" if prec < least or (full and prec < 5) else text

    if tag == "neg":  # unary := '-' unary | power
        return "-" + operand(node[1], 3), 3
    if tag == "pow":  # power := atom '^' unary
        return operand(node[1], 5) + "^" + operand(node[2], 3), 4
    prec = _PREC[tag]  # left-associative: the right operand binds tighter
    return operand(node[1], prec) + _SYMBOL[tag] + operand(node[2], prec + 1), prec


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_TREES, st.booleans())
def test_rendered_trees_parse_back_to_themselves(tree, full):
    assert Expression(_render(tree, full)[0], ("t", "xi")).ast == tree


_WORDS = ["xi", "t", "2", "0.5", "1e-3", ".25", "1e400", "pi", "e", "sin", "exp", "sqrt",
          "foo", "+", "-", "*", "/", "^", "(", ")", " "]
_STRAY = ["$", "#", "_", "1_0", "0x1", ".", "**", "%", "@", "=", ",", "[", "\n", "j", "if",
          "not", "True", "lambda", ":", "await", "for", "in", "//", "'"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_WORDS + _STRAY), max_size=16).map("".join))
def test_token_strings_parse_or_raise_domain_error(src):
    try:
        Expression(src, ("t", "xi"))
    except DomainError:
        pass


def _nested(depth):
    return "xi" + "+xi" * (depth - 1)  # a flat sum is a tree as deep as its terms


def test_nesting_cap():
    from pathqv import flow_with_derivatives
    from pathqv.expr import MAX_DEPTH

    with pytest.raises(DomainError, match="nested deeper"):
        Expression(_nested(MAX_DEPTH + 1))
    # the deepest accepted trees and their derivatives evaluate in a flow solve
    # d/dxi of a quotient is about three times as deep as the quotient
    quotients = "(" * (MAX_DEPTH - 3) + "xi" + ")/(2+sin(xi))" * (MAX_DEPTH - 3)
    for src in (_nested(MAX_DEPTH - 1) + "+1", quotients):
        field = field_from_expression(src)
        assert np.all(np.isfinite(flow_with_derivatives(field, 0.5, 1.5, 0.01)))
    with pytest.raises(DomainError):
        Expression("(" * 300 + "xi" + ")" * 300)  # Python's parser refuses 300 parentheses


def test_field_from_expression_names_the_built_in_sqrt1p_field():
    from pathqv import flow, sqrt1p_field

    field, builtin = field_from_expression("sqrt1p"), sqrt1p_field()
    assert field.name == "sqrt1p" and field.time_free
    assert field.exact_flow is builtin.exact_flow  # the closed form, not DP45
    xi = np.array([-1.0, 0.0, 0.3])
    assert np.array_equal(flow(field, 0.0, xi, 0.5), flow(builtin, 0.0, xi, 0.5))


def test_sequence_from_expression_bounds_f_by_its_level_10_maximum():
    from pathqv.construct import SPOT_GRID

    fseq = sequence_from_expression("sin(7*t)^2")
    f = Expression("sin(7*t)^2", ("t",))
    assert fseq.name == "sin(7*t)^2"
    assert fseq.uniform_bound == float(np.max(np.abs(f(SPOT_GRID)))) * (1.0 + 1e-3)
    t = np.array([0.1, 0.3, 0.7])
    assert np.array_equal(fseq.term(5, t), f(t))
    assert np.array_equal(fseq.limit(t), f(t))
    # 0.5 is a point of the level-10 grid
    with pytest.raises(DomainError, match="is not finite on"):
        sequence_from_expression("1/(t-0.5)")
    with pytest.raises(DomainError, match="unknown name 'xi'"):
        sequence_from_expression("xi")
