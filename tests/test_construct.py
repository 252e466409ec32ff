import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from pathqv import (
    DomainError,
    Expression,
    FunctionSequence,
    IrrationalShift,
    build_x,
    build_y,
    coefficients_x,
    coefficients_y,
    grid_points,
    predicted_qv,
    preset,
    qv_level,
)
import pathqv.construct as construct
from pathqv.construct import PRESETS


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
    pred = predicted_qv(f, "linear", 12).value_at(1.0)
    assert abs(q1 - pred) <= 0.05 and abs(q2 - pred) <= 0.05


def test_rotation_fractional_parts_exact():
    shift = IrrationalShift(float(np.e))
    p, q = float(np.e).as_integer_ratio()
    arr = shift.frac_array(1000)
    for k in (0, 1, 17, 999):
        exact = ((p * k) % q) / q
        assert arr[k] == exact
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


def _frac_loop(p, q, count):
    """[p k mod q / q for k in range(count)], one Python integer at a time:
    the reference for ``IrrationalShift.frac_array``."""
    out = np.empty(count, dtype=np.float64)
    r = 0
    for k in range(count):
        out[k] = r / q
        r += p
        if r >= q:
            r -= q
    return out


@functools.lru_cache(maxsize=None)
def looped_fracs(alpha, count=2**19):
    p, q = alpha.as_integer_ratio()
    return _frac_loop(p % q, q, count)


@pytest.mark.parametrize("alpha", [math.e, 10.0 * math.pi, 2.0**-60, 2.0**-62])
def test_frac_array_is_bit_identical_to_the_integer_loop(alpha):
    assert IrrationalShift(alpha).frac_array(2**19).tobytes() == looped_fracs(alpha).tobytes()
    for count in (0, 1, 2, 3, 1000):
        assert np.array_equal(IrrationalShift(alpha).frac_array(count), looped_fracs(alpha)[:count])


# alpha = mantissa 2^-shift; q = 2^64 is the largest denominator of the
# uint64 product, and a larger q takes Python integers
@settings(derandomize=True, max_examples=60, deadline=None)
@given(mantissa=st.integers(1, 2**53 - 1), shift=st.integers(-60, 170),
       count=st.integers(0, 3000))
@example(mantissa=1, shift=62, count=3000)  # q = 2^62
@example(mantissa=3, shift=64, count=3000)  # q = 2^64
@example(mantissa=2**53 - 1, shift=65, count=3000)  # q = 2^65
def test_frac_array_matches_the_integer_loop_over_generated_alpha(mantissa, shift, count):
    alpha = math.ldexp(mantissa, -shift)
    p, q = alpha.as_integer_ratio()
    want = _frac_loop(p % q, q, count)
    assert IrrationalShift(alpha).frac_array(count).tobytes() == want.tobytes()


def test_frac_array_beyond_int64_keeps_exact():
    shift = IrrationalShift(2.0**-63 * (1.0 + 2.0**-52))  # q = 2^115
    p, q = shift.alpha.as_integer_ratio()
    arr = shift.frac_array(1000)
    assert all(arr[k] == (p * k % q) / q for k in range(1000))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_depth_20_rotation_rows_are_bit_identical_to_the_integer_loop(name, monkeypatch):
    for alpha in (math.e, 10.0 * math.pi):
        rows = coefficients_y(preset(name), IrrationalShift(alpha), 20).theta
        monkeypatch.setattr(IrrationalShift, "frac_array",
                            lambda self, count: looped_fracs(self.alpha)[:count].copy())
        want = coefficients_y(preset(name), IrrationalShift(alpha), 20).theta
        monkeypatch.undo()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, want))


def test_rotation_requires_positive_alpha():
    with pytest.raises(DomainError):
        IrrationalShift(0.0)
    with pytest.raises(DomainError):
        IrrationalShift(-2.0)


def test_predicted_qv_examples():
    assert predicted_qv(const_seq(1.0), "curved", 4).value_at(0.3125) == pytest.approx(
        0.3125, abs=1e-10
    )
    oracle, _ = quad(lambda s: np.cos(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert predicted_qv(preset("fig1-left"), "curved", 4).value_at(1.0) == pytest.approx(
        oracle, abs=1e-9
    )
    oracle_sin, _ = quad(lambda s: np.sin(2 * np.pi * s) ** 2, 0.0, 1.0)
    assert predicted_qv(preset("fig2-left"), "linear", 4).value_at(0.25) == pytest.approx(
        0.25 * oracle_sin, abs=1e-9
    )
    with pytest.raises(DomainError):
        predicted_qv(const_seq(1.0), "weird", 4)
    with pytest.raises(DomainError):
        predicted_qv(const_seq(1.0), "curved", 0.5)  # a level, not a time


# closed forms of t -> integral_0^t f_inf(s)^2 ds for the shipped presets
PRESET_CURVED_QV = {
    "one": lambda t: t,
    "fig1-left": lambda t: t / 2 + np.sin(4 * np.pi * t) / (8 * np.pi),
    "fig1-right": lambda t: 3 * t / 8 - np.sin(14 * t) / 28 + np.sin(28 * t) / 224,
    "fig2-left": lambda t: t / 2 - np.sin(4 * np.pi * t) / (8 * np.pi),
    "fig2-right": lambda t: t / 2 + np.sin(12 * np.pi * t) / (24 * np.pi),
}


@pytest.mark.parametrize("level", [8, 12])
@pytest.mark.parametrize("name", sorted(PRESET_CURVED_QV))
def test_predicted_qv_matches_closed_forms_on_the_grid(name, level):
    closed = PRESET_CURVED_QV[name]
    t = grid_points(level)
    curved = predicted_qv(preset(name), "curved", level)
    linear = predicted_qv(preset(name), "linear", level)
    assert curved.level == linear.level == level
    assert np.max(np.abs(curved.values - closed(t))) <= 1e-12
    assert np.max(np.abs(linear.values - t * closed(1.0))) <= 1e-12


def per_point_simpson(fseq, t, panels=2**14):
    """The per-point rule the curve replaced: composite Simpson on [0, t]."""
    y = np.asarray(fseq.limit(np.linspace(0.0, t, panels + 1))) ** 2
    return t / panels / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


@pytest.mark.parametrize("name", sorted(PRESET_CURVED_QV))
def test_predicted_qv_matches_the_per_point_rule(name):
    fseq = preset(name)
    curved = predicted_qv(fseq, "curved", 8).values
    linear = predicted_qv(fseq, "linear", 8).values
    total = per_point_simpson(fseq, 1.0)
    for k in (1, 37, 128, 255, 256):
        assert abs(curved[k] - per_point_simpson(fseq, k / 256)) <= 1e-14
        assert abs(linear[k] - k / 256 * total) <= 1e-14


def test_predicted_qv_closed_forms_match_the_quadrature_oracle():
    for name, closed in PRESET_CURVED_QV.items():
        f = preset(name).limit
        for t in (0.3, 1.0):
            oracle, _ = quad(lambda s: float(f(s)) ** 2, 0.0, t, limit=200)
            assert closed(t) == pytest.approx(oracle, abs=1e-12)


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
        pred = predicted_qv(f, "curved", 14).value_at(1.0)
        errs = [abs(qv_level(x, n, 1.0) - pred) for n in (8, 10, 12, 14)]
        for a, b in zip(errs, errs[1:]):
            assert b <= 2.0 * a + 1e-12  # non-increasing within factor-2 slack


def test_uniform_bound_enforced():
    with pytest.raises(DomainError):
        FunctionSequence.constant_in_n(lambda t: 2.0 + 0.0 * np.asarray(t), 1.0)


def test_spot_check_refuses_a_pole_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="finite"):
            FunctionSequence.constant_in_n(Expression("1/(t-0.5)", ("t",)), 1.0)


@pytest.mark.parametrize("what, term, limit", [
    ("limit(t)", lambda n, t: np.ones_like(t), lambda t: np.where(t == 0.5, np.nan, 1.0)),
    ("term(64, t)", lambda n, t: np.where((t == 0.5) & (n == 64), np.inf, 1.0 + 0.0 * t),
     lambda t: np.ones_like(t)),
])
def test_spot_check_refuses_a_limit_or_f_64_that_is_not_finite(what, term, limit):
    # neither is bound-checked, but a NaN gap would hide the convergence warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^{re.escape(what)} must return finite values"):
            FunctionSequence(term, limit, 1.0)


@pytest.mark.parametrize("build", [
    lambda f: coefficients_x(f, 13),
    lambda f: coefficients_y(f, IrrationalShift(math.e), 12),
], ids=["x", "y"])
def test_rows_beyond_the_declared_bound_are_refused(build):
    # the bound is right on the spot grid, but the rows sample nearer the pole
    f = Expression("1/(t-0.3)", ("t",))
    fseq = FunctionSequence.constant_in_n(f, float(np.max(np.abs(f(grid_points(10))))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="exceeds the declared uniform bound"):
            build(fseq)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_rows_stay_within_their_bound(name):
    fseq = preset(name)
    for rows in (coefficients_x(fseq, 16).theta,
                 coefficients_y(fseq, IrrationalShift(math.e), 16).theta):
        assert max(np.max(np.abs(r)) for r in rows) <= fseq.uniform_bound


def test_nonconvergent_sequence_warns():
    diverging = lambda n, t: np.sin(n * np.asarray(t, dtype=np.float64)) * (n % 7) / 7.0
    with pytest.warns(UserWarning):
        FunctionSequence(diverging, lambda t: 0.0 * np.asarray(t), 1.0)


def test_preset_lookup():
    assert preset("fig2-right").uniform_bound == 10.0
    with pytest.raises(DomainError):
        preset("nope")


def test_a_preset_is_built_on_its_first_lookup_only(monkeypatch):
    built = []
    build = construct._PRESET_BUILDERS["one"]
    monkeypatch.setattr(construct, "_built_presets", {})
    monkeypatch.setitem(construct._PRESET_BUILDERS, "one",
                        lambda: built.append("one") or build())
    first = preset("one")
    assert preset("one") is first and first.name == "one"
    assert built == ["one"]


def test_predicted_qv_refuses_a_limit_pole_between_the_spot_checks():
    # 1/(t - 2^-14) is finite on the level-10 spot grid, and the level-12
    # coefficient rows never sample 2^-14, but the Simpson pass does
    pole = 2.0**-14
    fseq = FunctionSequence.constant_in_n(lambda t: 1.0 / (t - pole), 2.0 / pole)
    build_x(fseq, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="limit"):
            predicted_qv(fseq, "curved", 12)


def test_x_from_spec_builds_a_preset_or_reads_a_file(tmp_path):
    x, fseq = construct.x_from_spec("preset:fig1-left", 8)
    assert fseq is preset("fig1-left")
    assert np.array_equal(x.values, build_x(fseq, 8).values)
    path = tmp_path / "x.json"
    x.to_file(path)
    back, none = construct.x_from_spec(str(path), 6)  # a file may be finer than asked
    assert none is None and back.level == 8
    assert np.array_equal(back.values, x.values)
    with pytest.raises(DomainError, match="level 8 below requested 10"):
        construct.x_from_spec(str(path), 10)
    with pytest.raises(DomainError, match="unknown preset 'nope'"):
        construct.x_from_spec("preset:nope", 8)
    with pytest.raises(OSError):
        construct.x_from_spec(str(tmp_path / "missing.csv"), 8)
