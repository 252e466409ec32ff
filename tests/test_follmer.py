import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathqv import (
    DomainError,
    FSCoefficients,
    SampledPath,
    build_x,
    follmer_integral,
    ito_residual,
    preset,
    qv_level,
    synthesize,
)


def test_unit_integrand_telescopes():
    x = build_x(preset("fig1-left"), 10)
    ones = SampledPath(10, np.ones(2**10 + 1))
    for n, t in ((8, 0.5), (10, 1.0)):
        want = x.restrict(n).value_at(t) - x.values[0]
        assert follmer_integral(ones, x, n, t) == pytest.approx(want, abs=1e-13)


def test_zero_integrand():
    x = build_x(preset("one"), 8)
    zero = SampledPath(8, np.zeros(2**8 + 1))
    assert follmer_integral(zero, x, 8, 1.0) == 0.0


def test_linearity():
    x = build_x(preset("fig2-left"), 10)
    rng = np.random.default_rng(3)
    a = SampledPath(10, rng.normal(size=2**10 + 1))
    b = SampledPath(10, rng.normal(size=2**10 + 1))
    lin = SampledPath(10, 2.0 * a.values - 3.0 * b.values)
    lhs = follmer_integral(lin, x, 10, 1.0)
    rhs = 2.0 * follmer_integral(a, x, 10, 1.0) - 3.0 * follmer_integral(b, x, 10, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_level_mismatch_rejected():
    x = build_x(preset("one"), 6)
    eta = SampledPath(8, np.ones(2**8 + 1))
    with pytest.raises(DomainError):
        follmer_integral(eta, x, 9, 1.0)


def test_summation_by_parts_identity_exact():
    # 2 int x dx + <x>^n = x(t)^2 - x(0)^2 holds exactly at every level:
    # per increment, 2a(b - a) = b^2 - a^2 - (b - a)^2.
    for name in ("one", "fig1-left", "fig1-right"):
        x = build_x(preset(name), 14)
        for n in (8, 11, 14):
            lhs = 2.0 * follmer_integral(x, x, n, 1.0) + qv_level(x, n, 1.0)
            rhs = x.values[-1] ** 2 - x.values[0] ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_associativity_at_fixed_level():
    # integrating eta against (integral of zeta dx) equals integrating
    # eta * zeta against x, exactly, at one level
    rng = np.random.default_rng(8)
    n = 9
    x = build_x(preset("fig1-right"), n)
    eta = SampledPath(n, rng.normal(size=2**n + 1))
    zeta = SampledPath(n, rng.normal(size=2**n + 1))
    inner_vals = np.concatenate(
        [[0.0], np.cumsum(zeta.values[:-1] * np.diff(x.values))]
    )
    inner = SampledPath(n, inner_vals)
    lhs = follmer_integral(eta, inner, n, 1.0)
    prod = SampledPath(n, eta.values * zeta.values)
    rhs = follmer_integral(prod, x, n, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ito_residual_linear_and_quadratic_exact():
    x = build_x(preset("fig2-left"), 12)
    lin = ito_residual(lambda v: 3 * v - 1, lambda v: 3.0 + 0 * v, lambda v: 0 * v, x, 12, 1.0)
    assert lin == pytest.approx(0.0, abs=1e-13)
    for n in (6, 9, 12):
        quad_res = ito_residual(lambda v: v**2, lambda v: 2 * v, lambda v: 2 + 0 * v, x, n, 1.0)
        assert abs(quad_res) <= 1e-12


coefficient = st.floats(-3.0, 3.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 10), a=coefficient, b=coefficient,
       c=coefficient, data=st.data())
def test_ito_residual_of_a_quadratic_vanishes_over_generated_paths(seed, depth, a, b, c, data):
    # F(v) = a v^2 + b v + c: the second-order Taylor expansion is exact
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-2.0, 2.0, size=2**m) for m in range(depth)]
    x = synthesize(FSCoefficients(*rng.uniform(-1.0, 1.0, size=2), rows), depth)
    n = data.draw(st.integers(0, depth), label="n")
    t = data.draw(st.integers(0, 2**n), label="k") * 2.0**-n
    res = ito_residual(lambda v: (a * v + b) * v + c, lambda v: 2 * a * v + b,
                       lambda v: 2 * a + 0 * v, x, n, t)
    v = np.abs(x.values)
    assert abs(res) <= 1e-12 * (1.0 + abs(a) * np.max(v) ** 2 + abs(b) * np.max(v))


def test_ito_residual_cubic_small_and_shrinking():
    x = build_x(preset("fig1-right"), 14)
    res = [
        abs(ito_residual(lambda v: v**3, lambda v: 3 * v**2, lambda v: 6 * v, x, n, 1.0))
        for n in (8, 12, 14)
    ]
    assert res[2] <= 0.02
    assert res[2] <= res[0]
    # third-order remainder bound: sum of |dx|^3
    v = x.values
    bound = np.sum(np.abs(np.diff(v)) ** 3)
    assert res[2] <= bound + 1e-12


def test_ito_residual_partial_time():
    x = build_x(preset("one"), 10)
    r = ito_residual(lambda v: v**2, lambda v: 2 * v, lambda v: 2 + 0 * v, x, 10, 0.5)
    assert abs(r) <= 1e-12


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [lambda v: 1.0 / np.asarray(v), lambda v: np.sqrt(v - 10.0)])
def test_ito_residual_rejects_non_finite_maps(which, bad):
    x = build_x(preset("one"), 8)  # x(0) = 0, where 1/v is infinite
    maps = [lambda v: v**2, lambda v: 2 * v, lambda v: 2 + 0 * v]
    maps[which] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError):
            ito_residual(*maps, x, 8, 1.0)
