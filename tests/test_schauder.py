import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathqv import (
    DomainError,
    FSCoefficients,
    SampledPath,
    analyze,
    basis_eval,
    build_x,
    preset,
    synthesize,
)


def test_basis_values():
    assert basis_eval(0, 0, 0.5) == 0.5
    assert basis_eval(1, 0, 0.25) == pytest.approx(2.0**-1.5, rel=1e-15)
    assert basis_eval(3, 2, 0.9) == 0.0


def test_basis_peak_and_support():
    for m in (0, 2, 5):
        for k in (0, 2**m - 1):
            center = (k + 0.5) * 2.0**-m
            assert basis_eval(m, k, center) == pytest.approx(2.0 ** (-(m + 2) / 2), rel=1e-15)
            assert basis_eval(m, k, k * 2.0**-m) == 0.0
            assert basis_eval(m, k, (k + 1) * 2.0**-m) == 0.0


def test_basis_index_out_of_range():
    with pytest.raises(DomainError):
        basis_eval(2, 4, 0.5)
    with pytest.raises(DomainError):
        basis_eval(2, -1, 0.5)


def test_disjoint_support_within_row():
    t = np.linspace(0.0, 1.0, 513)
    for m in (1, 3):
        for k in range(2**m - 1):
            prod = basis_eval(m, k, t) * basis_eval(m, k + 1, t)
            assert np.all(prod == 0.0)


def test_analyze_linear_function_is_zero():
    p = SampledPath.from_function(lambda t: 2.0 - 3.0 * t, 6)
    c = analyze(p)
    assert c.anchor == 2.0
    assert c.slope == -3.0
    assert all(np.max(np.abs(row)) < 1e-14 for row in c.theta)


def test_analyze_recovers_single_wedge():
    p = SampledPath.from_function(lambda t: np.maximum(0.0, np.minimum(t, 1.0 - t)), 4)
    c = analyze(p)
    assert c.anchor == 0.0 and c.slope == 0.0
    assert c.theta[0][0] == pytest.approx(1.0, abs=1e-14)
    for m in range(1, 4):
        assert np.max(np.abs(c.theta[m])) < 1e-14


def test_analyze_all_ones_coefficients():
    x = build_x(preset("one"), 8)
    c = analyze(x)
    for row in c.theta:
        assert np.allclose(row, 1.0, atol=1e-12)


def test_synthesize_line():
    c = FSCoefficients(3.0, -1.0, [])
    p = synthesize(c, 4)
    assert np.allclose(p.values, 3.0 - p.times(), atol=0)


def test_synthesize_single_wedge():
    c = FSCoefficients(0.0, 0.0, [[1.0]])
    p = synthesize(c, 2)
    assert list(p.values) == [0.0, 0.25, 0.5, 0.25, 0.0]


def test_synthesize_below_depth_rejected():
    c = FSCoefficients(0.0, 0.0, [[1.0], [0.5, -0.5]])
    with pytest.raises(DomainError):
        synthesize(c, 1)


def test_row_shape_validation():
    with pytest.raises(DomainError):
        FSCoefficients(0.0, 0.0, [[1.0, 2.0]])


def test_round_trip_random_coefficients():
    rng = np.random.default_rng(123)
    for _ in range(10):
        rows = [rng.uniform(-2.0, 2.0, size=2**m) for m in range(6)]
        anchor, slope = rng.uniform(-1, 1, size=2)
        c = FSCoefficients(anchor, slope, rows)
        back = analyze(synthesize(c, 10))
        assert back.anchor == pytest.approx(anchor, abs=1e-12)
        assert back.slope == pytest.approx(slope, abs=1e-12)
        for m in range(10):  # the rows beyond the sixth are zero
            assert np.allclose(back.theta[m], rows[m] if m < 6 else 0.0, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 10), extra=st.integers(0, 2),
       scale=st.floats(0.01, 4.0))
def test_round_trip_over_generated_coefficients(seed, depth, extra, scale):
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-scale, scale, size=2**m) for m in range(depth)]
    anchor, slope = rng.uniform(-1, 1, size=2)
    back = analyze(synthesize(FSCoefficients(anchor, slope, rows), max(depth + extra, 1)))
    assert abs(back.anchor - anchor) <= 1e-12 and abs(back.slope - slope) <= 1e-12
    for m, row in enumerate(back.theta):
        assert np.max(np.abs(row - (rows[m] if m < depth else 0.0))) <= 1e-12


def test_partial_sums_interpolate():
    # depth-M synthesis agrees with any deeper synthesis at level-M points
    rng = np.random.default_rng(7)
    rows = [rng.uniform(-1.0, 1.0, size=2**m) for m in range(5)]
    c = FSCoefficients(0.3, -0.2, rows)
    shallow = synthesize(c, 5)
    deep = synthesize(c, 9)
    assert np.array_equal(shallow.values, deep.values[:: 2**4])


def test_synthesis_matches_direct_series():
    rng = np.random.default_rng(11)
    rows = [rng.uniform(-1.5, 1.5, size=2**m) for m in range(4)]
    c = FSCoefficients(0.1, 0.4, rows)
    p = synthesize(c, 7)
    t = p.times()
    direct = c.anchor + c.slope * t
    for m in range(4):
        for k in range(2**m):
            direct = direct + rows[m][k] * basis_eval(m, k, t)
    assert np.allclose(p.values, direct, atol=1e-13)


def test_analysis_depth_capped_by_level():
    p = SampledPath.from_function(lambda t: t * t, 4)
    assert analyze(p).depth == 4
    with pytest.raises(DomainError):
        analyze(SampledPath.from_function(lambda t: t, 0))


@pytest.mark.parametrize("call, what", [
    (lambda: analyze(SampledPath(3, np.arange(9.0))).row(2.0), "row index"),
    (lambda: basis_eval(2, 0.5, 0.3), "wedge index k"),
    (lambda: analyze(SampledPath(3, np.arange(9.0))).row(False), "row index"),
    (lambda: basis_eval(2, True, 0.3), "wedge index k"),
], ids=["row", "basis-eval-k", "row-bool", "basis-eval-k-bool"])
def test_indices_must_be_integers(call, what):
    with pytest.raises(DomainError, match=f"{what} must be an integer"):
        call()


def test_indices_of_any_integer_type():
    coeffs = analyze(SampledPath(3, np.arange(9.0) ** 2))
    assert coeffs.row(np.int32(1)) is coeffs.theta[1]
    assert basis_eval(2, np.int64(1), 0.375) == basis_eval(2, 1, 0.375)
