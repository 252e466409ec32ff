import numpy as np
import pytest
from scipy.integrate import quad

from pathqv import (
    DomainError,
    FSCoefficients,
    IrrationalShift,
    build_x,
    build_y,
    coefficients_x,
    coincidence_frequency,
    cov_curve,
    cov_level,
    ell1,
    ell2,
    preset,
    qv_curve,
    qv_level,
    synthesize,
)


def random_coeffs(rng, depth, scale=2.0):
    rows = [rng.uniform(-scale, scale, size=2**m) for m in range(depth)]
    return FSCoefficients(0.0, 0.0, rows)


def test_qv_of_line():
    from pathqv import SampledPath

    p = SampledPath.from_function(lambda t: t, 10)
    for n in (3, 8, 10):
        assert qv_level(p, n, 1.0) == pytest.approx(2.0**-n, rel=1e-12)


def test_qv_all_ones_exact_value():
    x = build_x(preset("one"), 12)
    for n in (4, 8, 12):
        assert qv_level(x, n, 1.0) == pytest.approx(1.0 - 2.0**-n, abs=1e-12)


def test_qv_random_pm1_coefficients_near_half_at_midpoint():
    # brute-force increment sum agrees with the estimator and sits near
    # t = 1/2; the deviation carries a boundary cross term, a few times
    # 2^-10 rather than one (see ledger).
    rng = np.random.default_rng(42)
    for _ in range(10):
        rows = [rng.choice([-1.0, 1.0], size=2**m) for m in range(10)]
        c = FSCoefficients(0.0, 0.0, rows)
        x = synthesize(c, 10)
        val = qv_level(x, 10, 0.5)
        j = 2**10 // 2
        brute = sum((x.values[k + 1] - x.values[k]) ** 2 for k in range(j + 1))
        assert val == pytest.approx(brute, rel=1e-12)
        assert abs(val - 0.5) <= 4.0 * 2.0**-10


def test_qv_brute_force_oracle():
    rng = np.random.default_rng(9)
    c = random_coeffs(rng, 8)
    x = synthesize(c, 10)
    n, t = 7, 0.625
    coarse = x.values[:: 2 ** (10 - 7)]
    j = int(t * 2**7)
    brute = sum((coarse[k + 1] - coarse[k]) ** 2 for k in range(j + 1))
    assert qv_level(x, n, t) == pytest.approx(brute, rel=1e-12)


def test_qv_requires_grid_point_and_level():
    x = build_x(preset("one"), 6)
    with pytest.raises(DomainError):
        qv_level(x, 8, 1.0)
    with pytest.raises(DomainError):
        qv_level(x, 4, 0.3)


def test_cov_of_path_with_itself_is_qv():
    x = build_x(preset("fig1-right"), 10)
    for n, t in ((6, 0.5), (10, 1.0)):
        assert cov_level(x, x, n, t) == qv_level(x, n, t)


def test_qv_curve_is_the_covariation_curve_of_the_path_with_itself():
    x = build_x(preset("fig1-right"), 10)
    y = build_y(preset("fig2-right"), IrrationalShift(10 * np.e), 10)
    for n in (0, 1, 6, 10):
        assert np.array_equal(qv_curve(x, n).values, cov_curve(x, x, n).values)
    with pytest.raises(DomainError, match="exceeds path level 8"):
        cov_curve(x, y.restrict(8), 9)


def test_cov_orthogonal_presets():
    x = build_x(preset("fig1-left"), 14)
    y = build_x(preset("fig2-left"), 14)
    oracle, _ = quad(lambda s: np.cos(2 * np.pi * s) * np.sin(2 * np.pi * s), 0, 1)
    assert abs(cov_level(x, y, 14, 1.0) - oracle) <= 0.05


def test_polarization_identity_everywhere():
    from pathqv import SampledPath

    rng = np.random.default_rng(17)
    names = sorted(("one", "fig1-left", "fig1-right", "fig2-left", "fig2-right"))
    for _ in range(5):
        a, b = rng.choice(names, size=2)
        x = build_x(preset(str(a)), 10)
        y = build_x(preset(str(b)), 10)
        n = 9
        direct = cov_curve(x, y, n).values
        xy = SampledPath(10, x.values + y.values)
        polar = 0.5 * (
            qv_curve(xy, n).values - qv_curve(x, n).values - qv_curve(y, n).values
        )
        assert np.max(np.abs(direct - polar)) <= 1e-12


def test_ell2_counting():
    c = FSCoefficients(0.0, 0.0, [np.ones(2**m) for m in range(6)])
    assert ell2(c, 5, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert ell2(c, 4, 0.5) == pytest.approx(0.5, rel=1e-15)  # (floor(7.5)+1)/16


def test_ell1_geometric_sum():
    c = FSCoefficients(0.0, 0.0, [np.ones(2**m) for m in range(6)])
    assert ell1(c, 6, 1.0) == pytest.approx(63.0 / 64.0, rel=1e-15)
    z = FSCoefficients(0.0, 0.0, [np.zeros(2**m) for m in range(4)])
    assert ell1(z, 4, 1.0) == 0.0


def test_exact_identity_qv_equals_ell1_at_one():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        c = random_coeffs(rng, 12)
        x = synthesize(c, 12)
        for n in (4, 8, 12):
            assert abs(qv_level(x, n, 1.0) - ell1(c, n, 1.0)) <= 1e-10


def test_truncated_coefficient_identity_interior_t():
    # qv at t=1 of the path with rows cut at floor((2^m - 1) t) equals the
    # accumulated partial sum at t
    rng = np.random.default_rng(31)
    c = random_coeffs(rng, 10)
    t = 0.375
    cut_rows = []
    for m, row in enumerate(c.theta):
        keep = int(np.floor((2**m - 1) * t)) + 1
        trimmed = np.zeros_like(row)
        trimmed[:keep] = row[:keep]
        cut_rows.append(trimmed)
    c_cut = FSCoefficients(0.0, 0.0, cut_rows)
    x_cut = synthesize(c_cut, 10)
    for n in (5, 8, 10):
        assert qv_level(x_cut, n, 1.0) == pytest.approx(ell1(c, n, t), abs=1e-10)


def test_ell_row_bounds():
    c = random_coeffs(np.random.default_rng(0), 4)
    with pytest.raises(DomainError):
        ell2(c, 4, 0.5)
    with pytest.raises(DomainError):
        ell1(c, 7, 0.5)


def test_stolz_cesaro_gap_shrinks():
    for name in ("one", "fig1-left", "fig1-right", "fig2-left"):
        c = coefficients_x(preset(name), 14)
        gaps = [abs(ell1(c, n, 1.0) - ell2(c, n, 1.0)) for n in (6, 8, 10, 12)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a


def test_affine_immunity():
    from pathqv import SampledPath

    x = build_x(preset("fig1-left"), 14)
    t = x.times()
    for n in (8, 10, 12, 14):
        shifted = SampledPath(14, x.values + 0.7 - 1.3 * t)
        diff = abs(qv_level(shifted, n, 1.0) - qv_level(x, n, 1.0))
        assert diff <= 5.0 * 2.0 ** (-n / 2)


def test_coincidence_frequency_edges():
    n = 6
    row = np.ones(2**n)
    assert coincidence_frequency(row, row, n, 1.0) == 0.0
    assert coincidence_frequency(row, -row, n, 1.0) == 1.0


def test_coincidence_identity_exact():
    rng = np.random.default_rng(55)
    n = 12
    a = rng.choice([-1.0, 1.0], size=2**n)
    b = rng.choice([-1.0, 1.0], size=2**n)
    for t in (0.25, 0.7, 1.0):
        cut = int(np.floor((2**n - 1) * t))
        nu = coincidence_frequency(a, b, n, t)
        lhs = float(np.sum(a[: cut + 1] * b[: cut + 1])) / 2**n
        rhs = (cut + 1) / 2**n - 2.0 * nu
        assert lhs == pytest.approx(rhs, abs=1e-15)
        brute = sum(1 for k in range(cut + 1) if a[k] != b[k]) / 2**n
        assert nu == brute


def test_coincidence_rejects_non_pm1():
    n = 3
    row = np.ones(2**n)
    bad = row.copy()
    bad[2] = 0.5
    with pytest.raises(DomainError):
        coincidence_frequency(row, bad, n, 1.0)


def test_linear_qv_for_rotation_path():
    y = build_y(preset("fig2-left"), IrrationalShift(float(np.e)), 12)
    pred_half = 0.5 * 0.5  # t * integral of sin^2
    assert abs(qv_level(y, 12, 0.5) - pred_half) <= 0.05
