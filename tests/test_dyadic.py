import warnings

import numpy as np
import pytest

from pathqv import (
    BVDriver,
    DomainError,
    QVCurve,
    SampledPath,
    build_x,
    follmer_integral,
    grid_points,
    preset,
    qv_curve,
    successor,
)


def test_grid_points_exact():
    pts = grid_points(3)
    assert pts.shape == (9,)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    # level-n grid is a subset of the level-m grid for m >= n
    fine = grid_points(7)
    assert np.all(np.isin(pts, fine))


def test_successor_examples():
    assert successor(0.5, 2) == 0.75
    assert successor(1.0, 5) == 1.0
    assert successor(0.25, 3) == 0.375


def test_successor_off_grid_rejected():
    with pytest.raises(DomainError):
        successor(0.3, 3)
    with pytest.raises(DomainError):
        successor(1.5, 3)


def test_successor_order_preserving():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        k1, k2 = sorted(rng.integers(0, 2**n, size=2))
        s1, s2 = k1 * 2.0**-n, k2 * 2.0**-n
        if s1 < s2:
            assert successor(s1, n) <= successor(s2, n)
    assert successor(1.0, 4) == successor(successor(1.0, 4), 4)


def test_path_length_validation():
    with pytest.raises(DomainError):
        SampledPath(3, np.zeros(8))
    with pytest.raises(DomainError):
        SampledPath(2, [0.0, 1.0, np.inf, 0.0, 0.0])


def test_restrict_identity_function():
    p = SampledPath.from_function(lambda t: t, 3)
    r = p.restrict(1)
    assert list(r.values) == [0.0, 0.5, 1.0]
    assert p.restrict(3) is p


def test_restrict_matches_direct_read():
    x = build_x(preset("fig1-left"), 12)
    r = x.restrict(8)
    stride = 2 ** (12 - 8)
    assert np.array_equal(r.values, x.values[::stride])


def test_restrict_finer_rejected():
    p = SampledPath.from_function(lambda t: t, 2)
    with pytest.raises(DomainError):
        p.restrict(5)


def test_value_at_interpolates():
    p = SampledPath(1, [0.0, 1.0, 0.0])
    assert p.value_at(0.25) == 0.5
    assert p.value_at(0.5) == 1.0
    with pytest.raises(DomainError):
        p.value_at(1.5)
    with pytest.raises(DomainError):
        p.value_at(float("nan"))


# Left-point Riemann-Stieltjes sums  sum_{s < t} g(s) (A(s') - A(s));
# follmer_integral is the one kernel for them.

def test_stieltjes_constant_integrand_telescopes():
    x = build_x(preset("fig1-left"), 10)
    ones = SampledPath(10, np.ones(2**10 + 1))
    for t in (0.25, 0.5, 1.0):
        want = x.value_at(t) - x.value_at(0.0)
        assert follmer_integral(ones, x, 10, t) == pytest.approx(want, abs=1e-14)


def test_stieltjes_left_sum_value():
    # integral of s ds over [0,1]: left sum = 1/2 - 2^-13, within one mesh of 1/2
    n = 12
    ident = SampledPath.from_function(lambda t: t, n)
    val = follmer_integral(ident, ident, n, 1.0)
    assert abs(val - 0.5) <= 2.0**-n
    assert val == pytest.approx(0.5 - 2.0 ** -(n + 1), abs=1e-15)


def test_stieltjes_bounded_by_variation():
    x = build_x(preset("fig2-left"), 9)
    driver = BVDriver(x.level, x.values)
    c = 3.7
    g = SampledPath(9, np.full(2**9 + 1, c))
    val = follmer_integral(g, x, 9, 1.0)
    assert abs(val) <= abs(c) * driver.total_variation + 1e-12


def test_stieltjes_additive_over_intervals():
    x = build_x(preset("fig1-right"), 12)
    g = SampledPath.from_function(lambda t: np.cos(3 * t), 12)
    a = follmer_integral(g, x, 12, 0.375)
    b = follmer_integral(g, x, 12, 1.0)
    # sum over [0, t) plus [t, u) equals sum over [0, u)
    tail = float(np.sum(g.values[1536:-1] * np.diff(x.values[1536:])))
    assert a + tail == pytest.approx(b, abs=1e-12)


def test_stieltjes_level_mismatch():
    g = SampledPath.from_function(lambda t: t, 3)
    driver = SampledPath.from_function(lambda t: t, 4)
    with pytest.raises(DomainError):
        follmer_integral(g, driver, 4, 0.5)  # g exists at level 3 only
    with pytest.raises(DomainError):
        follmer_integral(g, g, 3, 0.3)  # t off the grid


def test_bv_driver_total_variation():
    p = SampledPath(2, [0.0, 1.0, -1.0, 0.5, 0.5])
    assert BVDriver(p.level, p.values).total_variation == pytest.approx(1 + 2 + 1.5 + 0)
    assert BVDriver.identity(5).total_variation == pytest.approx(1.0)


@pytest.mark.parametrize("cls", [QVCurve, BVDriver, SampledPath])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_functions_refuse_non_finite_values(cls, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(DomainError, match="finite"):
            cls(2, [0.0, 0.25, bad, 0.75, 1.0])


@pytest.mark.parametrize("cls", [QVCurve, BVDriver, SampledPath])
def test_restrict_keeps_the_type(cls):
    p = cls.from_function(lambda t: t * t, 4)
    r = p.restrict(2)
    assert type(r) is cls and r.level == 2
    assert np.array_equal(r.values, p.values[::4])


def test_bv_driver_total_variation_is_the_sum_of_increments():
    x = build_x(preset("fig2-left"), 9)
    driver = BVDriver(x.level, x.values)
    assert driver.total_variation == float(np.sum(np.abs(np.diff(x.values))))
    assert np.array_equal(driver.increments(), np.diff(x.values))


def test_qv_curve_reads_steps_and_a_path_interpolates():
    values = [0.0, 0.25, 1.0]
    assert QVCurve(1, values).value_at(0.75) == 0.25
    assert SampledPath(1, values).value_at(0.75) == 0.625
    assert BVDriver(1, values).value_at(0.75) == 0.625


def test_qv_curve_monotone_and_first_value():
    x = build_x(preset("fig2-left"), 10)
    curve = qv_curve(x, 8)
    assert np.all(np.diff(curve.values) >= 0)
    first_inc = x.restrict(8).values[1] - x.restrict(8).values[0]
    assert curve.values[0] == pytest.approx(first_inc**2, rel=1e-12)
    # masses reproduce the per-cell squared increments (up to cumsum rounding)
    sq = np.diff(x.restrict(8).values) ** 2
    assert np.allclose(curve.masses()[:-1], sq, atol=1e-15)
    assert curve.masses()[-1] == 0.0


def test_qv_curve_value_at_reads_arrays_like_points():
    curve = qv_curve(build_x(preset("fig2-left"), 10), 8)
    t = np.concatenate([grid_points(10), np.random.default_rng(5).uniform(size=199)])
    per_point = [curve.value_at(ti) for ti in t]
    assert all(type(v) is float for v in per_point)
    assert np.array_equal(curve.value_at(t), per_point)
    assert np.array_equal(curve.value_at(t.reshape(2, -1)), np.reshape(per_point, (2, -1)))
    # the largest grid point <= t
    assert np.array_equal(per_point, curve.values[np.floor(t * 2**8).astype(int)])
    for bad in (-1e-300, 1.5, float("nan"), [0.5, float("nan")], [0.0, -0.25]):
        with pytest.raises(DomainError):
            curve.value_at(bad)


def test_qv_curve_rejects_decreasing():
    with pytest.raises(DomainError):
        QVCurve(1, [0.0, 1.0, 0.5])


def test_csv_round_trip_bit_exact(tmp_path):
    x = build_x(preset("fig1-left"), 8)
    f = tmp_path / "x.csv"
    x.to_csv(f)
    back = SampledPath.from_csv(f)
    assert back.level == x.level
    assert np.array_equal(back.values, x.values)
    # serialization itself is deterministic
    g = tmp_path / "again.csv"
    SampledPath(8, x.values).to_csv(g)
    assert f.read_bytes() == g.read_bytes()


def test_json_round_trip(tmp_path):
    x = build_x(preset("fig2-right"), 6)
    f = tmp_path / "x.json"
    x.to_json(f)
    back = SampledPath.from_file(str(f))
    assert back.level == 6
    assert np.array_equal(back.values, x.values)


@pytest.mark.parametrize("name", ["x.csv", "x.json"])
def test_to_file_round_trips_through_from_file(tmp_path, name):
    x = build_x(preset("fig2-left"), 7)
    f = tmp_path / name
    x.to_file(f)
    back = SampledPath.from_file(f)
    assert back.level == 7
    assert np.array_equal(back.values, x.values)
    # the extension chooses the format
    assert f.read_text().startswith("{" if name.endswith(".json") else "t,value\n")


def test_csv_malformed_rejected(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("wrong,header\n0,0\n")
    with pytest.raises(DomainError):
        SampledPath.from_csv(f)
    g = tmp_path / "count.csv"
    g.write_text("t,value\n" + "\n".join(f"{i},{i}" for i in range(4)))
    with pytest.raises(DomainError):
        SampledPath.from_csv(g)


def test_csv_t_column_must_be_the_grid(tmp_path):
    x = build_x(preset("one"), 4)
    good = tmp_path / "x.csv"
    x.to_csv(good)
    assert np.array_equal(SampledPath.from_csv(good).values, x.values)
    header, *rows = good.read_text().splitlines()
    swapped = [rows[1], rows[0]] + rows[2:]
    off_grid = [rows[0], "0.0625000001," + rows[1].split(",")[1]] + rows[2:]
    for i, body in enumerate((swapped, off_grid)):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_text("\n".join([header, *body]) + "\n")
        with pytest.raises(DomainError):
            SampledPath.from_csv(bad)
    level1 = tmp_path / "level1.csv"
    level1.write_text("t,value\n0.5,0\n0.0,1\n9.0,2\n")
    with pytest.raises(DomainError):
        SampledPath.from_csv(level1)
