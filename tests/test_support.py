import sys

import numpy as np
import pytest

import pathqv.ide as ide
import pathqv.support as support
from pathqv import (
    BVDriver,
    DomainError,
    IDEProblem,
    NumericalError,
    QVCurve,
    SampledPath,
    build_x,
    coefficients_x,
    constant_field,
    drift_from_path,
    field_from_expression,
    flow,
    flow_with_derivatives,
    grid_points,
    match_path,
    nondiff_quotients,
    preset,
    scalar_linear_field,
    shoot_constant_b,
    solve_ide,
    sqrt1p_field,
)
from pathqv.support import SHOOT_TOL, _derivative_on_grid


@pytest.fixture(scope="module")
def x10():
    return build_x(preset("one"), 10)


def resolve_with_b(field, x, z0, b, level):
    problem = IDEProblem(
        field=field, drift=lambda t, xi: np.full(np.shape(t), b),
        driver_A=BVDriver.identity(level), x=x.restrict(level),
        qv_x=QVCurve.from_function(lambda t: t, level), z0=z0,
    )
    return solve_ide(problem, level)


# -- shooting ----------------------------------------------------------------

def test_shoot_unit_sigma_closed_form(x10):
    # z(t) = z0 + x(t) + b t, so b = (z1 - z0 - x(t0)) / t0 exactly
    f = constant_field(1.0)
    for z0, z1, t0 in ((0.2, 1.5, 0.5), (-1.0, 0.7, 0.25), (0.0, -2.0, 1.0)):
        b = shoot_constant_b(f, x10, z0, z1, t0, 10)
        want = (z1 - z0 - x10.value_at(t0)) / t0
        assert abs(b - want) <= 1e-9


def test_shoot_zero_drift_when_target_on_path(x10):
    f = constant_field(1.0)
    z0 = 0.2
    z1 = z0 + x10.value_at(0.5)
    assert abs(shoot_constant_b(f, x10, z0, z1, 0.5, 10)) <= 1e-9


def test_shoot_sqrt_field_and_resolve(x10):
    field = sqrt1p_field()
    trace = []
    b = shoot_constant_b(field, x10, 0.0, 2.0, 1.0, 10, trace=trace)
    assert abs(trace[-1][1] - 2.0) <= 1e-6
    sol = resolve_with_b(field, x10, 0.0, b, 10)
    assert abs(sol.z.values[-1] - 2.0) <= 2e-6  # within 2x the shooting tolerance
    assert len(trace) >= 3


def test_shoot_monotone_in_b(x10):
    field = sqrt1p_field()
    hits = []
    for b in (-2.0, 0.0, 2.0):
        sol = resolve_with_b(field, x10, 0.0, b, 9)
        hits.append(sol.z.values[-1])
    assert hits[0] < hits[1] < hits[2]


def test_shoot_envelope_bounds(x10):
    # comparison envelopes for the sqrt field: B' = b / phi_xi - phi_tt /
    # (2 phi_xi) sits between b c_g^- + m_lo and b c_g^+ + m_hi with
    # c_g^+- the two-sided exponential bounds on 1 / phi_xi and m the
    # drift-free term's extremes, so B(t0) lies between the corresponding
    # (constant-slope) comparison solutions
    field = sqrt1p_field()
    level, b, z0, t0 = 9, 1.5, 0.0, 1.0
    sol = resolve_with_b(field, x10, z0, b, level)
    tgrid = grid_points(level)
    xv = x10.restrict(level).values
    _, dxi, dtau, dtt = flow_with_derivatives(field, tgrid, sol.B.values, xv)
    X = float(np.max(np.abs(xv)))  # sup|sigma_xi| = 1 for this field
    c_g_lo, c_g_hi = np.exp(-X), np.exp(X)
    assert np.all(1.0 / dxi >= c_g_lo - 1e-9) and np.all(1.0 / dxi <= c_g_hi + 1e-9)
    f_term = (-dtau - 0.5 * dtt) / dxi
    m_lo, m_hi = float(np.min(f_term)), float(np.max(f_term))
    B_end = sol.B.values[-1]
    assert z0 + (b * c_g_lo + m_lo) * t0 - 1e-6 <= B_end
    assert B_end <= z0 + (b * c_g_hi + m_hi) * t0 + 1e-6


def test_shoot_bracket_failure(x10, monkeypatch):
    field = constant_field(1.0)
    monkeypatch.setattr(support, "MAX_B", 4.0)
    with pytest.raises(NumericalError):
        shoot_constant_b(field, x10, 0.0, 50.0, 1.0, 8)


def test_shoot_trace_has_no_repeats_and_ends_at_b(x10):
    field = sqrt1p_field()
    for z1, t0 in ((2.0, 1.0), (-1.3, 0.5), (0.1, 0.25)):
        trace = []
        b = shoot_constant_b(field, x10, 0.0, z1, t0, 8, trace=trace)
        bs = [b_ for b_, _ in trace]
        assert len(set(bs)) == len(bs)
        assert trace[-1][0] == b
        assert abs(trace[-1][1] - z1) <= SHOOT_TOL


def test_shoot_cli_pattern_hit_budget():
    # the pattern of the benchmark's shoot command
    field = field_from_expression("1+0.3*sin(xi)")
    x9 = build_x(preset("one"), 9)
    traces = []
    for _ in range(2):
        trace = []
        b = shoot_constant_b(field, x9, 0.0, 0.4, 0.5, 9, trace=trace)
        traces.append((b, trace))
    assert len(traces[0][1]) <= 8
    assert abs(traces[0][1][-1][1] - 0.4) <= SHOOT_TOL
    assert traces[0] == traces[1]  # bit-reproducible


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def test_shoot_makes_no_flow_solve_beyond_its_sweeps(x10, monkeypatch):
    # every flow solve of a shoot is a Picard sweep: a hit reads z_b(t0)
    # off the converged sweep instead of solving the flow again
    flow_module = sys.modules["pathqv.flow"]  # the package's `flow` is the function
    solves, sweeps = [], []
    monkeypatch.setattr(flow_module, "_integrate", counting(solves, flow_module._integrate))
    monkeypatch.setattr(ide, "flow_derivatives", counting(sweeps, ide.flow_derivatives))
    for field in (field_from_expression("1+0.3*sin(xi)"), sqrt1p_field()):
        solves.clear()
        sweeps.clear()
        trace = []
        shoot_constant_b(field, x10, 0.0, 0.4, 0.5, 8, trace=trace)
        assert len(sweeps) > len(trace) > 1
        assert len(solves) == len(sweeps)


def test_shoot_trace_is_the_flow_at_each_probe(x10, monkeypatch):
    solved = []
    solve = support.solve_ide

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solved.append(sol.B.values)
        return sol

    monkeypatch.setattr(support, "solve_ide", recording)
    level, t0 = 8, 0.5
    j = int(t0 * 2**level)
    xval = x10.restrict(level).values[j]
    for field in (field_from_expression("1+0.3*sin(xi)"), sqrt1p_field()):
        solved.clear()
        trace = []
        shoot_constant_b(field, x10, 0.0, 0.4, t0, level, trace=trace)
        assert len(solved) == len(trace)
        for (_, z), B in zip(trace, solved):
            assert abs(z - flow(field, t0, B[j], xval)) <= 1e-11


def test_shoot_refiner_cap_raises(x10, monkeypatch):
    monkeypatch.setattr(support, "MAX_REFINE", 2)
    monkeypatch.setattr(support, "SHOOT_TOL", 1e-14)
    trace = []
    with pytest.raises(NumericalError, match="after 2 refinement steps"):
        shoot_constant_b(sqrt1p_field(), x10, 0.0, 2.0, 1.0, 8, trace=trace)
    assert len(trace) == 5 + 2  # b = -1, 1, 2, 4, 8 bracket the target, then the cap


def test_shoot_t0_validation(x10):
    with pytest.raises(DomainError):
        shoot_constant_b(constant_field(1.0), x10, 0.0, 1.0, 0.0, 8)
    with pytest.raises(DomainError):
        shoot_constant_b(constant_field(1.0), x10, 0.0, 1.0, 0.3, 8)


# -- drift matching ----------------------------------------------------------

def test_match_unit_sigma_linear_target(x10):
    # sigma = 1: phi_xi = 1, phi_tau = phi_tt = 0, so b(t) = B'(t) = 1
    level = 8
    tgrid = grid_points(level)
    target = SampledPath(level, 0.2 + tgrid)
    b = match_path(target, constant_field(1.0), x10, level)
    assert np.max(np.abs(b.values - 1.0)) <= 1e-9


def test_match_constant_target_recovers_sqrt_drift(x10):
    # B = z0 and sigma = sqrt(1 + xi^2) recover b(t) = z(t) / 2
    level = 9
    z0 = 0.4
    target = SampledPath(level, np.full(2**level + 1, z0))
    field = sqrt1p_field()
    b = match_path(target, field, x10, level)
    z = np.sinh(x10.restrict(level).values + np.arcsinh(z0))
    assert np.max(np.abs(b.values - 0.5 * z)) <= 1e-8


def test_match_round_trip_reproduces_solution(x10):
    # B = sin t under the linear field; re-solving with the recovered
    # drift must land on phi(t, B, x).  First-order scheme: the 1e-5
    # contract needs level 16 (see ledger); check the trend here.
    sig = lambda t: 0.2 + 0.1 * np.asarray(t, dtype=np.float64)
    dsig = lambda t: 0.1 + 0.0 * np.asarray(t, dtype=np.float64)
    field = scalar_linear_field(sig, dsig)
    errs = []
    for level in (12, 14):
        x = build_x(preset("one"), level)
        tg = grid_points(level)
        target = SampledPath(level, np.sin(tg))
        bpath = match_path(target, field, x, level)
        problem = IDEProblem(
            field=field, drift=drift_from_path(bpath),
            driver_A=BVDriver.identity(level), x=x,
            qv_x=QVCurve.from_function(lambda t: t, level), z0=0.0,
        )
        sol = solve_ide(problem, level)
        phi, _, _, _ = flow_with_derivatives(field, tg, target.values, x.values)
        errs.append(float(np.max(np.abs(sol.z.values - phi))))
    assert errs[1] <= 1e-4
    assert errs[1] <= 0.35 * errs[0]


@pytest.mark.slow
def test_match_round_trip_meets_contract_at_level_16():
    sig = lambda t: 0.2 + 0.1 * np.asarray(t, dtype=np.float64)
    dsig = lambda t: 0.1 + 0.0 * np.asarray(t, dtype=np.float64)
    field = scalar_linear_field(sig, dsig)
    level = 16
    x = build_x(preset("one"), level)
    tg = grid_points(level)
    target = SampledPath(level, np.sin(tg))
    bpath = match_path(target, field, x, level)
    problem = IDEProblem(
        field=field, drift=drift_from_path(bpath),
        driver_A=BVDriver.identity(level), x=x,
        qv_x=QVCurve.from_function(lambda t: t, level), z0=0.0,
    )
    sol = solve_ide(problem, level)
    phi, _, _, _ = flow_with_derivatives(field, tg, target.values, x.values)
    assert float(np.max(np.abs(sol.z.values - phi))) <= 1e-5


def test_match_finite_difference_derivative_close_to_exact():
    level = 9
    tg = grid_points(level)
    assert np.max(np.abs(_derivative_on_grid(np.sin(tg), 2.0**-level) - np.cos(tg))) <= 1e-9


# -- difference quotients ------------------------------------------------------

def test_quotients_zero_sequence():
    zero = preset("one")
    from pathqv import FunctionSequence

    fz = FunctionSequence.constant_in_n(lambda t: 0.0 * np.asarray(t), 0.0)
    c = coefficients_x(fz, 10)
    rep = nondiff_quotients(c, fz, 0.3, 10)
    assert np.all(rep.d == 0.0)
    assert rep.recursion_defect <= 1e-14


def test_quotients_all_ones_at_origin():
    f = preset("one")
    c = coefficients_x(f, 14)
    rep = nondiff_quotients(c, f, 0.0, 14)
    ns = np.arange(1, 15)
    assert np.max(np.abs(rep.increment - 2.0 ** ((ns - 1) / 2.0))) <= 1e-10
    # at t = 0 every level keeps the left half, so the unsigned form holds too
    assert np.max(np.abs(rep.increment - rep.unoriented_increment)) <= 1e-10
    assert rep.max_abs_d > 100.0
    assert np.all(rep.diverging)


def test_quotients_exact_recursion_generic_points():
    for name, t in (("one", 0.3), ("fig1-left", 0.1), ("fig1-right", 0.77)):
        f = preset(name)
        c = coefficients_x(f, 14)
        rep = nondiff_quotients(c, f, t, 14)
        assert rep.recursion_defect <= 1e-10
        assert np.max(np.abs(rep.increment - rep.predicted_increment)) <= 1e-10


def test_quotients_at_limit_zero_reported_not_asserted():
    # t = 1/4 is a zero of cos(2 pi t): outside the hypothesis, increments
    # may stay small; the report must say so rather than flag divergence
    f = preset("fig1-left")
    c = coefficients_x(f, 12)
    rep = nondiff_quotients(c, f, 0.25, 12)
    assert rep.recursion_defect <= 1e-10
    assert not np.all(rep.hypothesis_met)
    assert rep.eps <= 1e-10  # f_inf(1/4) = 0 shrinks the default threshold


def test_quotients_domain_errors():
    f = preset("one")
    c = coefficients_x(f, 6)
    with pytest.raises(DomainError):
        nondiff_quotients(c, f, 1.0, 6)
    with pytest.raises(DomainError):
        nondiff_quotients(c, f, 0.5, 7)


def test_quotients_affine_part_cancels():
    # anchor and slope shift every d_n by the same amount: recursion unchanged
    from pathqv import FSCoefficients

    f = preset("one")
    c = coefficients_x(f, 8)
    shifted = FSCoefficients(1.0, -2.0, [row.copy() for row in c.theta])
    rep = nondiff_quotients(shifted, f, 0.3, 8)
    assert rep.recursion_defect <= 1e-10
    assert rep.d[0] == -2.0  # d_0 = x(1) - x(0) = slope


@pytest.mark.parametrize("level", [8.7, "8", None])
def test_shoot_rejects_a_level_that_is_not_an_integer(x10, level):
    with pytest.raises(DomainError, match="level must be an integer"):
        shoot_constant_b(constant_field(1.0), x10, 0.0, 1.0, 0.5, level)


def test_shoot_takes_a_numpy_integer_level(x10):
    field = constant_field(1.0)
    assert (shoot_constant_b(field, x10, 0.0, 1.0, 0.5, np.int64(6))
            == shoot_constant_b(field, x10, 0.0, 1.0, 0.5, 6))


def test_quotients_check_n_max_is_an_integer():
    f = preset("one")
    c = coefficients_x(f, 8)
    with pytest.raises(DomainError, match="n_max must be an integer"):
        nondiff_quotients(c, f, 0.3, 5.9)
    a, b = nondiff_quotients(c, f, 0.3, np.int64(5)), nondiff_quotients(c, f, 0.3, 5)
    assert a.d.tobytes() == b.d.tobytes()


# 1229/4096: a level-12 point on no coarser grid, so no spot check or row sees it
T_OFF = 1229 / 4096


@pytest.mark.parametrize("what", ["f_inf", "f_12"])
def test_quotients_refuse_f_that_is_not_finite_at_t(what):
    from pathqv import FunctionSequence

    nan_at_t = lambda t: np.where(t == T_OFF, np.nan, 1.0)
    if what == "f_inf":  # every term is NaN at T_OFF, and so is the limit
        f = FunctionSequence.constant_in_n(nan_at_t, 1.0)
    else:  # only the 12th term is; the limit is 1
        f = FunctionSequence(lambda n, t: nan_at_t(t) if n == 12 else np.ones_like(t),
                             np.ones_like, 1.0)
    c = coefficients_x(f, 12)
    with pytest.raises(DomainError, match=rf"^{what}\(0\.300048828125\) is not finite$"):
        nondiff_quotients(c, f, T_OFF, 12)


def test_round_trip_error_is_the_gap_of_a_solve_with_the_matched_drift():
    # the drift is matched at level 10 to a level-12 target, which the
    # round trip reads on the drift's grid
    field = field_from_expression("1+0.3*sin(xi)")
    x = build_x(preset("one"), 12)
    target = SampledPath(12, 0.3 * np.sin(3.0 * grid_points(12)) + 0.1)
    bpath = match_path(target, field, x, 10)
    err = support.round_trip_error(target, bpath, field, x)
    B = target.restrict(10)
    problem = IDEProblem(field=field, drift=drift_from_path(bpath),
                         driver_A=BVDriver.identity(10), x=x.restrict(10),
                         qv_x=QVCurve.from_function(lambda t: t, 10), z0=0.1)
    phi, _, _, _ = flow_with_derivatives(field, grid_points(10), B.values,
                                         x.restrict(10).values)
    assert err == float(np.max(np.abs(solve_ide(problem, 10).z.values - phi)))
    assert 0.0 < err <= 5e-3
