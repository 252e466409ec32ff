"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from pathqv import (
    BVDriver,
    FSCoefficients,
    IDEProblem,
    IrrationalShift,
    QVCurve,
    SampledPath,
    build_x,
    build_y,
    coefficients_x,
    constant_field,
    cov_curve,
    ell1,
    flow,
    flow_with_derivatives,
    ito_residual,
    langevin_closed_form,
    linear_closed_form,
    nondiff_quotients,
    preset,
    qv_curve,
    qv_level,
    scalar_linear_field,
    shoot_constant_b,
    solve_ide,
    sqrt1p_closed_form,
    sqrt1p_field,
    synthesize,
    verify_local_qv,
)
from pathqv.cli import main as cli_main


def _criterion(num, desc, fn, limit=None):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} took {dt:.1f}s (limit {limit}s)"
    print(f"PASS criterion {num}: {desc} ({dt:.1f}s)")


def _bs_field():
    return scalar_linear_field(
        lambda t: 0.2 + 0.1 * np.asarray(t, dtype=np.float64),
        lambda t: 0.1 + 0.0 * np.asarray(t, dtype=np.float64),
        name="bs",
    )


def _linear_qv_problem(field, drift, x, z0, level):
    return IDEProblem(
        field=field, drift=drift, driver_A=BVDriver.identity(level), x=x,
        qv_x=QVCurve.from_function(lambda t: t, level), z0=z0,
    )


def test_criterion_1_exact_coefficient_identity():
    def body():
        rng = np.random.default_rng(20260809)
        for _ in range(20):
            rows = [rng.uniform(-2.0, 2.0, size=2**m) for m in range(12)]
            c = FSCoefficients(0.0, 0.0, rows)
            x = synthesize(c, 12)
            for n in range(4, 13):
                assert abs(qv_level(x, n, 1.0) - ell1(c, n, 1.0)) <= 1e-10

    _criterion(1, "exact level-n identity between increment sums and "
                  "coefficient partial sums", body, limit=5.0)


def test_criterion_2_curved_qv():
    def body():
        fseq = preset("fig1-left")
        x = build_x(fseq, 14)
        t7 = np.arange(2**7 + 1) * 2.0**-7
        oracle = {t: quad(lambda s: np.cos(2 * np.pi * s) ** 2, 0.0, t)[0] for t in t7}
        sups = []
        for n in (8, 10, 12, 14):
            curve = qv_curve(x, n)
            sups.append(max(abs(curve.value_at(t) - oracle[t]) for t in t7))
        assert sups[-1] <= 0.05
        for a, b in zip(sups, sups[1:]):
            assert b <= 2.0 * a

    _criterion(2, "curved quadratic variation tracks the integral of cos^2",
               body, limit=10.0)


def test_criterion_3_linear_qv():
    def body():
        fseq = preset("fig2-left")
        y = build_y(fseq, IrrationalShift(float(np.e)), 14)
        errs = [abs(qv_level(y, n, 1.0) - 0.5) for n in (8, 10, 12, 14)]
        assert errs[-1] <= 0.05
        for a, b in zip(errs, errs[1:]):
            assert b <= 2.0 * a

    _criterion(3, "rotation-sampled path has linear quadratic variation t/2", body)


def test_criterion_4_polarization_and_covariation():
    def body():
        names = sorted(("one", "fig1-left", "fig1-right", "fig2-left", "fig2-right"))
        rng = np.random.default_rng(4)
        paths = {name: build_x(preset(name), 12) for name in names}
        for _ in range(10):
            a, b = (str(s) for s in rng.choice(names, size=2))
            x, y = paths[a], paths[b]
            n = 11
            direct = cov_curve(x, y, n).values
            xy = SampledPath(12, x.values + y.values)
            polar = 0.5 * (
                qv_curve(xy, n).values - qv_curve(x, n).values - qv_curve(y, n).values
            )
            assert np.max(np.abs(direct - polar)) <= 1e-12
        x = build_x(preset("fig1-left"), 14)
        y = build_x(preset("fig2-left"), 14)
        from pathqv import cov_level

        assert abs(cov_level(x, y, 14, 1.0)) <= 0.05

    _criterion(4, "covariation equals the polarization combination; "
                  "cos/sin paths decorrelate", body)


def test_criterion_5_ito_residuals():
    def body():
        for name in ("one", "fig1-left", "fig1-right"):
            x = build_x(preset(name), 14)
            for n in range(4, 15):
                r = ito_residual(lambda v: v**2, lambda v: 2.0 * v,
                                 lambda v: 2.0 + 0.0 * v, x, n, 1.0)
                assert abs(r) <= 1e-12
            r3 = ito_residual(lambda v: v**3, lambda v: 3.0 * v**2,
                              lambda v: 6.0 * v, x, 14, 1.0)
            assert abs(r3) <= 0.02

    _criterion(5, "pathwise Ito formula: quadratic maps are exact, cubic "
                  "residual small at level 14", body)


def test_criterion_6_flow_identity_suite():
    def body():
        fields = (constant_field(0.7), _bs_field(), sqrt1p_field())
        rng = np.random.default_rng(6)
        for field in fields:
            for _ in range(6):
                tau = float(rng.uniform(0, 1))
                xi = float(rng.uniform(-2, 2))
                s = float(rng.uniform(-1, 1))
                t = float(rng.uniform(-1, 1))
                mid = flow(field, tau, xi, s)
                assert abs(flow(field, tau, mid, t) - flow(field, tau, xi, s + t)) <= 1e-8

            for _ in range(4):
                tau = float(rng.uniform(0, 1))
                xi = float(rng.uniform(-1.5, 1.5))
                t = float(rng.uniform(-0.9, 0.9))
                phi, d_xi, _, d_tt = flow_with_derivatives(field, tau, xi, -t)
                sig = float(np.asarray(field.sigma(tau, xi)))
                lhs8 = float(np.asarray(field.sigma(tau, phi)))
                assert abs(lhs8 - d_xi * sig) <= 1e-7

                h = 1e-4
                up, d_xi_up, _, _ = flow_with_derivatives(field, tau, xi + h, -t)
                dn, d_xi_dn, _, _ = flow_with_derivatives(field, tau, xi - h, -t)
                phi_xixi = (d_xi_up - d_xi_dn) / (2 * h)
                phi_xit = (float(np.asarray(field.sigma(tau, up)))
                           - float(np.asarray(field.sigma(tau, dn)))) / (2 * h)
                lhs9 = phi_xixi * sig**2 - 2 * phi_xit * sig + d_tt
                _, _, _, d_tt_fwd = flow_with_derivatives(field, tau, phi, t)
                assert abs(lhs9 - (-d_xi * d_tt_fwd)) <= 1e-5

                fd = (up - dn) / (2 * h)
                assert abs(fd - d_xi) <= 1e-5

        # closed forms for the three example fields
        for xi in (-1.2, 0.4):
            for t in (-0.8, 0.6, 1.0):
                assert abs(flow(constant_field(0.7), 0.3, xi, t) - (xi + 0.7 * t)) <= 1e-9
                s = 0.2 + 0.1 * 0.3
                assert abs(flow(_bs_field(), 0.3, xi, t) - xi * np.exp(s * t)) <= 1e-9
                want = np.sinh(t + np.arcsinh(xi))
                assert abs(flow(sqrt1p_field(), 0.3, xi, t) - want) <= 1e-9

    _criterion(6, "flow identity suite (semigroup, reverse-time, second-order, "
                  "sensitivity, closed forms)", body, limit=30.0)


def test_criterion_7_closed_form_ide_oracles():
    def body():
        x12 = build_x(preset("one"), 12)

        # mean-reverting Langevin equation
        prob = _linear_qv_problem(constant_field(1.0), lambda t, xi: -0.5 * xi,
                                  x12, 1.0, 12)
        sol = solve_ide(prob, 12)
        oracle = langevin_closed_form(x12, 1.0, -0.5, 1.0)
        assert np.max(np.abs(sol.z.values - oracle.values)) <= 1e-4

        # time-inhomogeneous geometric dynamics
        sig = lambda t: 0.2 + 0.1 * np.asarray(t, dtype=np.float64)
        dsig = lambda t: 0.1 + 0.0 * np.asarray(t, dtype=np.float64)
        prob = _linear_qv_problem(_bs_field(), lambda t, xi: 0.05 * xi, x12, 1.0, 12)
        sol = solve_ide(prob, 12)
        oracle = linear_closed_form(x12, sig, dsig,
                                    lambda t: 0.05 + 0.0 * np.asarray(t), 1.0)
        assert np.max(np.abs(sol.z.values - oracle.values)) <= 1e-4

        # square-root equation: constant B, only flow error enters
        prob = _linear_qv_problem(sqrt1p_field(), lambda t, xi: 0.5 * xi, x12, 0.4, 12)
        sol = solve_ide(prob, 12)
        oracle = sqrt1p_closed_form(x12, 0.4)
        assert np.max(np.abs(sol.z.values - oracle.values)) <= 1e-6

        # the two schemes land on the same discrete solution
        x10 = x12.restrict(10)
        cases = (
            _linear_qv_problem(constant_field(1.0), lambda t, xi: -0.5 * xi, x10, 1.0, 10),
            _linear_qv_problem(_bs_field(), lambda t, xi: 0.05 * xi, x10, 1.0, 10),
            _linear_qv_problem(sqrt1p_field(), lambda t, xi: 0.5 * xi, x10, 0.4, 10),
        )
        for p in cases:
            picard = solve_ide(p, 10).B
            tonelli = solve_ide(p, 10, scheme="tonelli", tonelli_n=2**10).B
            assert np.max(np.abs(picard.values - tonelli.values)) <= 1e-6

    _criterion(7, "closed-form solutions (Langevin, geometric, square-root) "
                  "and Picard/Tonelli agreement", body)


def test_criterion_8_local_quadratic_variation():
    def body():
        x14 = build_x(preset("one"), 14)
        prob = _linear_qv_problem(sqrt1p_field(), lambda t, xi: 0.5 * xi, x14, 0.2, 14)
        sol = solve_ide(prob, 14)
        defects = [verify_local_qv(sol.z, prob.field, prob.qv_x, n)
                   for n in (10, 12, 14)]
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] <= 0.05

    _criterion(8, "solution quadratic variation tracks the state-dependent "
                  "integral (defects decrease, final <= 0.05)", body)


def test_criterion_9_shooting():
    def body():
        x12 = build_x(preset("one"), 12)

        # unit sigma: closed-form drift recovered to 1e-9
        f1 = constant_field(1.0)
        for z0, z1, t0 in ((0.0, 2.0, 1.0), (0.3, -1.0, 0.5)):
            b = shoot_constant_b(f1, x12, z0, z1, t0, 10)
            want = (z1 - z0 - float(x12.value_at(t0))) / t0
            assert abs(b - want) <= 1e-9

        # square-root field to (0, 2, 1)
        field = sqrt1p_field()
        trace = []
        shoot_constant_b(field, x12, 0.0, 2.0, 1.0, 12, trace=trace)
        assert abs(trace[-1][1] - 2.0) <= 1e-6

        # ten random targets
        rng = np.random.default_rng(9)
        for _ in range(10):
            z1 = float(rng.uniform(-3.0, 3.0))
            t0 = float(rng.choice([0.25, 0.5, 1.0]))
            tr = []
            shoot_constant_b(field, x12, 0.0, z1, t0, 8, trace=tr)
            assert abs(tr[-1][1] - z1) <= 1e-6

    _criterion(9, "constant-drift shooting connects prescribed points", body)


_WITNESS_POINTS = {
    "one": (0.0, 0.0625, 0.125, 0.1875, 0.25),
    "fig1-left": (0.0, 0.0625, 0.125, 0.4375, 0.5),
}


def test_criterion_10_nondifferentiability_recursion():
    def body():
        for name, points in _WITNESS_POINTS.items():
            fseq = preset(name)
            coeffs = coefficients_x(fseq, 14)
            for t in points:
                lim = abs(float(np.asarray(fseq.limit(np.asarray(t)))))
                assert lim > 0.0  # continuity points with nonzero limit
                rep = nondiff_quotients(coeffs, fseq, t, 14)
                # orientation-signed recursion, exact to 1e-10 (the unsigned
                # display, checked below at t = 0, flips sign on right halves)
                assert rep.recursion_defect <= 1e-10
                if t == 0.0:
                    assert np.max(np.abs(rep.increment - rep.unoriented_increment)) <= 1e-10
                if lim >= 0.5:
                    assert rep.max_abs_d > 100.0

    _criterion(10, "difference-quotient recursion exact; quotients blow up "
                   "past 100 by level 14", body)


def test_criterion_11_cli_determinism(tmp_path):
    def body():
        outs = []
        for tag in ("a", "b"):
            y = tmp_path / f"y_{tag}.csv"
            table = tmp_path / f"qv_{tag}.csv"
            assert cli_main(["synth-y", "--preset", "fig2-right", "--alpha", "10*e",
                             "--level", "12", "--out", str(y)]) == 0
            assert cli_main(["qv", "--in", str(y), "--levels", "8,10,12",
                             "--predicted", "fig2-right:linear",
                             "--out", str(table)]) == 0
            outs.append((y.read_bytes(), table.read_bytes()))
        assert outs[0] == outs[1]

    _criterion(11, "repeated CLI invocations produce bit-identical files", body)
