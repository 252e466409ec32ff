"""Support-theorem constructions: shooting a constant drift and matching a path.

``shoot_constant_b`` finds a constant drift steering the pathwise Ito
equation  dz = sigma(t, z) dx + b dt  (for a driver with linear quadratic
variation) from z0 to a prescribed z1 at time t0: the hit value is
continuous and monotone in b and sweeps all of R, so bracket doubling
followed by Illinois regula falsi always lands.  The refiner reuses the
bracket's hit values and stops at the first b within SHOOT_TOL of the
target, so no Picard solve is repeated, and no flow solve is added to
the sweeps.  ``match_path`` goes the other way: given a smooth
bounded-variation component B it reads off the time-dependent drift

    b(t) = phi_xi B'(t) + phi_tau + phi_tt / 2      (at (t, B(t), x(t)))

whose solution reproduces z(t) = phi(t, B(t), x(t)); ``round_trip_error``
solves with that drift and measures how far z lands from it.
"""

from __future__ import annotations

import numpy as np

from .dyadic import BVDriver, QVCurve, SampledPath, _check_level, grid_index, grid_points
from .errors import DomainError, NumericalError
from .flow import flow_with_derivatives
from .ide import IDEProblem, solve_ide

SHOOT_TOL = 1e-6
MAX_B = 1e6
MAX_REFINE = 60


def _linear_qv_problem(field, x, z0, drift, level):
    return IDEProblem(
        field=field,
        drift=drift,
        driver_A=BVDriver.identity(level),
        x=x.restrict(level),
        qv_x=QVCurve.from_function(lambda t: t, level),
        z0=z0,
    )


def shoot_constant_b(field, x, z0, z1, t0, level, *, trace=None):
    """Constant drift b with |z_b(t0) - z1| <= SHOOT_TOL, for <x>_t = t.

    The map b -> z_b(t0) is increasing and sweeps all of R (comparison
    bounds), so walking out from b = -1 (down by doubling, or up through
    +1 by doubling) brackets the target; the last two probes are the
    bracket.  Illinois regula falsi then refines it, starting from the end
    points' hit values already in hand.  Every probe is one Picard solve
    and the search stops at the first probe within SHOOT_TOL, which is the
    b returned.  ``trace``, if given, collects (b, z_b(t0)) per probe.
    Raises DomainError on a non-finite z1 (the problem and the grid check
    z0 and t0), and NumericalError when no bracket exists within
    |b| <= MAX_B or no probe lands within MAX_REFINE refinement steps.
    """
    if not np.isfinite(z1):
        raise DomainError(f"z1 must be finite, got {z1}")
    level = _check_level(level)
    j = grid_index(t0, level)
    if j == 0:
        raise DomainError("t0 must be positive")
    warm = [None]  # B for the previous b warm-starts the next Picard solve

    def hit(b):
        problem = _linear_qv_problem(field, x, z0, lambda t, xi, b=float(b): b, level)
        sol = solve_ide(problem, level, initial=warm[0])
        warm[0] = sol.B.values
        z = float(sol.z.values[j])  # phi(t0, B(t0), x(t0)) of the converged sweep
        if trace is not None:
            trace.append((float(b), z))
        return z - z1

    # bracket: lo has f < 0, hi has f > 0
    lo = hi = None
    b = -1.0
    while True:
        f = hit(b)
        if abs(f) <= SHOOT_TOL:
            return b
        if f < 0.0:
            lo = (b, f)
        else:
            hi = (b, f)
        if lo is not None and hi is not None:
            break
        b = 2.0 * b if lo is None or b > 0.0 else 1.0
        if abs(b) > MAX_B:
            side, edge = ("below", -MAX_B) if lo is None else ("above", MAX_B)
            raise NumericalError(f"no bracket {side} b = {edge:g}; hypotheses violated?")

    # Illinois regula falsi: halve the stale end's value when the same end
    # moves twice running, so the bracket shrinks from both sides
    (a, fa), (c, fc) = lo, hi
    moved = 0
    for _ in range(MAX_REFINE):
        b = a - fa * (c - a) / (fc - fa)
        f = hit(b)
        if abs(f) <= SHOOT_TOL:
            return b
        if f < 0.0:
            a, fa = b, f
            if moved < 0:
                fc *= 0.5
            moved = -1
        else:
            c, fc = b, f
            if moved > 0:
                fa *= 0.5
            moved = 1
    raise NumericalError(f"shooting landed {abs(f):.3e} away from the target after "
                         f"{MAX_REFINE} refinement steps (tol {SHOOT_TOL:g})")


def _derivative_on_grid(values, h):
    """Fourth-order finite differences, one-sided at the boundary."""
    v = values
    if v.shape[0] < 5:
        raise DomainError("need at least 5 grid points to differentiate")
    d = np.empty_like(v)
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    return d


def match_path(target_B, field, x, level=None):
    """Drift path b(t) whose solution reproduces phi(t, B(t), x(t)).

    ``target_B`` must be continuously differentiable: its derivative comes
    from fourth-order finite differences on the working grid.  Returns b
    sampled on that grid.
    """
    if level is None:
        level = min(target_B.level, x.level)
    B = target_B.restrict(level)
    xs = x.restrict(level)
    h = 2.0 ** (-level)
    dB = _derivative_on_grid(B.values, h)
    _, dxi, dtau, dtt = flow_with_derivatives(field, B.times(), B.values, xs.values)
    bvals = dxi * dB + dtau + 0.5 * dtt
    return SampledPath(level, bvals)


def round_trip_error(target_B, drift_path, field, x):
    """sup |z - phi(t, B(t), x(t))| on the grid of ``drift_path``, where z
    solves the equation with drift ``drift_path`` (as ``match_path``
    returns it) from z0 = B(0), and B is ``target_B``: how far the solve
    lands from the path that the drift was matched to."""
    level = drift_path.level
    B = target_B.restrict(level).values
    problem = _linear_qv_problem(field, x, float(B[0]), drift_from_path(drift_path), level)
    sol = solve_ide(problem, level)
    phi, _, _, _ = flow_with_derivatives(field, grid_points(level), B,
                                         x.restrict(level).values)
    return float(np.max(np.abs(sol.z.values - phi)))


def drift_from_path(bpath):
    """Wrap a sampled drift b(t) as the (t, xi) callable solvers expect."""
    tgrid = bpath.times()
    vals = bpath.values
    return lambda t, xi: np.interp(t, tgrid, vals)
