"""Pathwise Ito differential equations via the Doss-Sussmann decomposition.

An equation  dz = sigma(t, z) dx + b(t, z) dA  driven by a path x with
continuous quadratic variation is reduced to a Stieltjes integral
equation for a bounded-variation component B:

    B(t) = z0 + int_0^t  b(s, phi)/phi_xi  dA(s)
              - int_0^t  phi_tau/phi_xi    ds
              - 1/2 int_0^t  phi_tt/phi_xi d<x>_s,

with every flow quantity evaluated at (s, B(s), x(s)); the solution is
then assembled as  z(t) = phi(t, B(t), x(t)).

Discretization: left-point Riemann-Stieltjes sums on a working dyadic
grid against the three drivers A(s), s and <x>_s, matching the
non-anticipative convention of the pathwise integral.  Two schemes solve
the resulting discrete fixed-point system:

* ``picard``  iterates B -> z0 + S(B) from the constant z0 with one
  vectorized flow solve per sweep, loose while the defect is large and
  at full tolerance before it may stop (a closed-form flow is always at
  full accuracy); the flow values of that last sweep are
  phi(t, B(t), x(t)) and assemble z without a further solve;
* ``tonelli`` builds the delayed iterate with lag 1/n inductively on the
  blocks (k/n, (k+1)/n].  With the lag equal to one grid step the delayed
  sum coincides with the full left-point sum, so the construction then
  produces the same discrete solution as Picard and serves as an
  independent uniqueness probe; coarser lags demonstrate the convergence
  of the delayed approximations themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import BVDriver, QVCurve, SampledPath, grid_points, _check_level
from .errors import DomainError, NumericalError
from .flow import RTOL, eval_on, flow_with_derivatives
from .quadvar import qv_curve

PICARD_TOL = 1e-10
MAX_PICARD_ITER = 200
_FORCING = 1e-3  # flow rtol of a Picard sweep per unit of the previous defect


@dataclass(frozen=True, eq=False)
class IDEProblem:
    """One pathwise Ito equation: field sigma, drift b, driver A, the
    integrator path x with x(0) = 0, its quadratic variation as a curve,
    and the initial value z0.

    ``drift`` takes (t, xi) and, like the field's callables, may return
    anything that broadcasts against the joint shape of its arguments, e.g.
    a scalar for a constant drift; the solvers pad with ``eval_on`` where
    they need a full-shape array.

    ``drift_growth`` declares a constant c with |b(t, xi)| <= c (1 + |xi|);
    it feeds the a-priori Gronwall bound and is not otherwise enforced.
    """

    field: object
    drift: callable
    driver_A: BVDriver
    x: SampledPath
    qv_x: QVCurve
    z0: float
    drift_growth: float = None

    def __post_init__(self):
        if self.x.values[0] != 0.0:
            raise DomainError(f"integrator must satisfy x(0) = 0, got {self.x.values[0]}")
        object.__setattr__(self, "z0", float(self.z0))
        if not np.isfinite(self.z0):
            raise DomainError(f"z0 must be finite, got {self.z0}")

    def working_level(self, level=None):
        cap = min(self.x.level, self.driver_A.level, self.qv_x.level)
        if level is None:
            return cap
        level = _check_level(level)
        if level > cap:
            raise DomainError(
                f"level {level} exceeds the coarsest component level {cap}"
            )
        return level

    def gronwall_bound(self):
        """A-priori sup bound (m + cV) e^(cV) on any solution iterate.

        Kernel growth constants are assembled from the declared field
        bounds and drift growth; deliberately conservative.
        """
        if self.drift_growth is None:
            raise DomainError("gronwall_bound needs a declared drift_growth")
        L = float(self.field.sup_sigma_xi)
        T0 = float(self.field.sup_sigma_t)
        X = float(np.max(np.abs(self.x.values)))
        taus = np.linspace(0.0, 1.0, 201)
        S0 = float(np.max(np.abs(np.asarray(self.field.sigma(taus, np.zeros_like(taus))))))
        E = float(np.exp(L * X))
        eps = 1.0 / E
        G = (E - 1.0) / L if L > 0 else X
        cb = float(self.drift_growth)
        c1 = cb * (1.0 + S0 * G + E) / eps
        c2 = T0 * G / eps
        c3 = 0.5 * L * (S0 * (1.0 + L * G) + L * E) / eps
        c = max(c1, c2, c3)
        V = self.driver_A.total_variation + 1.0 + float(self.qv_x.values[-1])
        return (abs(self.z0) + c * V) * float(np.exp(c * V))


@dataclass(frozen=True, eq=False)
class IDESolution:
    """Solver output: the bounded-variation component B, the assembled
    solution z(t_k) = phi(t_k, B(t_k), x(t_k)), the final fixed-point
    defect, and the (diagnostic) defect of the pathwise integral form."""

    B: SampledPath
    z: SampledPath
    residual_report: float
    follmer_defect: float


def _cell_contributions(problem, tpts, xpts, y, dA, ds, dQ, rtol=RTOL):
    """Flow values at (t, B, x(t)) points and the left-point contributions
    of the len(dA) cells starting there, from one vectorized flow solve at
    relative tolerance rtol."""
    phi, dxi, dtau, dtt = flow_with_derivatives(problem.field, tpts, y, xpts, rtol)
    bvals = np.asarray(problem.drift(tpts, phi), dtype=np.float64)
    n = dA.shape[0]
    return phi, (bvals / dxi)[:n] * dA + (-dtau / dxi)[:n] * ds + (-0.5 * dtt / dxi)[:n] * dQ


def _restricted(problem, level):
    x = problem.x.restrict(level)
    A = problem.driver_A.restrict(level)
    Q = problem.qv_x.restrict(level)
    tgrid = grid_points(level)
    return tgrid, x.values, np.diff(A.path.values), np.diff(tgrid), Q.increments()


def _solve_picard(problem, level, max_iter, initial=None):
    """Picard sweeps from z0 or ``initial``; returns (B, phi, defect).

    Sweep k solves the flow at rtol = min(F, max(RTOL, F defect_{k-1}))
    with F = _FORCING (inexact Newton; the flow scales its absolute
    tolerance alike), so the first sweep runs at F.  Only a sweep at full
    tolerance may stop, so B has a full-accuracy defect <= PICARD_TOL;
    that sweep's flow values phi(t, B(t), x(t)) and its defect are
    returned for reuse.  A field with a closed-form flow ignores the
    tolerance, so there every sweep is at full accuracy and any sweep may
    stop.
    """
    tgrid, xvals, dA, ds, dQ = _restricted(problem, level)
    B = np.full(tgrid.shape[0], problem.z0)
    if initial is not None:
        B = np.asarray(getattr(initial, "values", initial), dtype=np.float64)
        if B.shape != tgrid.shape:
            raise DomainError("initial iterate must live on the working grid")
    exact = getattr(problem.field, "exact_flow", None) is not None
    trace, defect = [], np.inf
    for _ in range(max_iter + 1):
        rtol = min(_FORCING, max(RTOL, _FORCING * defect))
        phi, cells = _cell_contributions(problem, tgrid, xvals, B, dA, ds, dQ, rtol)
        S = np.concatenate([[0.0], np.cumsum(cells)])
        defect = float(np.max(np.abs(B - problem.z0 - S)))
        trace.append(defect)
        if defect <= PICARD_TOL and (exact or rtol == RTOL):
            return SampledPath(level, B), phi, defect
        if len(trace) >= 8 and defect >= 0.9999 * trace[-2]:
            raise NumericalError(
                f"Picard iteration stalled at defect {defect:.3e} "
                f"(tol {PICARD_TOL:.1e})",
                trace=trace,
            )
        B = problem.z0 + S
    raise NumericalError(
        f"Picard did not reach defect {PICARD_TOL:.1e} in {max_iter} sweeps "
        f"(last defect {trace[-1]:.3e})",
        trace=trace,
    )


def _solve_tonelli(problem, level, tonelli_n):
    """The delayed iterate with lag 1/tonelli_n, built block by block;
    returns (B, phi, 0.0) like ``_solve_picard``, with phi from one
    full-grid flow solve at B (the delayed equation has no defect)."""
    if tonelli_n < 1 or 2**level % tonelli_n != 0:
        raise DomainError(
            f"tonelli delay 1/{tonelli_n} must divide the grid: "
            f"need tonelli_n | 2^{level}"
        )
    lag = 2**level // tonelli_n  # delay in grid steps
    tgrid, xvals, dA, ds, dQ = _restricted(problem, level)
    npts = tgrid.shape[0]
    B = np.full(npts, problem.z0)
    prefix = np.zeros(npts - 1)  # prefix[c] = sum of cell contributions 0..c
    running = 0.0
    j0 = lag
    while j0 <= npts - 1:
        # cells [j0-lag, j1-lag] use only B values settled in earlier blocks
        j1 = min(j0 + lag - 1, npts - 1)
        lo, hi = j0 - lag, j1 - lag
        sl = slice(lo, hi + 1)
        _, cells = _cell_contributions(problem, tgrid[sl], xvals[sl], B[sl],
                                       dA[sl], ds[sl], dQ[sl])
        prefix[sl] = running + np.cumsum(cells)
        running = prefix[hi]
        B[j0 : j1 + 1] = problem.z0 + prefix[lo : hi + 1]
        j0 = j1 + 1
    phi, _, _, _ = flow_with_derivatives(problem.field, tgrid, B, xvals)
    return SampledPath(level, B), phi, 0.0


def solve_ide(problem, level=None, *, scheme="picard", max_iter=MAX_PICARD_ITER,
              tonelli_n=64, initial=None):
    """Solve the pathwise Ito equation for B and assemble z = phi(t, B, x).

    ``scheme`` is "picard" or "tonelli" (with delay 1/``tonelli_n``, which
    must divide 2^level).  Picard stops at a fixed-point defect (sup over
    grid points) <= PICARD_TOL and raises NumericalError with the defect
    trace if it stalls or exhausts ``max_iter``; ``initial`` warm-starts it
    (e.g. with the B for nearby parameters), which, the fixed point being
    unique, only affects the sweep count.  The Tonelli scheme is
    defect-free by construction for its own delayed equation.

    ``residual_report`` carries the fixed-point defect of the B-solve;
    ``follmer_defect`` is the sup over the grid of

        |z(t) - z0 - sum sigma(s, z) dx - sum b(s, z) dA|,

    a finite-level diagnostic (the left sums converge to the integrals
    only in the limit, so this is reported, not asserted small).
    """
    level = problem.working_level(level)
    if scheme == "picard":
        B, phi, resid = _solve_picard(problem, level, max_iter, initial)
    elif scheme == "tonelli":
        B, phi, resid = _solve_tonelli(problem, level, tonelli_n)
    else:
        raise DomainError(f"scheme must be 'picard' or 'tonelli', got {scheme!r}")
    tgrid, xvals, dA, _, _ = _restricted(problem, level)
    z = SampledPath(level, phi)
    sig = eval_on(problem.field.sigma, tgrid, z.values)
    bv = eval_on(problem.drift, tgrid, z.values)
    sums = np.concatenate([[0.0], np.cumsum(sig[:-1] * np.diff(xvals) + bv[:-1] * dA)])
    follmer_defect = float(np.max(np.abs(z.values - problem.z0 - sums)))
    return IDESolution(B=B, z=z, residual_report=resid, follmer_defect=follmer_defect)


def verify_local_qv(z, field, qv_x, n):
    """Sup defect between <z>^n and the state-dependent reference

        sum_{s <= t} sigma(s, z(s))^2 * (QV mass of x at s).

    Masses follow the same sum-over-s<=t convention as the estimator, so
    for sigma constant and an empirical qv_x of the driving path the
    defect vanishes identically; for preset problems it shrinks with n.
    """
    n = _check_level(n)
    if qv_x.level < n or z.level < n:
        raise DomainError(f"need curve and path at level >= {n}")
    zn = z.restrict(n)
    tgrid = grid_points(n)
    sig2 = np.asarray(field.sigma(tgrid, zn.values), dtype=np.float64) ** 2
    ref = np.cumsum(sig2 * qv_x.restrict(n).masses())
    est = qv_curve(zn, n).values
    return float(np.max(np.abs(est - ref)))


# -- closed-form oracles ----------------------------------------------------

def langevin_closed_form(x, sigma0, b0, z0):
    """Exact solution of  dz = sigma0 dx + b0 z dt  for piecewise-linear x:

        z(t) = z0 e^(b0 t) + sigma0 b0 int_0^t e^(b0 (t-s)) x(s) ds + sigma0 x(t),

    with the convolution advanced cell by cell through the exact linear-ODE
    step (machine precision, no quadrature error on the sampled path).
    """
    h = 2.0 ** (-x.level)
    v = x.values
    if b0 == 0.0:
        B = np.full_like(v, z0)
    else:
        ebh = float(np.exp(b0 * h))
        J1 = (ebh - 1.0) / b0
        J2 = (ebh - 1.0 - b0 * h) / b0**2
        slope = np.diff(v) / h
        B = np.empty_like(v)
        B[0] = z0
        for k in range(v.shape[0] - 1):
            B[k + 1] = ebh * B[k] + sigma0 * b0 * (v[k] * J1 + slope[k] * J2)
    return SampledPath(x.level, B + sigma0 * v)


def linear_closed_form(x, sig, dsig, b, z0):
    """Exact solution of  dz = sig(t) z dx + b(t) z dt  with <x>_t = t:

        z(t) = z0 exp( sig(t) x(t) + int_0^t (b - sig' x - sig^2 / 2) ds ).

    The time integral is advanced per cell by Simpson's rule, which is
    exact here up to the smoothness of sig and b because the sampled x is
    piecewise linear.
    """
    t = x.times()
    h = 2.0 ** (-x.level)
    mid = 0.5 * (t[:-1] + t[1:])
    xmid = 0.5 * (x.values[:-1] + x.values[1:])

    def integrand(s, xs):
        s = np.asarray(s, dtype=np.float64)
        return (np.asarray(b(s), dtype=np.float64)
                - np.asarray(dsig(s), dtype=np.float64) * xs
                - 0.5 * np.asarray(sig(s), dtype=np.float64) ** 2)

    g_lo = integrand(t[:-1], x.values[:-1])
    g_mid = integrand(mid, xmid)
    g_hi = integrand(t[1:], x.values[1:])
    cells = h / 6.0 * (g_lo + 4.0 * g_mid + g_hi)
    I = np.concatenate([[0.0], np.cumsum(cells)])
    zvals = z0 * np.exp(np.asarray(sig(t), dtype=np.float64) * x.values + I)
    return SampledPath(x.level, zvals)


def sqrt1p_closed_form(x, z0):
    """Exact solution of  dz = sqrt(1 + z^2) dx + z/2 dt  with <x>_t = t:
    the drift z/2 cancels the quadratic-variation correction, leaving
    z(t) = sinh(x(t) + asinh(z0)) with constant B = z0."""
    return SampledPath(x.level, np.sinh(x.values + np.arcsinh(z0)))
