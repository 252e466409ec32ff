"""Pathwise (non-anticipative) integrals against paths with quadratic
variation, and the second-order Taylor defect of the pathwise Ito formula.

The integral is the limit of left-point Riemann sums; integrands must be
admissible for the integrator, which in practice means traces of the form
g(A(t), x(t)) with g continuously differentiable and A of bounded
variation.  Admissibility is not machine-checkable for arbitrary
closures, so it is part of the caller contract and everything shipped
here follows that form.
"""

from __future__ import annotations

import numpy as np

from .dyadic import _check_level, grid_index
from .errors import DomainError, _finite


def follmer_integral(eta, x, n, t):
    """Left-point sum  sum_{s < t} eta(s) (x(s') - x(s))  at level n.

    Linear in eta; with eta = 1 it telescopes to x(t) - x(0).
    """
    n = _check_level(n)
    if eta.level < n or x.level < n:
        raise DomainError(
            f"need integrand and integrator at level >= {n}, "
            f"got {eta.level} and {x.level}"
        )
    g = eta.restrict(n).values
    v = x.restrict(n).values
    j = grid_index(t, n)
    return float(np.sum(g[:j] * np.diff(v[: j + 1])))


def ito_residual(F, dF, d2F, x, n, t):
    """Level-n defect of the pathwise Ito formula for a scalar map F:

        F(x(t)) - F(x(0)) - sum_{s<t} F'(x(s)) dx - 1/2 sum_{s<t} F''(x(s)) (dx)^2.

    Quadratic F has zero residual at every level (exact Taylor); for
    smoother paths-with-QV the residual is a third-order Taylor remainder
    and shrinks as n grows.  Raises DomainError when F, F' or F'' is not
    finite at a path value it is evaluated at.
    """
    n = _check_level(n)
    v = x.restrict(n).values
    j = grid_index(t, n)
    base = v[:j]
    dx = np.diff(v[: j + 1])
    message = "F, F' or F'' is not finite at a value of the path"
    start, end = (_finite(DomainError, message, F, v[i]) for i in (0, j))
    first = float(np.sum(_finite(DomainError, message, dF, base) * dx))
    second = float(np.sum(_finite(DomainError, message, d2F, base) * dx**2))
    return float(end - start) - first - 0.5 * second
