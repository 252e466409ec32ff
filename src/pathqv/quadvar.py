"""Quadratic variation and covariation along dyadic partitions.

Two deliberately independent routes to the same limits: the pathwise
estimators (sums of increment products) and the coefficient partial sums
(``ell1``/``ell2``).  At t = 1 and with zero anchor and slope the two are
related by an exact finite-level identity,

    <x>_1^n  =  2^-n  sum_{m<n} sum_k theta[m][k]^2,

which the tests use as a cross-oracle.  The floor index (2^n - 1) t is
taken literally; that asymmetry is what makes the identity exact.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import QVCurve, SampledPath, _check_level, grid_index
from .errors import DomainError


def _increment_products(x, y, n):
    """(x(s') - x(s)) (y(s') - y(s)) for the 2^n level-n grid points s < 1."""
    n = _check_level(n)
    for path in (x, y):
        if n > path.level:
            raise DomainError(f"level {n} exceeds path level {path.level}")
    dx = np.diff(x.restrict(n).values)
    return dx * (dx if y is x else np.diff(y.restrict(n).values))


def _partial_sums(x, y, n):
    """The sums over s <= t at every level-n grid point t; s = 1 adds
    nothing, since its successor is 1 itself."""
    partial = np.cumsum(_increment_products(x, y, n))
    return np.concatenate([partial, partial[-1:]])


def cov_level(x, y, n, t):
    """<x,y>_t^n = sum over grid points s <= t of (x(s') - x(s)) (y(s') - y(s)).

    The increment starting at s = t is included, per the sum-over-s<=t
    convention; at s = 1 the successor is 1 itself, contributing zero.
    """
    prod = _increment_products(x, y, n)
    return float(np.sum(prod[: grid_index(t, n) + 1]))


def qv_level(x, n, t):
    """<x>_t^n = <x,x>_t^n, the sum of squared increments over s <= t."""
    return cov_level(x, x, n, t)


def qv_curve(x, n):
    """The whole estimator curve t -> <x>_t^n as a QVCurve."""
    return QVCurve(_check_level(n), _partial_sums(x, x, n))


def cov_curve(x, y, n):
    """The covariation curve t -> <x,y>_t^n at the level-n grid points."""
    return SampledPath(_check_level(n), _partial_sums(x, y, n))


def _floor_count(n, t):
    """floor((2^n - 1) t): the coefficient cutoff; the 2^n - 1 (rather
    than 2^n) is what makes the finite-level identity exact."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return int(math.floor((2**n - 1) * t))


def ell2(coeffs, n, t):
    """Single-row partial sum  2^-n sum_{k <= floor((2^n-1)t)} theta[n][k]^2."""
    row = coeffs.row(n)
    cut = _floor_count(n, t)
    return float(np.sum(row[: cut + 1] ** 2)) / 2**n


def ell1(coeffs, n, t):
    """Accumulated partial sum  2^-n sum_{m<n} sum_{k <= floor((2^m-1)t)} theta[m][k]^2."""
    n = int(n)
    if not (0 <= n <= coeffs.depth):
        raise DomainError(f"row count {n} out of range (depth {coeffs.depth})")
    total = 0.0
    for m in range(n):
        cut = _floor_count(m, t)
        total += float(np.sum(coeffs.row(m)[: cut + 1] ** 2))
    return total / 2**n


def _check_pm1(row, n):
    arr = np.asarray(row, dtype=np.float64)
    if arr.shape != (2**n,):
        raise DomainError(f"row must have 2^{n} entries, got shape {arr.shape}")
    if not np.all(np.abs(arr) == 1.0):
        raise DomainError("row entries must all be -1 or +1")
    return arr


def coincidence_frequency(theta_row, vartheta_row, n, t):
    """Frequency of non-coincidence of two +-1 coefficient rows.

    nu_n(t) = 2^-n card{k <= floor((2^n-1)t) : theta[k] != vartheta[k]},
    tied to the covariation partial sum through the exact identity
    2^-n sum theta vartheta = (floor((2^n-1)t) + 1) 2^-n - 2 nu_n(t).
    """
    n = _check_level(n)
    a = _check_pm1(theta_row, n)
    b = _check_pm1(vartheta_row, n)
    cut = _floor_count(n, t)
    return float(np.count_nonzero(a[: cut + 1] != b[: cut + 1])) / 2**n
