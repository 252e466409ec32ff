"""Constructors for paths with prescribed quadratic variation.

Two recipes, both driven by a sequence of bounded functions f_n that
converges uniformly to a Riemann-integrable limit f:

* ``build_x``   samples the n-th function at the dyadic points k 2^-n and
  uses those samples as wedge coefficients; the result has the curved
  quadratic variation  t -> integral_0^t f(s)^2 ds.
* ``build_y``   samples along the irrational rotation k -> alpha k mod 1
  instead; equidistribution flattens the quadratic variation to the
  linear  t -> t * integral_0^1 f(s)^2 ds.

Coefficients depend linearly on the sequence, so each family is a vector
space and covariations exist pairwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dyadic import _check_level
from .errors import DomainError
from .schauder import FSCoefficients, synthesize

_SPOT_GRID = np.linspace(0.0, 1.0, 1024)
_SPOT_MAX_N = 32


@dataclass(frozen=True)
class FunctionSequence:
    """A sequence f_n of bounded functions with uniform limit f_infinity.

    ``term(n, t)`` and ``limit(t)`` must accept numpy arrays of times.
    Uniform convergence cannot be verified for arbitrary closures; the
    constructor spot-checks the bound for n <= 32 on a 1024-point grid
    and warns if sup|f_n - f_infinity| fails to shrink along n = 16, 32, 64.
    """

    term: callable
    limit: callable
    uniform_bound: float
    name: str = ""

    def __post_init__(self):
        bound = float(self.uniform_bound)
        if not (bound >= 0.0 and math.isfinite(bound)):
            raise DomainError(f"uniform_bound must be finite and >= 0, got {bound}")
        object.__setattr__(self, "uniform_bound", bound)
        slack = 1e-9 * (1.0 + bound)
        for n in range(_SPOT_MAX_N + 1):
            vals = np.asarray(self.term(n, _SPOT_GRID), dtype=np.float64)
            if vals.shape != _SPOT_GRID.shape or not np.all(np.isfinite(vals)):
                raise DomainError(f"term({n}, t) must return finite values per point")
            if np.max(np.abs(vals)) > bound + slack:
                raise DomainError(
                    f"|f_{n}| exceeds the declared uniform bound {bound} "
                    f"(max {np.max(np.abs(vals)):.6g})"
                )
        lim = np.asarray(self.limit(_SPOT_GRID), dtype=np.float64)
        gaps = [
            float(np.max(np.abs(np.asarray(self.term(n, _SPOT_GRID)) - lim)))
            for n in (16, 32, 64)
        ]
        if gaps[0] < gaps[1] - slack or gaps[1] < gaps[2] - slack:
            warnings.warn(
                f"sup|f_n - f_inf| not decreasing along n=16,32,64: {gaps}; "
                "the sequence may not converge uniformly",
                stacklevel=2,
            )

    @classmethod
    def constant_in_n(cls, fn, uniform_bound, name=""):
        """The sequence f_n = fn for every n (limit = fn)."""
        return cls(lambda n, t: fn(t), fn, uniform_bound, name)


@dataclass(frozen=True)
class IrrationalShift:
    """The rotation k -> alpha k mod 1 for a fixed alpha > 0.

    Fractional parts are computed exactly in integer arithmetic on the
    binary representation of alpha: naive floating alpha*k loses bits for
    k up to 2^20, and coefficient errors would feed straight into the
    quadratic-variation sums.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError(f"alpha must be a positive finite real, got {a}")
        object.__setattr__(self, "alpha", a)

    def frac(self, k):
        """alpha * k mod 1, exact for the binary value of alpha."""
        p, q = self.alpha.as_integer_ratio()
        return ((p * int(k)) % q) / q

    def frac_array(self, count):
        """[alpha * k mod 1 for k in range(count)] as a float array."""
        p, q = self.alpha.as_integer_ratio()
        p %= q
        out = np.empty(count, dtype=np.float64)
        r = 0
        for k in range(count):
            out[k] = r / q
            r += p
            if r >= q:
                r -= q
        return out


def coefficients_x(fseq, depth):
    """Wedge rows theta[n][k] = f_n(k 2^-n) for n < depth (anchor, slope 0)."""
    depth = _check_level(depth)
    rows = []
    for n in range(depth):
        pts = np.arange(2**n, dtype=np.float64) * 2.0 ** (-n)
        rows.append(np.asarray(fseq.term(n, pts), dtype=np.float64))
    return FSCoefficients(0.0, 0.0, rows)


def coefficients_y(fseq, shift, depth):
    """Wedge rows theta[n][k] = f_n(alpha k mod 1) for n < depth."""
    depth = _check_level(depth)
    fracs = shift.frac_array(2 ** max(depth - 1, 0))  # row n samples the first 2^n
    rows = []
    for n in range(depth):
        pts = fracs[: 2**n].copy()  # a copy, so that a term cannot write into fracs
        rows.append(np.asarray(fseq.term(n, pts), dtype=np.float64))
    return FSCoefficients(0.0, 0.0, rows)


def build_x(fseq, level):
    """Path with curved quadratic variation integral_0^t f^2."""
    return synthesize(coefficients_x(fseq, level), level)


def build_y(fseq, shift, level):
    """Path with linear quadratic variation t * integral_0^1 f^2."""
    return synthesize(coefficients_y(fseq, shift, level), level)


_QUAD_PANELS = 2**14


def _simpson(fn, a, b, panels=_QUAD_PANELS):
    if b <= a:
        return 0.0
    t = np.linspace(a, b, panels + 1)
    y = np.asarray(fn(t), dtype=np.float64)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def predicted_qv(fseq, kind, t):
    """Limit quadratic variation at time t.

    kind="curved":  integral_0^t f_inf(s)^2 ds
    kind="linear":  t * integral_0^1 f_inf(s)^2 ds

    Composite Simpson on 2^14 panels.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    sq = lambda s: np.asarray(fseq.limit(s), dtype=np.float64) ** 2
    if kind == "curved":
        return _simpson(sq, 0.0, t)
    if kind == "linear":
        return t * _simpson(sq, 0.0, 1.0)
    raise DomainError(f"kind must be 'curved' or 'linear', got {kind!r}")


# -- shipped sequences (the four figure presets plus the all-ones row) ----

def _fig2_right_term(n, t):
    t = np.asarray(t, dtype=np.float64)
    return (10.0 * t - n) / (1.0 + n) * np.cos(6.0 * np.pi * n * t / (1.0 + n))


def _make_presets():
    presets = {
        "one": FunctionSequence.constant_in_n(
            lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
            1.0,
            name="one",
        ),
        "fig1-left": FunctionSequence.constant_in_n(
            lambda t: np.cos(2.0 * np.pi * np.asarray(t, dtype=np.float64)),
            1.0,
            name="fig1-left",
        ),
        "fig1-right": FunctionSequence.constant_in_n(
            lambda t: np.sin(7.0 * np.asarray(t, dtype=np.float64)) ** 2,
            1.0,
            name="fig1-right",
        ),
        "fig2-left": FunctionSequence.constant_in_n(
            lambda t: np.sin(2.0 * np.pi * np.asarray(t, dtype=np.float64)),
            1.0,
            name="fig2-left",
        ),
        "fig2-right": FunctionSequence(
            _fig2_right_term,
            lambda t: -np.cos(6.0 * np.pi * np.asarray(t, dtype=np.float64)),
            10.0,
            name="fig2-right",
        ),
    }
    return presets


PRESETS = _make_presets()


def preset(name):
    """Look up a shipped function sequence by CLI name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
