"""Constructors for paths with prescribed quadratic variation.

Two recipes, both driven by a sequence of bounded functions f_n that
converges uniformly to a Riemann-integrable limit f:

* ``build_x``   samples the n-th function at the dyadic points k 2^-n and
  uses those samples as wedge coefficients; the result has the curved
  quadratic variation  t -> integral_0^t f(s)^2 ds.
* ``build_y``   samples along the irrational rotation k -> alpha k mod 1
  instead; equidistribution flattens the quadratic variation to the
  linear  t -> t * integral_0^1 f(s)^2 ds.

``predicted_qv`` gives either limit as a QVCurve on a dyadic grid, from
one cumulative composite-Simpson pass over f_inf^2.

Coefficients depend linearly on the sequence, so each family is a vector
space and covariations exist pairwise.

``nondiff_quotients`` tracks the dyadic difference quotients
d_n = 2^n (x(s_n') - x(s_n)) of a wedge-series path at a fixed time.
Because rows at and beyond level n vanish on the level-n grid, the
quotients obey an exact one-row recursion

    d_n = d_{n-1} + eps_n * theta[n-1][k*] * 2^((n-1)/2),

with k* the level-(n-1) cell containing t and eps_n = +1 or -1 according
to whether that cell's left or right half contains t (the wedge rises,
then falls).  When the coefficients stay bounded away from zero the
increments blow up, so the quotients cannot converge: the divergence
witness for the non-differentiability of the paths built here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dyadic import QVCurve, SampledPath, _check_count, _check_level, grid_points
from .errors import DomainError, NumericalError, _finite
from .schauder import FSCoefficients, synthesize

#: Where sequences are spot-checked: the level-10 dyadic grid, which holds
#: the points that the coarse coefficient rows sample.
SPOT_GRID = grid_points(10)
_SPOT_MAX_N = 32


@dataclass(frozen=True)
class FunctionSequence:
    """A sequence f_n of bounded functions with uniform limit f_infinity.

    ``term(n, t)`` and ``limit(t)`` must accept numpy arrays of times.
    Uniform convergence cannot be verified for arbitrary closures; the
    constructor spot-checks the bound for n <= 32 on SPOT_GRID, refuses a
    value that is not finite there (of f_64 and the limit too), and warns
    if sup|f_n - f_infinity| fails to shrink along n = 16, 32, 64;
    ``coefficients_x`` and ``coefficients_y`` check every row they sample
    against the bound.
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
        slack = _bound_slack(bound)

        def finite(what, fn, *args):
            return _finite(DomainError, f"{what} must return finite values per point", fn, *args)

        for n in range(_SPOT_MAX_N + 1):
            vals = finite(f"term({n}, t)", self.term, n, SPOT_GRID)
            if vals.shape != SPOT_GRID.shape:
                raise DomainError(f"term({n}, t) must return finite values per point")
            _check_bound(vals, n, bound)
        lim = finite("limit(t)", self.limit, SPOT_GRID)
        gaps = [float(np.max(np.abs(finite(f"term({n}, t)", self.term, n, SPOT_GRID) - lim)))
                for n in (16, 32, 64)]
        if gaps[0] < gaps[1] - slack or gaps[1] < gaps[2] - slack:
            warnings.warn(
                f"sup|f_n - f_inf| not decreasing along n=16,32,64: {gaps}; "
                "the sequence may not converge uniformly",
                stacklevel=2,
            )

    @classmethod
    def constant_in_n(cls, fn, uniform_bound, name=""):
        """The sequence f_n = fn for every n (limit = fn).  fn may return
        anything that broadcasts against t (a constant, say); its values
        are padded to t's shape (a read-only view)."""
        def padded(t):
            return np.broadcast_to(np.asarray(fn(t), dtype=np.float64), np.shape(t))

        return cls(lambda n, t: padded(t), padded, uniform_bound, name)


def _bound_slack(bound):
    return 1e-9 * (1.0 + bound)


def _check_bound(values, n, bound):
    """DomainError unless every |f_n| value is within ``bound`` (and finite)."""
    limit = bound + _bound_slack(bound)
    # min and max need no temporary the size of a row, and a NaN fails both
    if not (-limit <= values.min() and values.max() <= limit):
        raise DomainError(
            f"|f_{n}| exceeds the declared uniform bound {bound} "
            f"(max {np.max(np.abs(values)):.6g})"
        )


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

    def frac_array(self, count):
        """[alpha * k mod 1 for k in range(count)] as a float array, exact
        for the binary value of alpha.

        alpha = p / q with q a power of two, so p k mod q is the low bits
        of p k.  For q <= 2^64 they come from one uint64 product, which
        wraps modulo 2^64, a multiple of q; a larger q takes the same
        product on Python integers.  r / q then rounds once, as Python's
        int division does.
        """
        p, q = self.alpha.as_integer_ratio()
        if q > 2**64:
            return (np.arange(count, dtype=object) * (p % q) % q / q).astype(np.float64)
        r = np.arange(count, dtype=np.uint64) * np.uint64(p % q) & np.uint64(q - 1)
        return r / float(q)


def _row(fseq, n, pts):
    """f_n at ``pts`` through ``errors._finite``, checked against the
    sequence's uniform bound: the spot checks of FunctionSequence cannot
    see a pole between their grid points, which a row's sample points may
    come close to."""
    row = _finite(DomainError, f"|f_{n}| exceeds the declared uniform bound "
                  f"{fseq.uniform_bound} (a value is not finite)", fseq.term, n, pts)
    _check_bound(row, n, fseq.uniform_bound)
    return row


def coefficients_x(fseq, depth):
    """Wedge rows theta[n][k] = f_n(k 2^-n) for n < depth (anchor, slope 0);
    DomainError if a row exceeds ``fseq.uniform_bound``."""
    depth = _check_level(depth)
    return FSCoefficients(0.0, 0.0, [
        _row(fseq, n, np.arange(2**n, dtype=np.float64) * 2.0 ** (-n)) for n in range(depth)])


def coefficients_y(fseq, shift, depth):
    """Wedge rows theta[n][k] = f_n(alpha k mod 1) for n < depth;
    DomainError if a row exceeds ``fseq.uniform_bound``."""
    depth = _check_level(depth)
    fracs = shift.frac_array(2 ** max(depth - 1, 0))  # row n samples the first 2^n
    # each row gets a copy, so that a term cannot write into fracs
    return FSCoefficients(0.0, 0.0, [
        _row(fseq, n, fracs[: 2**n].copy()) for n in range(depth)])


def build_x(fseq, level):
    """Path with curved quadratic variation integral_0^t f^2."""
    return synthesize(coefficients_x(fseq, level), level)


def build_y(fseq, shift, level):
    """Path with linear quadratic variation t * integral_0^1 f^2."""
    return synthesize(coefficients_y(fseq, shift, level), level)


_QUAD_LEVEL = 14  # no Simpson panel is wider than 2^-14


def predicted_qv(fseq, kind, level):
    """Limit quadratic variation on the level-``level`` grid, as a QVCurve.

    kind="curved":  t -> integral_0^t f_inf(s)^2 ds
    kind="linear":  t -> t * integral_0^1 f_inf(s)^2 ds

    One cumulative composite-Simpson pass: f_inf^2 is sampled once, with
    each grid cell split into 2^max(1, 14 - level) panels, so no panel is
    wider than 2^-14.  Per-cell sums and their running total use fixed-order
    numpy reductions (no BLAS), so the curve is bit-reproducible.
    """
    level = _check_level(level)
    if kind not in ("curved", "linear"):
        raise DomainError(f"kind must be 'curved' or 'linear', got {kind!r}")
    fine = max(level + 1, _QUAD_LEVEL)
    panels = 2 ** (fine - level)
    s = np.arange(2**fine + 1, dtype=np.float64) * 2.0 ** (-fine)
    y = _finite(DomainError, "limit(t)^2 must be finite at every point",
                lambda: np.asarray(fseq.limit(s), dtype=np.float64) ** 2)
    cells = y[:-1].reshape(2**level, panels)  # row k: cell k without its right end
    simpson = (cells[:, 0] + y[panels::panels] + 4.0 * np.sum(cells[:, 1::2], axis=1)
               + 2.0 * np.sum(cells[:, 2::2], axis=1)) * (2.0 ** (-fine) / 3.0)
    curved = np.concatenate([[0.0], np.cumsum(simpson)])
    if kind == "curved":
        return QVCurve(level, curved)
    return QVCurve(level, grid_points(level) * curved[-1])


# -- shipped sequences (the four figure presets plus the all-ones row) ----

def _fig2_right_term(n, t):
    t = np.asarray(t, dtype=np.float64)
    return (10.0 * t - n) / (1.0 + n) * np.cos(6.0 * np.pi * n * t / (1.0 + n))


#: How to build each preset; ``preset`` builds one on its first lookup, so
#: no process pays for validating sequences it never uses.
_PRESET_BUILDERS = {
    "one": lambda: FunctionSequence.constant_in_n(lambda t: 1.0, 1.0, name="one"),
    "fig1-left": lambda: FunctionSequence.constant_in_n(
        lambda t: np.cos(2.0 * np.pi * np.asarray(t, dtype=np.float64)),
        1.0,
        name="fig1-left",
    ),
    "fig1-right": lambda: FunctionSequence.constant_in_n(
        lambda t: np.sin(7.0 * np.asarray(t, dtype=np.float64)) ** 2,
        1.0,
        name="fig1-right",
    ),
    "fig2-left": lambda: FunctionSequence.constant_in_n(
        lambda t: np.sin(2.0 * np.pi * np.asarray(t, dtype=np.float64)),
        1.0,
        name="fig2-left",
    ),
    "fig2-right": lambda: FunctionSequence(
        _fig2_right_term,
        lambda t: -np.cos(6.0 * np.pi * np.asarray(t, dtype=np.float64)),
        10.0,
        name="fig2-right",
    ),
}

#: The preset names, sorted.
PRESETS = tuple(sorted(_PRESET_BUILDERS))
_built_presets = {}


def preset(name):
    """Look up a shipped function sequence by CLI name.  It is built and
    validated on its first lookup; every lookup returns that object."""
    fseq = _built_presets.get(name)
    if fseq is None:
        try:
            build = _PRESET_BUILDERS[name]
        except KeyError:
            raise DomainError(
                f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
            ) from None
        fseq = _built_presets.setdefault(name, build())
    return fseq


def x_from_spec(spec, level):
    """The integrator path that ``spec`` names, and its sequence: for
    "preset:NAME", that preset's path built at ``level``; otherwise the
    path file ``spec``, with None, which must reach ``level``."""
    if spec.startswith("preset:"):
        fseq = preset(spec.split(":", 1)[1])
        return build_x(fseq, level), fseq
    path = SampledPath.from_file(spec)
    if path.level < level:
        raise DomainError(f"{spec}: level {path.level} below requested {level}")
    return path, None


@dataclass(frozen=True, eq=False)
class NondiffReport:
    """Difference quotients d_n at a point, their exact one-row recursion,
    and the divergence bookkeeping for the non-differentiability argument.

    Arrays are indexed by n = 1..n_max (entry 0 of ``d`` is d_0).
    ``unoriented_increment`` is f_n(s_n) 2^((n-1)/2), the magnitude form
    the divergence argument uses; ``predicted_increment`` carries the
    orientation sign and matches ``increment`` to rounding.
    """

    t: float
    d: np.ndarray
    increment: np.ndarray
    predicted_increment: np.ndarray
    unoriented_increment: np.ndarray
    sign: np.ndarray
    hypothesis_met: np.ndarray
    diverging: np.ndarray
    eps: float
    recursion_defect: float

    @property
    def max_abs_d(self):
        return float(np.max(np.abs(self.d)))


def nondiff_quotients(coeffs, fseq, t, n_max):
    """Difference quotients of the truncated wedge series at t in [0, 1).

    Verifies the exact recursion (raises NumericalError beyond 1e-10) and
    flags levels where the increment magnitude certifies divergence:
    |d_n - d_{n-1}| >= eps 2^((n-1)/2) whenever |f_n(s_n)| >= eps, which
    contradicts convergence of the quotients.  eps is max(1e-12,
    |f_inf(t)| / 2); DomainError if f_inf(t) is not finite.
    """
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise DomainError("t must lie in [0, 1); t = 1 reduces to t = 0 by symmetry")
    n_max = _check_count(n_max, "n_max")
    if not 1 <= n_max <= coeffs.depth:
        raise DomainError(f"n_max must lie in [1, depth={coeffs.depth}]")
    eps = max(1e-12, 0.5 * abs(float(_finite(DomainError, f"f_inf({t}) is not finite",
                                             fseq.limit, t))))

    path = synthesize(coeffs, coeffs.depth)
    v = path.values

    d = np.empty(n_max + 1)
    for n in range(n_max + 1):
        k = int(np.floor(t * 2**n))
        stride = 2 ** (path.level - n)
        d[n] = 2**n * (v[(k + 1) * stride] - v[k * stride])

    ns = np.arange(1, n_max + 1)
    k_fine = np.floor(t * 2.0**ns).astype(np.int64)
    k_coarse = np.floor(t * 2.0 ** (ns - 1)).astype(np.int64)
    sign = np.where(k_fine % 2 == 0, 1.0, -1.0)
    theta_at = np.array([coeffs.row(n - 1)[k] for n, k in zip(ns, k_coarse)])
    predicted = sign * theta_at * 2.0 ** ((ns - 1) / 2.0)
    increment = np.diff(d)

    scale = 1.0 + np.max(np.abs(predicted))
    defect = float(np.max(np.abs(increment - predicted)))
    if defect > 1e-10 * scale:
        raise NumericalError(
            f"difference-quotient recursion violated by {defect:.3e}"
        )

    s_fine = k_fine * 2.0 ** (-ns.astype(np.float64))
    f_at = np.array([float(_finite(DomainError, f"f_{n}({s}) is not finite",
                                   fseq.term, int(n), np.array([s])).ravel()[0])
                     for n, s in zip(ns, s_fine)])
    unoriented_increment = f_at * 2.0 ** ((ns - 1) / 2.0)
    hypothesis = np.abs(f_at) >= eps
    diverging = np.abs(increment) >= eps * 2.0 ** ((ns - 1) / 2.0)
    return NondiffReport(
        t=t, d=d, increment=increment, predicted_increment=predicted,
        unoriented_increment=unoriented_increment, sign=sign, hypothesis_met=hypothesis,
        diverging=diverging, eps=eps, recursion_defect=defect,
    )
