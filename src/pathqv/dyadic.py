"""Dyadic grids on [0, 1] and the functions sampled on them.

Everything downstream (quadratic variation estimators, pathwise integrals,
the integral-equation solver) works on the dyadic grids T_n = {k 2^-n}.
Grid points are exact binary floats up to ``MAX_LEVEL``, so grid-membership
tests and refinement are exact rather than tolerance-based.

One type holds a function known on a grid: ``SampledPath`` checks the
level, the length and finiteness, freezes the values, restricts to a
coarser level and reads and writes files.  The two drivers of the
Stieltjes sums are ``SampledPath``s too: a ``BVDriver`` (the
bounded-variation integrator A) reads like any path, and a ``QVCurve``
(the quadratic variation <x>) must be non-decreasing and reads the step
value off the grid.

All container types are immutable after construction and every operation
here is a pure function; sums are evaluated in a fixed order (numpy
pairwise reduction / cumsum), so repeated runs are bit-reproducible.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _finite

#: Largest supported grid level (2^20 + 1 points per path).
MAX_LEVEL = 20

#: Default working level used by the CLI and preset constructions.
DEFAULT_LEVEL = 12


def _check_level(n):
    """n as an int level in [0, MAX_LEVEL], by the rule of ``_check_count``."""
    n = _check_count(n, "level")
    if n < 0 or n > MAX_LEVEL:
        raise DomainError(f"level must be in [0, {MAX_LEVEL}], got {n}")
    return n


def _check_count(n, what):
    """n as an int, from any integer type but bool; DomainError naming
    ``what`` if not.  Levels, counts and indices all follow this rule."""
    try:
        if isinstance(n, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None


def grid_points(n):
    """All points of T_n as exact binary floats."""
    n = _check_level(n)
    return np.arange(2**n + 1, dtype=np.float64) * 2.0 ** (-n)


def grid_index(t, n):
    """The index k with t = k 2^-n, or DomainError if t is off-grid."""
    n = _check_level(n)
    k = float(t) * 2**n
    if not (0.0 <= k <= 2**n) or k != int(k):
        raise DomainError(f"{t!r} is not a point of the level-{n} dyadic grid")
    return int(k)


def successor(s, n):
    """The successor of s in T_n: min{u in T_n : u > s}, and 1 for s = 1."""
    k = grid_index(s, n)
    if k == 2**n:
        return 1.0
    return (k + 1) * 2.0 ** (-n)


def _unit_times(t):
    """t as a float array, or DomainError if any entry is outside [0, 1] or NaN."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("evaluation point outside [0, 1]")
    return t


def _freeze(values):
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A function on [0, 1] known at the points of a dyadic grid.

    Between grid points the path is understood as piecewise linear, which
    is exact for truncated wedge-basis series (their partial sums are
    piecewise linear at the synthesis level).
    """

    level: int
    values: np.ndarray

    def __post_init__(self):
        _check_level(self.level)
        arr = _freeze(self.values)
        if arr.ndim != 1 or arr.shape[0] != 2**self.level + 1:
            raise DomainError(
                f"level-{self.level} path needs {2**self.level + 1} values, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("path values must be finite")
        object.__setattr__(self, "values", arr)

    def times(self):
        return grid_points(self.level)

    def value_at(self, t):
        """Evaluate at t in [0, 1] (linear interpolation off the grid)."""
        out = np.interp(_unit_times(t), self.times(), self.values)
        return float(out) if out.ndim == 0 else out

    def restrict(self, m):
        """Restriction to the coarser level m, of the same type; exact at
        shared points."""
        m = _check_level(m)
        if m > self.level:
            raise DomainError(
                f"cannot restrict a level-{self.level} path to finer level {m}"
            )
        if m == self.level:
            return self
        stride = 2 ** (self.level - m)
        return type(self)(m, self.values[::stride])

    # -- serialization ---------------------------------------------------

    def to_csv(self, path):
        """Write "t,value" rows with 17 significant digits."""
        _write_csv(path, "t,value", [self.times(), self.values])

    @classmethod
    def from_csv(cls, path):
        t, values = [], []
        # a byte that is not UTF-8 reads as a lone surrogate, which fails the checks below
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            lines = (ln for ln in map(str.strip, fh) if ln)
            if next(lines, "").lower() != "t,value":
                raise DomainError(f"{path}: expected header 't,value'")
            try:
                for ln in lines:
                    row = ln.split(",")
                    t.append(float(row[0]))
                    values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise DomainError(f"{path}: malformed CSV row") from exc
        level = _level_from_count(len(values))
        # 17 significant digits round-trip, so the written grid reads back exactly
        if not np.array_equal(t, grid_points(level)):
            raise DomainError(f"{path}: t column is not the level-{level} dyadic grid")
        return cls(level, values)

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"level": self.level, "values": self.values.tolist()}, fh)

    @classmethod
    def from_json(cls, path):
        doc = read_json(path)
        try:
            level, values = doc["level"], np.asarray(doc["values"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"{path}: expected {{'level': n, 'values': [numbers]}}") from exc
        except OverflowError:  # an int beyond the float range
            raise DomainError(f"{path}: path values must be finite") from None
        return cls(_check_level(level), values)

    def to_file(self, path):
        """Write JSON for a .json name and CSV otherwise, as ``from_file`` reads."""
        if str(path).endswith(".json"):
            self.to_json(path)
        else:
            self.to_csv(path)

    @classmethod
    def from_file(cls, path):
        """Dispatch on extension: .json or CSV otherwise."""
        if str(path).endswith(".json"):
            return cls.from_json(path)
        return cls.from_csv(path)

    @classmethod
    def from_function(cls, fn, level):
        """Sample a callable at the level's grid points (for a QVCurve: an
        analytic curve from a known limit t -> <x>_t); DomainError if a
        value is not finite."""
        return cls(level, _finite(DomainError, "path values must be finite",
                                  fn, grid_points(level)))


def read_json(path):
    """Parse a JSON file; text that is not JSON is a DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, deep nesting
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc


def _write_csv(path, header, columns):
    """Write the rows of ``columns`` under ``header``, each number with 17
    significant digits, which round-trip exactly."""
    cells = [map("{:.17g}".format, np.asarray(c).tolist()) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _level_from_count(count):
    n = count - 1
    level = n.bit_length() - 1
    if n <= 0 or 2**level != n or level > MAX_LEVEL:
        raise DomainError(f"{count} rows is not 2^n + 1 for a supported level")
    return level


@dataclass(frozen=True, eq=False)
class BVDriver(SampledPath):
    """A continuous bounded-variation integrator: a sampled path that
    drives Stieltjes sums, read like any path (linear between grid points).
    """

    @classmethod
    def identity(cls, level):
        """The driver A(t) = t."""
        return cls(level, grid_points(level))


@dataclass(frozen=True, eq=False)
class QVCurve(SampledPath):
    """Partial sums of squared increments t -> <x>_t^n at one grid level.

    The estimator convention attributes the squared increment over
    [s, s'] to the point s (sum over s <= t), so the value at t = 0 is the
    first increment's square and the values are non-decreasing.  Curves
    built from an analytic limit function carry the function's own values
    instead; both kinds serve as drivers for Stieltjes sums.  Off the grid
    a curve reads the step value, not the linear interpolant.
    """

    def __post_init__(self):
        super().__post_init__()
        arr = self.values
        if np.any(np.diff(arr) < -1e-12 * max(1.0, abs(float(arr[-1])))):
            raise DomainError("quadratic-variation curve must be non-decreasing")

    def value_at(self, t):
        """Grid read: the partial sum at the largest grid point <= t, for
        t in [0, 1] or an array of such t."""
        out = self.values[np.floor(_unit_times(t) * 2**self.level).astype(np.intp)]
        return float(out) if out.ndim == 0 else out

    def masses(self):
        """Per-point quadratic-variation mass: m_0 = Q_0, m_k = Q_k - Q_{k-1}.

        For an estimator curve m_k is exactly the squared increment
        attributed to grid point k under the sum-over-s<=t convention.
        """
        return np.concatenate([self.values[:1], np.diff(self.values)])
