"""Faber-Schauder (wedge) basis: evaluation, analysis, synthesis.

Every continuous function on [0, 1] has a unique uniformly convergent
expansion

    x = x(0) + (x(1) - x(0)) t  +  sum_m sum_k  theta[m][k] e_{m,k}(t),

where e_{m,k}(t) = 2^(-m/2) e_00(2^m t - k) is a wedge of height
2^(-(m+2)/2) supported on [k 2^-m, (k+1) 2^-m], and the coefficients are
scaled second differences of x at dyadic midpoints.  Synthesis runs
level-by-level via midpoint displacement (O(2^N) total work) and is exact
at dyadic points; analysis inverts it row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_LEVEL, SampledPath, _check_level
from .errors import DomainError


def basis_eval(m, k, t):
    """Value of the wedge e_{m,k} at t (vectorized over t).

    Zero outside [k 2^-m, (k+1) 2^-m]; peak 2^(-(m+2)/2) at (k + 1/2) 2^-m.
    """
    m = _check_level(m)
    if not (0 <= k <= 2**m - 1):
        raise DomainError(f"wedge index k={k} out of range for row m={m}")
    t = np.asarray(t, dtype=np.float64)
    u = 2.0**m * t - k
    out = 2.0 ** (-m / 2.0) * np.maximum(0.0, np.minimum(u, 1.0 - u))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class FSCoefficients:
    """A wedge-basis development: anchor x(0), slope x(1) - x(0), and the
    triangular coefficient array (row m holds 2^m entries)."""

    anchor: float
    slope: float
    theta: tuple

    def __post_init__(self):
        rows = []
        for m, row in enumerate(self.theta):
            arr = np.asarray(row, dtype=np.float64).copy()
            if arr.ndim != 1 or arr.shape[0] != 2**m:
                raise DomainError(f"row {m} must have {2**m} entries, got {arr.shape}")
            arr.setflags(write=False)
            rows.append(arr)
        if len(rows) > MAX_LEVEL:
            raise DomainError(f"depth {len(rows)} exceeds MAX_LEVEL={MAX_LEVEL}")
        object.__setattr__(self, "theta", tuple(rows))
        object.__setattr__(self, "anchor", float(self.anchor))
        object.__setattr__(self, "slope", float(self.slope))

    @property
    def depth(self):
        return len(self.theta)

    def row(self, m):
        if not (0 <= m < self.depth):
            raise DomainError(f"row {m} out of range (depth {self.depth})")
        return self.theta[m]


def analyze(path, depth=None):
    """Read the wedge coefficients off a sampled path.

    Row m needs the midpoints of the level-m cells, so the analysis depth
    is capped by the path level (default: equal to it).
    """
    if path.level < 1:
        raise DomainError("analysis needs path level >= 1")
    if depth is None:
        depth = path.level
    if not (1 <= depth <= path.level):
        raise DomainError(
            f"analysis depth {depth} must lie in [1, path level {path.level}]"
        )
    v = path.values
    anchor = float(v[0])
    slope = float(v[-1] - v[0])
    theta = []
    for m in range(depth):
        stride = 2 ** (path.level - m)
        left = v[::stride]
        mid = v[stride // 2 :: stride]
        # theta[m][k] = 2^{m/2} (2 x(mid) - x(left) - x(right))
        theta.append(2.0 ** (m / 2.0) * (2.0 * mid - left[:-1] - left[1:]))
    return FSCoefficients(anchor, slope, theta)


def synthesize(coeffs, level):
    """Sum the series at all level-``level`` dyadic points.

    Midpoint displacement: each row adds theta[m][k] * 2^(-(m+2)/2) to the
    midpoints of the current cells; rows beyond the coefficient depth are
    zero, so further refinement is plain linear interpolation.  Requesting
    a level below the depth would discard rows, hence the error.
    """
    level = _check_level(level)
    if level < coeffs.depth:
        raise DomainError(
            f"synthesis level {level} < coefficient depth {coeffs.depth}"
        )
    v = np.array([coeffs.anchor, coeffs.anchor + coeffs.slope])
    for m in range(level):
        mids = 0.5 * (v[:-1] + v[1:])
        if m < coeffs.depth:
            mids = mids + coeffs.theta[m] * 2.0 ** (-(m + 2) / 2.0)
        out = np.empty(2 * v.shape[0] - 1)
        out[::2] = v
        out[1::2] = mids
        v = out
    return SampledPath(level, v)
