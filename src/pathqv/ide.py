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

* ``picard``  solves the grid window by window (below).  Each window
  sweeps from a constant, or a warm start, with one vectorized flow solve
  per sweep, loose while the defect is large and at full tolerance before
  it may stop (a closed-form flow is always at full accuracy); the flow
  values of that last sweep are phi(t, B(t), x(t)) and assemble z without
  a further solve.  The first sweep takes the Picard step B -> z0 + S(B);
  every later one a causal Newton step.
  Cell j of S reads B only at its left point, so the Jacobian of S is
  strictly lower triangular and the Newton step solves a first-order
  recurrence in O(n), with one cumulative product and one cumulative
  sum; each cell's slope is the secant of the last two sweeps, so no
  flow solve is added.
  Safeguards keep the step bounded: the secant counts only where B moved
  by more than 1e-3 of its largest move (a loose sweep's noise over a
  tiny move is no slope), each slope is clipped to [-1/2, 1/2], and a
  step that is not finite falls back to the Picard step;
* ``tonelli`` builds the delayed iterate with lag 1/n inductively on the
  blocks (k/n, (k+1)/n].  With the lag equal to one grid step the delayed
  sum coincides with the full left-point sum, so the construction then
  produces the same discrete solution as Picard and serves as an
  independent uniqueness probe; coarser lags demonstrate the convergence
  of the delayed approximations themselves.

Every solve reads slices of the problem's own paths and hands the flow
at most 8192 cells at a time, closed form and DP45 alike: the Picard
windows and the pathwise-integral defect walk the blocks of ``_spans``,
Tonelli its cells, once (``_solve_tonelli``).  Cell j reads the flow only
at its own left point, so the B-equation is causal, and the Picard
scheme solves its windows one after another (windowed waveform
relaxation): a window starts from B at its first point, fixed by the
converged windows before it, and sweeps to a defect <= PICARD_TOL before
the next one starts.  The sums continue from window to window in the
order of one cumulative sum over the grid, so the largest window defect
is the full-grid defect.  Only B and phi live at grid size (a level-16
solve holds about six grid arrays at once, its problem's included, with
a closed-form flow, seven with DP45).  The blocks depend on the level
(and lag) alone, so a DP45 solve, whose step control is shared across
a batch, still gives the same bits on every run; grids up to level 13
are one block, and so one window.

A block calls the flow's inner solve through ``flow.flow_derivatives``,
not the checked ``flow_with_derivatives``, so the flow's inputs are
checked once per solve where they can be: x is a SampledPath's, finite
and read-only, and the times are exact grid points.  Per block of a
sweep, the block of B is checked for finiteness, the inner solve checks
each flow value and d_xi > 0, and ``errors._finite`` checks the drift,
the cells and their sums, computing each with numpy's warnings off.
A closed form's constants (d_xi = 1, d_tau = 0) stay single numbers in
the cell arithmetic, which writes into the window's cell array with one
window-sized scratch array that every sweep reuses.  Lag-1 Tonelli's
one-cell pieces run the same arithmetic on plain floats, the flow's
float path; the drift still sees 1-element arrays there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import (BVDriver, QVCurve, SampledPath, grid_points, read_json, _check_count,
                     _check_level)
from .errors import DomainError, FlowIntegrationError, NumericalError, _finite
from .flow import RTOL, _all_finite, flow_derivatives, sample_box_values
from .quadvar import qv_curve

PICARD_TOL = 1e-10
MAX_PICARD_ITER = 200
_FORCING = 1e-5  # flow rtol of a Picard sweep per unit of the previous defect
_PRODUCT_BLOCK = 512  # cells per cumulative product: 1.5^512 and 2^-512 are normal floats
# Cells per block of every solve, and per Picard window: a block array of
# 8192 floats is 64 KiB, under glibc's default 128 KiB mmap threshold, so
# the blocks' temporaries and a window's state are reused from the heap
# instead of being mapped afresh and page-faulted in every sweep.  Grids
# up to level 13 are one block.
_SWEEP_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class IDEProblem:
    """One pathwise Ito equation: field sigma, drift b, driver A, the
    integrator path x with x(0) = 0, its quadratic variation as a curve,
    and the initial value z0.

    ``drift`` takes (t, xi) and, like the field's callables, may return
    anything that broadcasts against the joint shape of its arguments, e.g.
    a scalar for a constant drift, which numpy broadcasting absorbs.
    """

    field: object
    drift: callable
    driver_A: BVDriver
    x: SampledPath
    qv_x: QVCurve
    z0: float

    def __post_init__(self):
        if self.x.values[0] != 0.0:
            raise DomainError(f"integrator must satisfy x(0) = 0, got {self.x.values[0]}")
        try:
            z0 = float(self.z0)
        except OverflowError:  # an int beyond the float range
            z0 = math.inf
        if not math.isfinite(z0):
            raise DomainError(f"z0 must be finite, got {z0}")
        object.__setattr__(self, "z0", z0)

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


#: The keys of a problem file; every one but "qv" is required.
_PROBLEM_KEYS = ("sigma", "b", "A", "x", "z0", "level", "qv")


def read_problem(path):
    """The IDEProblem that the JSON problem file ``path`` describes, and its
    working level.

    The keys: "sigma", a field expression (see ``expr.field_from_expression``);
    "b", a drift expression over t and xi, where a JSON number reads as its
    Python text; "A", "t" or a path file for the driver; "x", "preset:NAME"
    or a path file (see ``construct.x_from_spec``); "z0", a JSON number;
    "level"; and "qv", optional: "analytic" (a preset's limit curve, the
    default for a preset x), "empirical" (the estimator at the level, the
    default for a file x) or "t".  A missing or unknown key or a bad value
    is a DomainError, and a file that cannot be read an OSError.
    """
    from .construct import predicted_qv, x_from_spec
    from .expr import Expression, field_from_expression

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object")
    for key in _PROBLEM_KEYS[:-1]:
        if key not in doc:
            raise DomainError(f"{path}: missing key {key!r}")
    for key in doc:
        if key not in _PROBLEM_KEYS:
            raise DomainError(f"{path}: unknown key {key!r}")
    for key in ("sigma", "A", "x"):
        if not isinstance(doc[key], str):
            raise DomainError(f"{path}: {key} must be a string, got {doc[key]!r}")
        if "\0" in doc[key]:  # open() raises a bare ValueError for a file name with one
            raise DomainError(f"{path}: {key} holds a NUL character")
    z0 = doc["z0"]
    if isinstance(z0, bool) or not isinstance(z0, (int, float)):  # True is an int
        raise DomainError(f"{path}: z0 must be a number, got {z0!r}")
    level = _check_level(doc["level"])
    field = field_from_expression(doc["sigma"])
    drift = Expression(str(doc["b"]), ("t", "xi"))
    sample_box_values(drift, f"drift b = {drift.src!r}")
    x, fseq = x_from_spec(doc["x"], level)
    if doc["A"] == "t":
        driver = BVDriver.identity(level)
    else:
        driver = BVDriver.from_file(doc["A"])
    qv_spec = doc.get("qv", "analytic" if fseq is not None else "empirical")
    if qv_spec == "analytic":
        if fseq is None:
            raise DomainError("qv=analytic needs a preset x")
        qv = predicted_qv(fseq, "curved", level)
    elif qv_spec == "t":
        qv = QVCurve.from_function(lambda t: t, level)
    elif qv_spec == "empirical":
        qv = qv_curve(x, level)  # x_from_spec gives an x of at least the level
    else:
        raise DomainError(f"bad qv spec {qv_spec!r}: use analytic | empirical | t")
    return IDEProblem(field=field, drift=drift, driver_A=driver, x=x, qv_x=qv, z0=z0), level


@dataclass(frozen=True, eq=False)
class IDESolution:
    """Solver output: the bounded-variation component B, the assembled
    solution z(t_k) = phi(t_k, B(t_k), x(t_k)), the final fixed-point
    defect, and the (diagnostic) defect of the pathwise integral form."""

    B: SampledPath
    z: SampledPath
    residual_report: float
    follmer_defect: float


def _paths(problem, level):
    """x, A and <x> at the grid points of ``level``: strided views of the
    problem's own values, so restriction copies nothing.  Their values are
    finite and read-only, as every SampledPath's are, so the blocks hand x
    to the flow unchecked."""
    return tuple(p.values[::2 ** (p.level - level)]
                 for p in (problem.x, problem.driver_A, problem.qv_x))


def _spans(level):
    """(a, b) point ranges that cover the grid points 0..2^level with
    blocks of _SWEEP_BLOCK cells; the last also holds the point t = 1,
    which starts no cell."""
    n, size = 2**level, _SWEEP_BLOCK
    return [(a, min(a + size, n) + (a + size >= n)) for a in range(0, n, size)]


def _flow_at(problem, level, paths, a, b, y, rtol=RTOL):
    """(t, values): the times of the grid points a..b-1 of ``level`` and
    (phi, d_xi, d_tau, d_tt) there, at (t, y, x(t)), from one call of
    ``flow_derivatives`` at relative tolerance rtol.  One point (a cell
    of lag-1 Tonelli) goes as plain floats, the flow's float path, a block
    as arrays.  The times k 2^-level are exact and x is a SampledPath's
    (``_paths``), so y, the block of B, is the one input checked here."""
    ds = 2.0 ** -level
    if b - a == 1:
        t, y, x = a * ds, float(y[0]), float(paths[0][a])
    else:
        t, x = np.arange(a, b, dtype=np.float64) * ds, paths[0][a:b]
    if not _all_finite(y):
        raise FlowIntegrationError("flow inputs tau, xi and t must be finite")
    return t, flow_derivatives(problem.field, t, y, x, rtol)


def _block(problem, level, paths, a, b, y, cells, term, rtol=RTOL):
    """(phi, cells): the flow at the grid points a..b-1 of ``level``, at
    (t, y, x(t)) (``_flow_at``), and the left-point contributions of the
    cells starting there (all but t = 1).  A block of several cells writes
    them to ``cells``, with ``term`` as scratch, both holding one entry
    per cell; one cell (lag-1 Tonelli) takes floats, and its contribution
    is a float.  ds is the constant 2^-level, and each cell takes b/phi_xi
    dA - phi_tau/phi_xi ds - 1/2 phi_tt/phi_xi d<x> in that order.  The
    drift is read at the cells' left points only, always on arrays (one
    cell's as 1-element arrays), and NumericalError raised when it is not
    finite there or, in a block of several cells, when a cell is not."""
    t, (phi, dxi, dtau, dtt) = _flow_at(problem, level, paths, a, b, y, rtol)
    _, Av, Qv = paths
    ds = 2.0 ** -level
    if b - a == 1:  # the cell a..a+1, which every grid point but t = 1 starts
        bv = _finite(NumericalError, _DRIFT_NOT_FINITE, problem.drift,
                     np.full(1, t), np.full(1, phi)).item()
        dA, dQ = float(Av[a + 1] - Av[a]), float(Qv[a + 1] - Qv[a])
        return phi, _cell_terms(bv, dxi, dtau, dtt, dA, dQ, ds, None, None)
    c = min(b, Av.shape[0] - 1)
    m = c - a  # the values at the cells' left points; a float stays as it is
    dxi, dtau, dtt = (v if isinstance(v, float) else v[:m] for v in (dxi, dtau, dtt))
    bvals = _finite(NumericalError, _DRIFT_NOT_FINITE, problem.drift, t[:m], phi[:m])
    return phi, _finite(NumericalError, _SUM_NOT_FINITE, _cell_terms, bvals, dxi, dtau, dtt,
                        _increments(Av, a, c), _increments(Qv, a, c), ds, cells, term)


_DRIFT_NOT_FINITE = "drift b is not finite at the flow values"
_SUM_NOT_FINITE = "z0 + S(B) is not finite: the sums for B overflow"


def _cell_terms(bv, dxi, dtau, dtt, dA, dQ, ds, cells, term):
    """b/phi_xi dA - phi_tau/phi_xi ds - 1/2 phi_tt/phi_xi d<x>, per cell,
    in that order: written to ``cells``, with ``term`` as scratch, for
    arrays, or a float when both are None and every input is a float.  A
    time-free flow's d_tau is the float +0.0, whose term -0.0 adds nothing
    (x + -0.0 is x), so it is left out."""
    div, neg, mul = _FLOAT_OPS if cells is None else _ARRAY_OPS
    out = div(bv, dxi, cells)
    out *= dA
    if not (isinstance(dtau, float) and dtau == 0.0 and math.copysign(1.0, dtau) > 0.0):
        part = neg(dtau, term)
        part /= dxi
        part *= ds
        out += part
    part = mul(dtt, -0.5, term)
    part /= dxi
    part *= dQ
    out += part
    return out


# _cell_terms' operations that make a new value, into the array given last,
# or on plain floats (which ignore it)
_ARRAY_OPS = (np.divide, np.negative, np.multiply)
_FLOAT_OPS = (lambda a, b, _: a / b, lambda a, _: -a, lambda a, b, _: a * b)


def _increments(values, a, c):
    """values[a+1:c+1] - values[a:c], as np.diff takes them."""
    return np.subtract(values[a + 1:c + 1], values[a:c])


def _solve_picard(problem, level, paths, initial=None):
    """Sweeps from z0 or ``initial`` on the grid of ``level``, reading the
    problem through ``_paths``; returns the arrays (B, phi) and the defect.

    The blocks of ``_spans`` are windows, solved one after another: cell j
    reads B only at its left point, so window w, which covers the cells
    a..c-1, depends on the windows before it only through B at its first
    point a.  That value is fixed at z0 + S_a from the converged cells of
    the windows before, and ``_solve_window`` sweeps the window to a
    defect <= PICARD_TOL from the constant B_a, or from ``initial``
    shifted by a constant to start there (the first window takes
    ``initial`` as it is).  S carries the running sum from window to
    window in the order of one cumulative sum over the grid, so each
    window's defect is the full-grid defect on its points, and the
    returned defect, their maximum, is the full-grid defect.  Only B and
    phi live at grid size; a grid up to level 13 is one window, whose
    arrays are returned as they are.  Each window makes at most
    MAX_PICARD_ITER + 1 sweeps.
    """
    n = 2**level
    if initial is not None:
        initial = np.asarray(getattr(initial, "values", initial), dtype=np.float64)
        if initial.shape != (n + 1,):
            raise DomainError("initial iterate must live on the working grid")
        if not np.all(np.isfinite(initial)):
            raise DomainError("initial iterate must be finite")
    exact = getattr(problem.field, "exact_flow", None) is not None
    spans = _spans(level)
    trace, defect = [], 0.0
    B = np.empty(n + 1)  # each window's first iterate, then the solution
    phi = np.empty(n + 1) if len(spans) > 1 else None
    start, running = problem.z0, 0.0  # B and S at the window's first point
    for a, b in spans:
        c = min(b, n)
        Bw = B[a:c + 1]
        if initial is None:
            Bw.fill(start)
        else:
            Bw[:] = initial[a:c + 1]
            if a:
                Bw -= initial[a]
                Bw += start
        Bw, phiw, S, d = _solve_window(problem, level, paths, a, b, Bw, running, exact, trace)
        defect = max(defect, d)
        if phi is None:
            return Bw, phiw, defect
        B[a:b], phi[a:b] = Bw[:b - a], phiw
        running = S[-1]
        start = running + problem.z0  # the Picard iterate at point c: defect 0 there
        Bw = phiw = S = None  # freed before the next window allocates its own
    return B, phi, defect


def _solve_window(problem, level, paths, a, b, B, running, exact, trace):
    """Sweep the window of cells a..c-1, c = min(b, 2^level), from its
    first iterate B at the points a..c, with ``running`` = S_a, so that
    every sweep's iterate starts at z0 + S_a; returns (B, phi, S, defect)
    of the sweep that stops, with phi at the points a..b-1 and S at a..c.
    Each sweep appends its defect over the points a..b-1 (point c, if b
    excludes it, is the next window's fixed start) to ``trace``.

    Sweep k solves the flow at rtol = min(F, max(RTOL, F defect_{k-1}))
    with F = _FORCING (inexact Newton; the flow scales its absolute
    tolerance alike), so the window's first sweep runs at F.  Only a sweep
    at full tolerance may stop, so B has a full-accuracy defect <=
    PICARD_TOL; that sweep's flow values phi(t, B(t), x(t)) and its defect
    are returned for reuse.  A field with a closed-form flow ignores the
    tolerance, so there every sweep is at full accuracy and any sweep may
    stop.  The first sweep moves B to the Picard iterate z0 + S(B), every
    later one to the Newton iterate of ``_newton_step``, built from this
    sweep's cells and the previous one's.  The window stalls when a sweep
    from its eighth on leaves the defect no lower than both of the two
    before it: a Newton step may raise the defect once, and the first
    full-tolerance sweep after loose ones may read a larger defect.  The
    window may make MAX_PICARD_ITER + 1 sweeps, and the Picard iterate
    must stay finite (NumericalError).
    """
    z0, m, p = problem.z0, B.shape[0] - 1, b - a
    first, defect = len(trace), np.inf
    where = "" if p == 2**level + 1 else f" in the window of cells {a}..{a + m - 1}"
    B_prev = cells_prev = None
    term = np.empty(m + 1)  # scratch for every sweep's cell terms and defect
    for _ in range(MAX_PICARD_ITER + 1):
        rtol = min(_FORCING, max(RTOL, _FORCING * defect))
        run_cells = np.empty(m + 1)  # S_a, then the window's cells
        run_cells[0] = running
        cells = run_cells[1:]
        phi, _ = _block(problem, level, paths, a, b, B[:p], cells, term[:m], rtol)
        S = _finite(NumericalError, _SUM_NOT_FINITE, np.cumsum, run_cells)
        defect = _sup_gap(B[:p], z0, S[:p], term[:p])
        trace.append(defect)
        if defect <= PICARD_TOL and (exact or rtol == RTOL):
            return B, phi, S, defect
        if len(trace) - first >= 8 and defect >= 0.9999 * max(trace[-3], trace[-2]):
            raise NumericalError(
                f"Picard iteration stalled at defect {defect:.3e}{where} "
                f"(tol {PICARD_TOL:.1e})",
                trace=trace,
            )
        phi = None  # not needed unless the sweep stops: free it before the next solve
        _finite(NumericalError, _SUM_NOT_FINITE, np.add, S, z0, S)  # z0 + S(B), in place
        if B_prev is not None:
            _newton_step(S, B, B_prev, cells, cells_prev)
        B, B_prev, cells_prev = S, B, cells
    k = len(trace) - first
    raise NumericalError(
        f"Picard did not reach defect {PICARD_TOL:.1e} in {k} "
        f"sweep{'s' * (k > 1)}{where} (last defect {trace[-1]:.3e})",
        trace=trace,
    )


def _sup_gap(u, z0, v, gap):
    """max |u - z0 - v|, computed in the scratch array ``gap``; NaN when
    any term is."""
    np.subtract(u, z0, out=gap)
    gap -= v
    return float(np.max(np.abs(gap, out=gap)))


def _newton_step(zS, B, B_prev, cells, cells_prev):
    """Turn the Picard iterate zS = z0 + S(B) into the causal Newton
    iterate, in place; B_prev and cells_prev are overwritten.

    Cell j reads B only at its left point, so the Jacobian of B -> S(B)
    is strictly lower triangular, its column j constant at c'_j, the slope
    of cell j's contribution in B_j.  With r = zS - B the Newton step is
    r + P, where P_0 = 0 and P_(k+1) = (1 + c'_k) P_k + c'_k r_k, so the
    Newton iterate is zS + P.  With g_k = prod_(j<k) (1 + c'_j),
    P_k = g_k sum_(j<k) c'_j r_j / g_(j+1): one cumprod and one cumsum,
    each in a fixed order.  c'_j is the secant of the last two sweeps,
    (c_j(B) - c_j(B_prev)) / (B_j - B_prev_j), so the step costs no flow
    solve.  Safeguards:

    * the secant is used only where |B_j - B_prev_j| > 1e-3 max |B - B_prev|,
      and c'_j = 0 (the Picard step) elsewhere: a loose sweep's noise over
      a tiny change of B is no slope;
    * c'_j is clipped to [-1/2, 1/2], which keeps 1 + c'_j in [1/2, 3/2]
      for the cumulative product below.  A clipped slope makes the step
      inexact but not unsafe: a secant of noise costs at most that much;
    * the cumulative product runs over blocks of _PRODUCT_BLOCK cells, so
      it stays within normal floats, and P is carried from block to block:
      over a whole fine grid the product of the factors can leave float
      range while P itself does not;
    * where the Newton iterate is not finite, zS stays the Picard iterate.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite check
        n = cells.shape[0]
        dB = np.subtract(B[:n], B_prev[:n], out=B_prev[:n])
        r = np.abs(dB)
        trusted = r > 1e-3 * r.max()
        slope = np.subtract(cells, cells_prev, out=cells_prev)
        np.divide(slope, dB, out=slope, where=trusted)
        slope[~trusted] = 0.0
        np.clip(slope, -0.5, 0.5, out=slope)
        np.subtract(zS[:n], B[:n], out=r)
        blocks = (-1, min(n, _PRODUCT_BLOCK))
        g = np.add(slope, 1.0, out=dB).reshape(blocks)
        np.cumprod(g, axis=1, out=g)
        P = np.multiply(slope, r, out=slope).reshape(blocks)  # P_1 .. P_n once done
        P /= g
        np.cumsum(P, axis=1, out=P)
        carry, carries = 0.0, []
        for g_end, P_end in zip(g[:, -1].tolist(), P[:, -1].tolist()):
            carries.append(carry)  # P at the block's first point
            carry = g_end * (carry + P_end)
        P += np.array(carries)[:, None]
        P *= g
        newton = P.reshape(-1)
        newton += zS[1:]
        if np.all(np.isfinite(newton)):
            zS[1:] = newton


def _solve_tonelli(problem, level, paths, tonelli_n):
    """The delayed iterate with lag m = 2^level / tonelli_n grid steps;
    returns (B, phi, 0.0) like ``_solve_picard`` (no defect).  B_j is z0
    plus the cells 0..j-m, walked once in pieces of min(m, _SWEEP_BLOCK)
    cells whose B the pieces before fixed: a piece keeps phi at its points
    and writes B one lag on from one cumulative sum over [running, cells],
    as a Picard window does.  The last m points start no cell that is read
    and get phi in pieces of at most _SWEEP_BLOCK points."""
    tonelli_n = _check_count(tonelli_n, "tonelli_n")
    if tonelli_n < 1 or 2**level % tonelli_n != 0:
        raise DomainError(
            f"tonelli delay 1/{tonelli_n} must divide the grid: "
            f"need tonelli_n | 2^{level}"
        )
    n, z0 = 2**level, problem.z0
    lag = n // tonelli_n
    size, read = min(lag, _SWEEP_BLOCK), n - lag + 1  # the sums read the cells 0..n-lag
    B, phi, running = np.full(n + 1, z0), np.empty(n + 1), 0.0  # running: sum of cells < a
    run_cells, term = np.empty(size + 1), np.empty(size)
    for a in range(0, read, size):
        b = min(a + size, read)
        if b - a == 1:  # a float, on the flow's float path
            phi[a], cell = _block(problem, level, paths, a, b, B[a:b], None, None)
            running += cell
            if not math.isfinite(z0 + running):
                raise NumericalError(_SUM_NOT_FINITE)
            B[a + lag] = z0 + running
            continue
        run_cells[0], k = running, b - a
        phi[a:b], _ = _block(problem, level, paths, a, b, B[a:b], run_cells[1:k + 1], term[:k])
        S = _finite(NumericalError, _SUM_NOT_FINITE, np.cumsum, run_cells[:k + 1])
        _finite(NumericalError, _SUM_NOT_FINITE, np.add, S[1:], z0, B[a + lag:b + lag])
        running = S[-1]
    for a in range(read, n + 1, _SWEEP_BLOCK):
        b = min(a + _SWEEP_BLOCK, n + 1)
        phi[a:b] = _flow_at(problem, level, paths, a, b, B[a:b])[1][0]
    return B, phi, 0.0


def solve_ide(problem, level=None, *, scheme="picard", tonelli_n=64, initial=None):
    """Solve the pathwise Ito equation for B and assemble z = phi(t, B, x).

    ``scheme`` is "picard" or "tonelli" (with delay 1/``tonelli_n``, which
    must divide 2^level).  Both schemes solve the flow in blocks of at most
    8192 cells, for any lag.  The "picard" scheme solves blocks as windows,
    one after another, each from the end value of the windows before; it makes one
    flow solve per sweep of a window: a Picard step first, then causal
    Newton steps whose slopes are secants of the last two sweeps (see the
    module docstring).  A window stops at a fixed-point defect (sup over
    its grid points) <= PICARD_TOL.  The solve raises NumericalError if a
    window stalls or has made MAX_PICARD_ITER + 1 sweeps (the error's
    ``trace`` lists every sweep's defect, window after window), or when
    z0 + S(B) overflows.
    ``initial``, finite and on the working grid, warm-starts it (e.g. with
    the B for nearby parameters; each window after the first takes it
    shifted by a constant to start at that window's first value), which,
    the fixed point being unique, only affects the sweep count.  The
    Tonelli scheme is defect-free by construction for its own delayed
    equation.

    ``residual_report`` carries the fixed-point defect of the B-solve over
    the whole grid, the largest of its windows';
    ``follmer_defect`` is the sup over the grid of

        |z(t) - z0 - sum sigma(s, z) dx - sum b(s, z) dA|,

    a finite-level diagnostic (the left sums converge to the integrals
    only in the limit, so this is reported, not asserted small); it reads
    sigma and b at the left points only, NumericalError if not finite.
    """
    level = problem.working_level(level)
    paths = _paths(problem, level)
    if scheme == "picard":
        B, phi, resid = _solve_picard(problem, level, paths, initial)
    elif scheme == "tonelli":
        B, phi, resid = _solve_tonelli(problem, level, paths, tonelli_n)
    else:
        raise DomainError(f"scheme must be 'picard' or 'tonelli', got {scheme!r}")
    B = SampledPath(level, B)  # a copy: the raw B is freed before z is copied
    z = SampledPath(level, phi)
    phi = None
    follmer_defect = _follmer_defect(problem, level, paths, z.values)
    return IDESolution(B=B, z=z, residual_report=resid, follmer_defect=follmer_defect)


def _follmer_defect(problem, level, paths, z):
    """sup |z(t) - z0 - sum sigma(s, z) dx - sum b(s, z) dA| over the grid,
    a block of ``_spans`` at a time: each block's left sums continue the
    running sum from its first cell, in the order of one cumulative sum
    over the grid.  The sums read no value at t = 1."""
    xv, Av, _ = paths
    h = 2.0 ** -level
    n = z.shape[0] - 1
    running, gaps = 0.0, [abs(z[0] - problem.z0)]
    for a, b in _spans(level):
        c = min(b, n)
        t, zl = np.arange(a, c, dtype=np.float64) * h, z[a:c]
        sig = _finite(NumericalError, "sigma is not finite at the solution", problem.field.sigma, t, zl)
        bv = _finite(NumericalError, "drift b is not finite at the solution", problem.drift, t, zl)
        sums = sig * _increments(xv, a, c) + bv * _increments(Av, a, c)
        sums[0] += running
        np.cumsum(sums, out=sums)
        running = sums[-1]
        gaps.append(np.max(np.abs(z[a + 1:c + 1] - problem.z0 - sums)))
    return float(np.max(gaps))


def verify_local_qv(z, field, qv_x, n):
    """Sup defect between <z>^n and the state-dependent reference

        sum_{s <= t} sigma(s, z(s))^2 * (QV mass of x at s).

    Masses follow the same sum-over-s<=t convention as the estimator, so
    for sigma constant and an empirical qv_x of the driving path the
    defect vanishes identically; for preset problems it shrinks with n.
    Raises DomainError when sigma is not finite at a value of z.
    """
    n = _check_level(n)
    if qv_x.level < n or z.level < n:
        raise DomainError(f"need curve and path at level >= {n}")
    zn = z.restrict(n)
    tgrid = grid_points(n)
    sig2 = _finite(DomainError, "sigma is not finite at a value of z",
                   field.sigma, tgrid, zn.values) ** 2
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
