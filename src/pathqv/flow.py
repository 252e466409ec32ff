"""The one-parameter flow of  u' = sigma(tau, u)  and its sensitivities.

``flow(field, tau, xi, t)`` is the value at time t of the solution
starting at xi, with the first argument of sigma frozen at tau.  The
Doss-Sussmann representation of pathwise Ito equations consumes the flow
together with three partial derivatives:

* d/dxi   solves the linear variational equation  v' = sigma_xi(tau, u) v,
  v(0) = 1, hence stays strictly positive (it is an exponential).  tau
  is frozen, so the equation is autonomous in t and v is algebraic:
  d/dxi = sigma(tau, phi) / sigma(tau, xi), the reverse-time identity;
* d/dtau  solves  w' = sigma_t(tau, u) + sigma_xi(tau, u) w,  w(0) = 0,
  and vanishes for a time-free field (sigma_t = 0);
* d2/dt2  is algebraic:  sigma_xi(tau, u) sigma(tau, u)  composed with the
  flow itself -- never a numerical second difference.

A field that supplies ``exact_flow`` (the three built-in fields below
do) is evaluated in closed form.  Every other field goes through an
embedded Dormand-Prince 5(4) pair with adaptive steps, run on the
time-rescaled system du/ds = t * sigma(tau, u) over s in [0, 1] so that
a whole batch of points with different horizons (including negative
ones: that is the reversed equation) shares one vectorized solve.  It
integrates only the rows it needs: u alone for ``flow`` and for a
time-free field (one declaring ``time_free``), whose d/dxi is
the quotient above; (u, w) for any other field; and v as well when a
point of the batch starts so near a rest point of sigma that the
quotient would lose accuracy (see ``_solve``).  One step controller
runs every such solve on a list of rows, each a plain float for a single
point (inputs of size 1, any shape, which saves numpy's per-call
overhead in strictly sequential solvers such as lag-1 Tonelli) and a
1-D array for a batch, with the same operations in the same order, so
a point alone has the bits of its copies in a batch of copies.  Step
control uses the max norm over the batch, so a DP45 value moves with
the other points of its batch.  For 4097 points from numpy's
default_rng(0) (tau, xi and t uniform on [0, 1), [-3, 3) and [-2, 2),
drawn in that order), phi alone and in the batch differ by up to 1.1e-10
(2.9e-11 relative to 1 + |phi|) for 1 + 0.3 sin(xi) and by up to 3.1e-11
(2e-12 relative) for sqrt(1 + xi^2).  Closed-form values are
bit-identical alone and in any batch.  The tests cross-check the closed
forms against DP45.

Every value comes from one inner solve (``_integrate``), closed form and
DP45 alike.  It takes points that are already checked, floats or 1-D
arrays of one shape, and checks each output once: a phi, d_xi, d_tau or
d_tt that is not finite, d_xi <= 0, or an overflow anywhere in the
solve raises FlowIntegrationError with numpy's warnings off.  A value
that is one number for a whole batch (a closed form's d_xi = 1, a
time-free field's d_tau = 0) stays a float there.  The two entry points
put one guard (``_checked``) around it: they check tau, xi and t for
finiteness, broadcast them, and hand out fresh arrays of the inputs'
shape, never sharing memory with an input or with each other.  A
pathwise solve (``ide``) calls the inner solve through
``flow_derivatives``, which checks no input, once per block, having
checked its own inputs once per solve.

``flow_identity_defects`` checks a field's flow against the semigroup,
reverse-time and second-order identities and d_xi against finite
differences, on a fixed (tau, xi, s, t) sample box in seven batched
solves; ``pathqv flow-check`` prints its report against FLOW_CHECKS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FlowIntegrationError, _finite

# Dormand-Prince 5(4) tableau (classic ode45 pair, FSAL).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# The nonzero entries as (coefficient, stage) pairs, as ``_combine`` reads them.
_STAGE_TERMS = tuple(tuple((a, j) for j, a in enumerate(row) if a) for row in _A)
_ERR_TERMS = tuple((b5 - b4, j) for j, (b5, b4) in enumerate(zip(_B5, _B4)) if b5 != b4)

#: Default integration tolerances (a notch below the advertised 1e-10 so
#: accumulated global error still meets it on [0, 1]-sized horizons).
RTOL = 1e-11
ATOL = 1e-13
_MAX_STEPS = 100000


def _read_only(*arrays):
    """The arrays with writing turned off: construction's sample points are
    shared, so a callable that writes into its arguments must not change
    them for the next field."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# field construction's (t, xi) sample box, and the step of its central differences
_SAMPLE_BOX = _read_only(*np.meshgrid([0.0, 0.25, 0.5, 0.75, 1.0],
                                      [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0]))
_H = 1e-5


def _construction_slabs():
    """Copies of the sample box stacked on a new first axis, read-only:
    sigma's (t, xi) at the xi-shifts and at the t-shifts of the box by
    +-_H; exact_flow's (tau, xi, t) at the box at t = 0, then for t = -0.5
    and 0.5 at the box and its t-, xi- and tau-shifts; and exact_flow's
    (xi, 1, 0) at t = 0."""
    tt, xx = _SAMPLE_BOX
    pair = np.array([_H, -_H])[:, None, None]
    # exact_flow's (tau, xi, t) shifts at each t: none, t +- _H, xi +- _H, tau +- _H
    kinds = [(0.0, 0.0, 0.0), (0.0, 0.0, _H), (0.0, 0.0, -_H), (0.0, _H, 0.0),
             (0.0, -_H, 0.0), (_H, 0.0, 0.0), (-_H, 0.0, 0.0)]
    times = np.repeat([0.0, -0.5, 0.5], [1, 7, 7])[:, None, None]
    d_tau, d_xi, d_t = np.array(kinds[:1] + kinds * 2).T[:, :, None, None]
    flow_t = np.broadcast_to(times + d_t, (15, *tt.shape)).copy()
    return (_read_only(np.stack((tt, tt)), xx + pair), _read_only(tt + pair, np.stack((xx, xx))),
            _read_only(tt + d_tau, xx + d_xi, flow_t),
            *_read_only(np.stack(np.broadcast_arrays(xx, 1.0, 0.0))))


_XI_SHIFTS, _T_SHIFTS, _FLOW_SLABS, _AT_ZERO = _construction_slabs()


@dataclass(frozen=True)
class VolatilityField:
    """sigma(t, xi) together with its first partial derivatives, and
    whether it is declared ``time_free`` (sigma_t = 0).

    ``sigma``, ``sigma_t`` and ``sigma_xi`` take (t, xi), numbers or numpy
    arrays, and may return anything that broadcasts against the joint
    shape of their arguments, e.g. a scalar when the formula ignores an
    argument: numpy broadcasting absorbs it in all arithmetic, and code
    that needs a full-shape array pads with ``eval_on``.  Construction
    cross-checks each derivative against a central difference (h = 1e-5,
    tolerance 1e-4 relative to 1 + |derivative|) on a fixed sample box,
    where all three must be finite, and sigma also at the difference
    points.  A field that declares ``time_free`` must have |sigma_t| <=
    1e-9 on the box; the flow then takes d/dtau = 0 and does not
    integrate it.

    ``exact_flow(tau, xi, t)``, optional, returns the flow in closed form
    as (phi, d_xi, d_tau): phi(tau, xi, t), its derivative in xi and its
    derivative in tau, broadcasting over arrays.  When it is given the
    flow functions call it instead of integrating (a Picard sweep's
    loose tolerance is then unused).  Construction checks it on the same
    sample box:
    phi = xi, d_xi = 1 and d_tau = 0 at t = 0, and at t = +-0.5 a
    central difference in t matches sigma(tau, phi) while d_xi and d_tau
    match central differences of phi, to the tolerance above.

    Construction evaluates each callable on copies of the sample box and
    of its difference shifts stacked on a new first axis, in few calls:
    sigma on the box, on its two xi-shifts and on its two t-shifts, and at
    the flow values; sigma_t and sigma_xi on the box; exact_flow once, on
    all its 15 slabs.  That is the elementwise contract that broadcasting
    already implies.
    """

    sigma: callable
    sigma_t: callable
    sigma_xi: callable
    time_free: bool = False
    name: str = ""
    exact_flow: callable = None

    def __post_init__(self):
        tol = 1e-4
        # NaN fails every comparison below, so non-finite values go first
        sample_box_values(self.sigma, "sigma")
        d_xi = sample_box_values(self.sigma_xi, "sigma_xi")
        d_t = sample_box_values(self.sigma_t, "sigma_t")
        for name, d, shifts in (("sigma_xi", d_xi, _XI_SHIFTS), ("sigma_t", d_t, _T_SHIFTS)):
            message = f"{name} disagrees with finite differences of sigma"  # or is not finite
            up, dn = _pair(_finite(DomainError, message, self.sigma, *shifts))
            _require_close((up - dn) / (2 * _H), d, tol, message)
        if self.time_free and np.max(np.abs(d_t)) > 1e-9:
            raise DomainError("a field declared time_free has sigma_t != 0 at sampled points")
        if self.exact_flow is not None:
            self._check_exact_flow(tol)

    def _check_exact_flow(self, tol):
        tau = _FLOW_SLABS[0]
        values = _finite(DomainError, "exact_flow is not finite at sampled points",
                         lambda: np.broadcast_arrays(tau, *self.exact_flow(*_FLOW_SLABS))[1:])
        _require_close(values[:, 0], _AT_ZERO, tol, "exact_flow is not (xi, 1, 0) at t = 0")
        phi, d_xi, d_tau = values
        # per t = -0.5, 0.5: phi at the box, then at its t-, xi- and tau-shifts in pairs
        shifted = phi[1:].reshape(2, 7, *tau.shape[1:])
        fd = (shifted[:, 1::2] - shifted[:, 2::2]) / (2 * _H)  # in t, xi and tau
        message = "exact_flow does not solve u' = sigma(tau, u)"
        sig = _pair(_finite(DomainError, message, self.sigma, _XI_SHIFTS[0], shifted[:, 0]))
        # per t: fd_t against sigma(tau, phi), d_xi and d_tau against fd_xi and fd_tau
        got = np.stack((fd[:, 0], d_xi[1::7], d_tau[1::7]), axis=1)
        want = np.concatenate((sig[:, None], fd[:, 1:]), axis=1)
        _require_close(got, want, tol, *(message,
                                         "exact_flow d_xi disagrees with finite differences",
                                         "exact_flow d_tau disagrees with finite differences") * 2)


def _pair(values):
    """A value of sigma on two stacked copies of the box, padded to their shape."""
    return np.broadcast_to(values, _XI_SHIFTS[0].shape)


def _require_close(got, want, tol, *messages):
    """DomainError unless |got - want| <= tol (1 + |want|) everywhere (NaN
    fails).  got and want stack one check per message on their first axis,
    and the first check that fails names the error."""
    ok = np.abs(got - want) <= tol * (1.0 + np.abs(want))
    if not ok.all():
        failed = ~ok.reshape(len(messages), -1).all(axis=1)
        raise DomainError(messages[int(np.argmax(failed))])


def _all_finite(values):
    """Whether every value of an array, or a float, is finite."""
    if isinstance(values, float):
        return math.isfinite(values)
    return bool(np.isfinite(values).all())


def _all_positive(values):
    """Whether every value of an array, or a float, is > 0."""
    if isinstance(values, float):
        return values > 0.0
    return bool((values > 0.0).all())


def _batch_value(v, shape):
    """A value of a batch solve as a float, when it is one number for the
    whole batch (such as a closed form's d_xi = 1), else as a float64 array
    of the batch's ``shape``, padded when a callable returned less."""
    if type(v) is np.ndarray and v.shape == shape and v.dtype == np.float64:
        return v
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        return float(v)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def _checked(field, tau, xi, horizon, derivatives=True):
    """``_integrate`` behind the checks of the public entry points, ``flow``
    and ``flow_with_derivatives``.  ``_points`` turns the inputs into
    floats or 1-D arrays, each checked once here for finiteness, and the
    values come back as fresh, writeable arrays of the inputs' broadcast
    shape (numpy scalars when the inputs are all scalars): each value is
    copied, a constant padded, so no output shares memory with an input
    or with another output.

    Raises FlowIntegrationError when tau, xi or t is not finite, and
    whenever ``_integrate`` does.
    """
    tau, xi, horizon, shape, one = _points(tau, xi, horizon)
    if not (_all_finite(tau) and _all_finite(xi) and _all_finite(horizon)):
        raise FlowIntegrationError("flow inputs tau, xi and t must be finite")
    out = _integrate(field, tau, xi, horizon, RTOL, derivatives)
    if one:
        return tuple(np.asarray(v).reshape(shape)[()] for v in out)
    return tuple(np.full(xi.shape, v, dtype=np.float64).reshape(shape) for v in out)


def _integrate(field, tau, xi, horizon, rtol=RTOL, derivatives=True):
    """(phi, d_xi, d_tau, d_tt), or (phi,) alone unless ``derivatives``, at
    points that are already checked: the inner solve of the flow, closed
    form and DP45 alike, which ``_checked`` and ``flow_derivatives``
    call.  tau, xi and horizon are finite floats (one point: the
    values are floats) or finite 1-D float64 arrays of one shape (a
    batch: each value is an array of that shape, or a float when it is one
    number for the whole batch, such as a closed form's d_xi = 1, which
    numpy broadcasting absorbs; the arrays may be the closed form's own
    or read-only views).

    Raises FlowIntegrationError when a value is not finite, each checked
    once, and unless d_xi > 0, as it is exactly: the variational solution
    is an exponential, and sigma(tau, phi) has the sign of sigma(tau, xi),
    since no flow crosses a rest point.  numpy's warnings are off, so an
    overflow anywhere in the solve ends in one of these checks or in
    ``_dp45``'s guard; a field callable on Python floats may raise
    OverflowError itself (as math.exp does), which becomes a
    FlowIntegrationError too.
    """
    one = isinstance(xi, float)
    with np.errstate(all="ignore"):
        try:
            out = _solve(field, tau, xi, horizon, one, rtol, derivatives)
        except OverflowError as exc:
            raise FlowIntegrationError("overflow during flow integration") from exc
    if not one:
        out = tuple(_batch_value(v, xi.shape) for v in out)
    for v, what in zip(out, _OUTPUTS):  # even a zero horizon can overflow d_tt
        if not _all_finite(v):
            raise FlowIntegrationError(f"{what} is not finite at the flow value")
    if derivatives and not _all_positive(out[1]):
        raise FlowIntegrationError("computed d_xi <= 0; integration not trustworthy")
    return out


_OUTPUTS = ("phi", "d_xi", "d_tau", "d_tt = sigma_xi sigma")


def _solve(field, tau, xi, horizon, one, rtol, derivatives):
    """``_integrate``'s values, unchecked: floats when ``one``, else each a
    1-D array of the points' shape or a value that broadcasts to it (a
    closed form's values as it returns them).

    A field's ``exact_flow`` is used when present.  Otherwise ``_dp45``
    integrates the row u, u' = sigma(tau, u), and the sensitivities cost
    as little as they can:

    * d_xi = sigma(tau, phi) / sigma(tau, xi).  tau is frozen, so the
      equation is autonomous and this is its reverse-time identity.  The
      quotient's relative error is about the absolute error of phi over
      the distance to the nearest rest point, ~ |sigma / sigma_xi|, and
      that absolute error is controlled on the scale |xi| + ATOL / RTOL.
      So if at any point of the batch |sigma(tau, xi)| is not above
      |sigma_xi(tau, xi)| (|xi| + ATOL / RTOL) (or either is not finite),
      the whole batch integrates the variational row v instead:
      v' = sigma_xi(tau, u) v, v(0) = 1.
    * d_tau is the row w, w' = sigma_t(tau, u) + sigma_xi(tau, u) w,
      w(0) = 0, except for a time-free field: one that declares
      ``time_free`` has d_tau = 0 (a duck-typed field without the
      attribute integrates w).
    * d_tt = sigma_xi(tau, phi) sigma(tau, phi), reusing the quotient's
      sigma(tau, phi).

    So a time-free field away from its rest points integrates u alone,
    with one sigma call per stage, and so does the flow value alone.  One
    point and a batch follow the same rule.
    """
    def at(fn, u):  # fn(tau, u): a float for one point, else a float64 array
        return float(fn(tau, u)) if one else np.asarray(fn(tau, u), dtype=np.float64)

    ops = _FLOATS if one else _ARRAYS
    exact_flow = getattr(field, "exact_flow", None)
    if exact_flow is not None:
        out = exact_flow(tau, xi, horizon)
        if one:
            out = tuple(map(float, out))
        if not derivatives:
            return out[:1]
        return (*out, at(field.sigma_xi, out[0]) * at(field.sigma, out[0]))
    if not derivatives:
        return (_dp45_rows(field, tau, xi, horizon, "u", ops, rtol)[0],)
    sig0 = at(field.sigma, xi)
    error_scale = abs(at(field.sigma_xi, xi)) * (abs(xi) + ATOL / RTOL)
    keep_v = not np.all(abs(sig0) > error_scale)
    keep_w = not getattr(field, "time_free", False)
    rows = "u" + "v" * keep_v + "w" * keep_w
    y = _dp45_rows(field, tau, xi, horizon, rows, ops, rtol)
    phi = y[0]
    sig_phi = at(field.sigma, phi)
    d_xi = y[1] if keep_v else sig_phi / sig0
    d_tau = y[-1] if keep_w else 0.0
    return phi, d_xi, d_tau, at(field.sigma_xi, phi) * sig_phi


def _points(tau, xi, horizon):
    """(tau, xi, horizon, shape, one): the points broadcast to ``shape``
    and flattened, or, when the inputs hold one point (any shapes of size
    1, ``one``), plain floats, which skip numpy's per-call overhead in the
    strictly sequential solvers (lag-1 Tonelli)."""
    points = [np.asarray(v, dtype=np.float64) for v in (tau, xi, horizon)]
    if all(p.size == 1 for p in points):
        return (*(float(p.flat[0]) for p in points), (1,) * max(p.ndim for p in points), True)
    tau, xi, horizon = np.broadcast_arrays(*points)
    return tau.reshape(-1), xi.reshape(-1), horizon.reshape(-1), tau.shape, False


def _dp45_rows(field, tau, xi, scale, rows, ops, rtol):
    """The ``rows`` ("u", then "v" and/or "w") at time ``scale``, from xi,
    1 and 0: a list with one entry per row, a float for one point and a
    1-D array for a batch, as tau, xi and scale are.  ``ops`` is
    ``_FLOATS`` or ``_ARRAYS``.  The absolute tolerance scales with
    ``rtol``: ATOL * (rtol / RTOL)."""
    zero = 0.0 * scale + 0.0  # 0.0, or fresh zeros for a batch
    start = {"u": xi - zero, "v": zero + 1.0, "w": zero}  # xi - 0.0 keeps xi's bits
    y = [start[r] for r in rows]
    if np.any(scale):
        rhs = _rhs(field, tau, scale, rows, ops[0])
        y = _dp45(rhs, y, ops, rtol, ATOL * (rtol / RTOL))
    return y


def _dp45(rhs, y, ops, rtol, atol):
    """Dormand-Prince 5(4) on the rescaled time s in [0, 1] from state y,
    a list of rows; ``rhs(y)`` is its derivative.  Raises
    FlowIntegrationError on a non-finite error, a step below 1e-14 or more
    than _MAX_STEPS steps.
    """
    s = 0.0
    h = 0.01
    k = [rhs(y)] * 7  # a stage is read only after it is computed
    steps = 0
    while s < 1.0:
        h = min(h, 1.0 - s)
        for i in range(1, 7):
            y5 = _combine(y, h, _STAGE_TERMS[i], k)
            k[i] = rhs(y5)
        # the last stage sits at the fifth-order solution y5, so its
        # derivative starts the next step (FSAL)
        err = _norm(y, y5, _combine(None, h, _ERR_TERMS, k), ops, rtol, atol)
        if not math.isfinite(err):
            raise FlowIntegrationError("non-finite state during flow integration")
        if err <= 1.0:
            s += h
            y = y5
            k[0] = k[6]
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise FlowIntegrationError(
                f"flow step size underflow at s={s:.6f} (pathological field?)"
            )
        steps += 1
        if steps > _MAX_STEPS:
            raise FlowIntegrationError(f"flow exceeded {_MAX_STEPS} steps")
    return y


def _rhs(field, tau, scale, rows, value):
    """The derivative of the ``rows`` of the time-rescaled system:
    u' = scale sigma, v' = scale sigma_xi v, w' = scale (sigma_t +
    sigma_xi w).  ``value`` turns a field's output into a float or an
    array."""
    sigma, sigma_t, sigma_xi = field.sigma, field.sigma_t, field.sigma_xi
    v, w = "v" in rows, "w" in rows

    def rhs(y):
        u = y[0]
        out = [scale * value(sigma(tau, u))]
        if v or w:
            s_xi = value(sigma_xi(tau, u))
            if v:
                out.append(scale * s_xi * y[1])
            if w:
                out.append(scale * (value(sigma_t(tau, u)) + s_xi * y[-1]))
        return out

    return rhs


def _combine(y, h, terms, k):
    """y + h sum a k[j] over the (a, j) ``terms``, row by row (y None for
    zero): the stages in order, then y, with each h a formed once."""
    (c0, k0), *terms = [(h * a, k[j]) for a, j in terms]
    out = []
    for r, acc in enumerate(k0):
        acc = acc * c0  # a fresh row, so += below is in place for a batch
        for c, kj in terms:
            acc += c * kj[r]
        if y is not None:
            acc += y[r]
        out.append(acc)
    return out


def _norm(y, y5, e, ops, rtol, atol):
    """The largest |e| / (atol + rtol max(|y|, |y5|)) over rows and
    points, NaN when any term is; overwrites e.  ``ops`` supplies the
    NaN-keeping elementwise max (into its first argument for a batch) and
    the largest |r| of a row as a float."""
    _, maximum, largest = ops
    err = 0.0
    for y_r, y5_r, e_r in zip(y, y5, e):
        tol = maximum(abs(y_r), abs(y5_r))
        tol *= rtol
        tol += atol
        e_r /= tol  # in place for a batch; |e / tol| = |e| / tol, as tol > 0
        r = largest(e_r)
        if not r <= err:  # unlike max(), keeps a NaN
            err = r
    return err


# What a point and a batch do differently, as their types force: turn a
# field's value into a float or an array, and take maxima (NaN-keeping;
# in place for a batch, as each batch-sized temporary freed at once can
# cost fresh pages on the next allocation).
_FLOATS = (float, lambda a, b: a if a >= b or a != a else b, abs)
_ARRAYS = (lambda x: np.asarray(x, dtype=np.float64),
           lambda a, b: np.maximum(a, b, out=a),
           lambda r: float(np.abs(r, out=r).max()))


def flow(field, tau, xi, t):
    """phi(tau, xi, t): the flow value alone (broadcasts over arrays); a
    field without ``exact_flow`` integrates u alone."""
    phi = _checked(field, tau, xi, t, derivatives=False)[0]
    return float(phi) if np.ndim(phi) == 0 else phi


def flow_with_derivatives(field, tau, xi, t):
    """(phi, d_xi, d_tau, d_tt), each with the broadcast shape of the inputs
    (numpy scalars when they are all scalars).  Raises FlowIntegrationError
    when an input or a value is not finite and unless d_xi > 0 (see
    ``_integrate``)."""
    return _checked(field, tau, xi, t)


def flow_derivatives(field, tau, xi, t, rtol=RTOL):
    """(phi, d_xi, d_tau, d_tt) at rtol, ``_integrate``'s values at points
    the caller has checked: finite floats, or finite 1-D float64 arrays of
    one shape.  Each value is checked, the inputs are not, and no constant
    is padded or array copied.  Not exported: the blocks of a pathwise
    solve (``ide``) call it, having checked their inputs once per solve."""
    return _integrate(field, tau, xi, t, rtol)


#: The identity suite's checks and their tolerances, in report order.
FLOW_CHECKS = (
    ("semigroup", 1e-8),
    ("reverse-time identity", 1e-7),
    ("second-order identity", 1e-5),
    ("d_xi vs finite differences", 1e-5),
)

# fixed sample box of the identity suite: tau, xi, s, t
_BOX = (
    np.array([0.0, 0.3, 0.7, 1.0]),
    np.array([-1.5, -0.4, 0.2, 1.1]),
    np.array([-0.6, 0.25, 0.5]),
    np.array([-0.5, 0.3, 0.8]),
)


def flow_identity_defects(field):
    """Worst defect of each FLOW_CHECKS identity over a fixed sample box.

    Returns {name: defect}.  The identities, at every (tau, xi, s, t):

    * semigroup:  phi(phi(xi, s), t) = phi(xi, s + t);
    * reverse time:  sigma(phi(xi, -t)) = phi_xi(xi, -t) sigma(xi);
    * second order:  phi_xixi sig^2 - 2 phi_xit sig + phi_tt (all at -t)
      = -phi_xi(xi, -t) phi_tt(phi(xi, -t), t), with phi_xixi and phi_xit
      central differences of step h = 1e-4 in xi;
    * d_xi against the central difference of phi.

    The whole box goes through seven batched flow solves.  For a DP45
    field whose batch keeps away from rest points the reverse-time
    identity holds by construction, since d_xi is computed from it; the
    d_xi check, the second-order identity (both difference phi) and the
    closed form vs DP45 tests stay independent of it.
    """
    h = 1e-4
    taus, xis, ss, ts = _BOX
    tau, xi, s, t = np.meshgrid(taus, xis, ss, ts, indexing="ij")
    mid = flow(field, tau, xi, s)
    semigroup = np.abs(flow(field, tau, mid, t) - flow(field, tau, xi, s + t))

    tau, xi, t = np.meshgrid(taus, xis, ts, indexing="ij")
    phi, d_xi, _, d_tt = flow_with_derivatives(field, tau, xi, -t)
    up, d_xi_up, _, _ = flow_with_derivatives(field, tau, xi + h, -t)
    dn, d_xi_dn, _, _ = flow_with_derivatives(field, tau, xi - h, -t)
    _, _, _, d_tt_fwd = flow_with_derivatives(field, tau, phi, t)
    sig = eval_on(field.sigma, tau, xi)
    reverse = np.abs(eval_on(field.sigma, tau, phi) - d_xi * sig)
    phi_xixi = (d_xi_up - d_xi_dn) / (2 * h)
    phi_xit = (eval_on(field.sigma, tau, up) - eval_on(field.sigma, tau, dn)) / (2 * h)
    second = np.abs(phi_xixi * sig**2 - 2.0 * phi_xit * sig + d_tt + d_xi * d_tt_fwd)
    fd = np.abs((up - dn) / (2 * h) - d_xi)
    worst = (semigroup, reverse, second, fd)
    return {name: float(np.max(d)) for (name, _), d in zip(FLOW_CHECKS, worst)}


# -- ready-made fields -----------------------------------------------------

def eval_on(fn, t, xi):
    """fn(t, xi) broadcast to the joint shape of t and xi: the one place
    that pads a field or drift callable's output (a read-only view)."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(xi))
    return np.broadcast_to(np.asarray(fn(t, xi), dtype=np.float64), shape)


def sample_box_values(fn, what):
    """fn(t, xi) on the 5 x 7 sample box of field construction; DomainError
    naming ``what`` if a value is not finite."""
    return _finite(DomainError, f"{what} is not finite on the sample box t in [0, 1], "
                   "xi in [-5, 5]", fn, *_SAMPLE_BOX)


def constant_field(c):
    """sigma(t, xi) = c; flow is the straight line xi + c t."""
    c = float(c)
    return VolatilityField(
        sigma=lambda t, xi: c,
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: 0.0,
        time_free=True,
        name=f"const({c:g})",
        exact_flow=lambda tau, xi, t: (xi + c * t, 1.0, 0.0),
    )


def scalar_linear_field(sig, dsig, name="linear"):
    """sigma(t, xi) = sig(t) * xi, the geometric (Black-Scholes-type) field.

    ``dsig`` is the derivative of sig; both must be finite on 201 evenly
    spaced points of [0, 1].  The field is time-free when dsig is 0 at all
    of them.
    """
    tt = np.linspace(0.0, 1.0, 201)
    message = f"{name}: sig and dsig must be finite on [0, 1]"
    time_free = not np.any(_finite(DomainError, message, dsig, tt))
    _finite(DomainError, message, sig, tt)

    def exact_flow(tau, xi, t):  # xi e^{sig(tau) t}
        e = np.exp(sig(tau) * t)
        return xi * e, e, xi * t * dsig(tau) * e

    return VolatilityField(
        sigma=lambda t, xi: sig(t) * xi,
        sigma_t=lambda t, xi: dsig(t) * xi,
        sigma_xi=lambda t, xi: sig(t) + 0.0 * xi,
        time_free=time_free,
        name=name,
        exact_flow=exact_flow,
    )


def sqrt1p_field():
    """sigma(xi) = sqrt(1 + xi^2); flow is sinh(t + asinh(xi))."""
    return VolatilityField(
        sigma=lambda t, xi: np.sqrt(1.0 + xi * xi),
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: xi / np.sqrt(1.0 + xi * xi),
        time_free=True,
        name="sqrt1p",
        exact_flow=_sqrt1p_flow,
    )


def _sqrt1p_flow(tau, xi, t):
    a = t + np.arcsinh(xi)
    return np.sinh(a), np.cosh(a) / np.sqrt(1.0 + xi * xi), 0.0
