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
time-free field (one declaring ``sup_sigma_t == 0``), whose d/dxi is
the quotient above; (u, w) for any other field; and v as well when a
point of the batch starts so near a rest point of sigma that the
quotient would lose accuracy (see ``_integrate``).  One step controller
runs every such solve, on a list of plain floats for a single point and
on a (rows, m) array for a batch.  Step control uses the max norm over
the batch, so a DP45 value can shift in its last digits (~4e-13) with
the other points of its batch; closed-form values are bit-identical
alone and in any batch.  The tests cross-check the closed forms against
DP45.  Both entry points pass through one guard (``_integrate``): a
non-finite tau, xi or t, or an overflow anywhere in the solve, raises
FlowIntegrationError with numpy's warnings off.

``flow_identity_defects`` checks a field's flow against the semigroup,
reverse-time and second-order identities and d_xi against finite
differences, on a fixed (tau, xi, s, t) sample box in seven batched
solves; ``pathqv flow-check`` prints its report against FLOW_CHECKS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FlowIntegrationError

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
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

#: Default integration tolerances (a notch below the advertised 1e-10 so
#: accumulated global error still meets it on [0, 1]-sized horizons).
RTOL = 1e-11
ATOL = 1e-13
_MAX_STEPS = 100000


# field construction's (t, xi) sample box, read-only as every check shares it
_SAMPLE_BOX = np.meshgrid([0.0, 0.25, 0.5, 0.75, 1.0], [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
_SAMPLE_BOX[0].flags.writeable = _SAMPLE_BOX[1].flags.writeable = False


@dataclass(frozen=True)
class VolatilityField:
    """sigma(t, xi) together with its first partial derivatives and
    declared sup-bounds for them.

    ``sigma``, ``sigma_t`` and ``sigma_xi`` take (t, xi), numbers or numpy
    arrays, and may return anything that broadcasts against the joint
    shape of their arguments, e.g. a scalar when the formula ignores an
    argument: numpy broadcasting absorbs it in all arithmetic, and code
    that needs a full-shape array pads with ``eval_on``.  Construction cross-checks each derivative against a central
    difference (h = 1e-5, tolerance 1e-4 relative to 1 + |derivative|)
    and the declared bounds on a fixed sample box; fields whose true
    derivatives grow beyond the box (e.g. sigma(t, xi) = s(t) xi) should
    declare bounds valid on that box.

    ``exact_flow(tau, xi, t)``, optional, returns the flow in closed form
    as (phi, d_xi, d_tau): phi(tau, xi, t), its derivative in xi and its
    derivative in tau, broadcasting over arrays.  When it is given the
    flow functions call it instead of integrating (their rtol is then
    unused).  Construction checks it on the same sample box:
    phi = xi, d_xi = 1 and d_tau = 0 at t = 0, and at t = +-0.5 a
    central difference in t matches sigma(tau, phi) while d_xi and d_tau
    match central differences of phi, to the tolerance above.
    """

    sigma: callable
    sigma_t: callable
    sigma_xi: callable
    sup_sigma_t: float
    sup_sigma_xi: float
    name: str = ""
    exact_flow: callable = None

    def __post_init__(self):
        tt, xx = _SAMPLE_BOX
        h = 1e-5
        tol = 1e-4
        # NaN fails every comparison below, so non-finite values go first
        sig = sample_box_values(self.sigma, "sigma")
        d_xi = sample_box_values(self.sigma_xi, "sigma_xi")
        d_t = sample_box_values(self.sigma_t, "sigma_t")
        if not (math.isfinite(self.sup_sigma_t) and math.isfinite(self.sup_sigma_xi)):
            raise DomainError("declared sup-bounds must be finite")
        fd_xi = (self.sigma(tt, xx + h) - self.sigma(tt, xx - h)) / (2 * h)
        if np.any(np.abs(fd_xi - d_xi) > tol * (1.0 + np.abs(d_xi))):
            raise DomainError("sigma_xi disagrees with finite differences of sigma")
        fd_t = (self.sigma(tt + h, xx) - self.sigma(tt - h, xx)) / (2 * h)
        if np.any(np.abs(fd_t - d_t) > tol * (1.0 + np.abs(d_t))):
            raise DomainError("sigma_t disagrees with finite differences of sigma")
        slack = 1e-9
        if np.max(np.abs(d_t)) > self.sup_sigma_t + slack:
            raise DomainError("declared sup|sigma_t| violated at sampled points")
        if np.max(np.abs(d_xi)) > self.sup_sigma_xi + slack:
            raise DomainError("declared sup|sigma_xi| violated at sampled points")
        if self.exact_flow is not None:
            try:
                with np.errstate(all="ignore"):
                    self._check_exact_flow(tt, xx, h, tol)
            except FlowIntegrationError:
                raise DomainError("exact_flow is not finite at sampled points") from None

    def _check_exact_flow(self, tt, xx, h, tol):
        def close(got, want):  # written so that NaN fails
            return np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))

        def phi(tau, xi, t):
            return _exact(self.exact_flow, tau, xi, t)[0]

        at0 = _exact(self.exact_flow, tt, xx, 0.0)
        if not all(close(got, want) for got, want in zip(at0, (xx, 1.0, 0.0))):
            raise DomainError("exact_flow is not (xi, 1, 0) at t = 0")
        for t in (-0.5, 0.5):
            value, d_xi, d_tau = _exact(self.exact_flow, tt, xx, t)
            fd_t = (phi(tt, xx, t + h) - phi(tt, xx, t - h)) / (2 * h)
            if not close(fd_t, eval_on(self.sigma, tt, value)):
                raise DomainError("exact_flow does not solve u' = sigma(tau, u)")
            fd_xi = (phi(tt, xx + h, t) - phi(tt, xx - h, t)) / (2 * h)
            if not close(d_xi, fd_xi):
                raise DomainError("exact_flow d_xi disagrees with finite differences")
            fd_tau = (phi(tt + h, xx, t) - phi(tt - h, xx, t)) / (2 * h)
            if not close(d_tau, fd_tau):
                raise DomainError("exact_flow d_tau disagrees with finite differences")


def _exact(exact_flow, tau, xi, t):
    """exact_flow's (phi, d_xi, d_tau) as fresh float arrays of the joint
    input shape (numpy scalars for scalar inputs); raises
    FlowIntegrationError on any non-finite value.  Callers turn numpy's
    warnings off."""
    shape = np.broadcast_shapes(np.shape(tau), np.shape(xi), np.shape(t))
    out = tuple(np.broadcast_to(v, shape).astype(np.float64)[()]
                for v in exact_flow(tau, xi, t))
    if not all(np.all(np.isfinite(v)) for v in out):
        raise FlowIntegrationError("non-finite value from the closed-form flow")
    return out


def _integrate(field, tau, xi, horizon, rtol=RTOL, max_steps=_MAX_STEPS, derivatives=True):
    """(phi, d_xi, d_tau, d_tt) with the broadcast shape of the inputs, or
    (phi,) alone unless ``derivatives``: the one path of ``flow`` and
    ``flow_with_derivatives``, closed form and DP45 alike.

    Raises FlowIntegrationError when tau, xi or t is not finite, and when
    the solve overflows: numpy warnings are off and an inf or NaN trips
    ``_exact``'s and ``_dp45``'s guards, a power of Python floats (one
    point) raises OverflowError itself, and d_tt is checked last.
    """
    if not all(np.isfinite(v).all() for v in (tau, xi, horizon)):
        raise FlowIntegrationError("flow inputs tau, xi and t must be finite")
    with np.errstate(all="ignore"):
        try:
            out = _solve(field, tau, xi, horizon, rtol, max_steps, derivatives)
        except OverflowError as exc:
            raise FlowIntegrationError("overflow during flow integration") from exc
    if derivatives and not np.all(np.isfinite(out[3])):  # even a zero horizon can overflow it
        raise FlowIntegrationError("d_tt = sigma_xi sigma overflows at the flow value")
    return out


def _solve(field, tau, xi, horizon, rtol, max_steps, derivatives):
    """``_integrate``'s values, unguarded.

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
      ``sup_sigma_t == 0`` has d_tau = 0.
    * d_tt = sigma_xi(tau, phi) sigma(tau, phi), reusing the quotient's
      sigma(tau, phi).

    So a time-free field away from its rest points integrates u alone,
    with one sigma call per stage, and so does the flow value alone.  One
    point and a batch follow the same rule.  The rows share one adaptive
    step for the whole batch, so a value can shift in its last digits
    with the other points of its batch.
    """
    exact_flow = getattr(field, "exact_flow", None)
    if exact_flow is not None:
        phi, d_xi, d_tau = _exact(exact_flow, tau, xi, horizon)
        if not derivatives:
            return (phi,)
        d_tt = eval_on(field.sigma_xi, tau, phi) * eval_on(field.sigma, tau, phi)
        return phi, d_xi, d_tau, d_tt
    tau, xi, scale, shape = _points(tau, xi, horizon)
    if not derivatives:
        return (np.reshape(_dp45_rows(field, tau, xi, scale, "u", rtol, max_steps)[0], shape)[()],)
    one = isinstance(tau, float)

    def at(fn, u):  # fn(tau, u): a float for one point, padded for a batch
        return float(fn(tau, u)) if one else eval_on(fn, tau, u)

    sig0 = at(field.sigma, xi)
    error_scale = abs(at(field.sigma_xi, xi)) * (abs(xi) + ATOL / RTOL)
    keep_v = not np.all(abs(sig0) > error_scale)
    keep_w = getattr(field, "sup_sigma_t", None) != 0
    rows = "u" + "v" * keep_v + "w" * keep_w
    y = _dp45_rows(field, tau, xi, scale, rows, rtol, max_steps)
    phi = y[0]
    sig_phi = at(field.sigma, phi)
    d_xi = y[1] if keep_v else sig_phi / sig0
    d_tau = y[-1] if keep_w else np.zeros(np.shape(phi))
    d_tt = at(field.sigma_xi, phi) * sig_phi
    return tuple(np.reshape(c, shape)[()] for c in (phi, d_xi, d_tau, d_tt))


def _points(tau, xi, horizon):
    """(tau, xi, horizon, shape): the inputs broadcast to ``shape``, as
    plain floats when that holds one point (any shape of size 1), which
    avoids numpy's per-call overhead in the strictly sequential solvers
    (lag-1 Tonelli), and as flat arrays otherwise."""
    tau, xi, horizon = np.broadcast_arrays(
        np.asarray(tau, dtype=np.float64),
        np.asarray(xi, dtype=np.float64),
        np.asarray(horizon, dtype=np.float64),
    )
    if tau.size == 1:
        return float(tau.flat[0]), float(xi.flat[0]), float(horizon.flat[0]), tau.shape
    return tau.reshape(-1), xi.reshape(-1), horizon.reshape(-1), tau.shape


def _dp45_rows(field, tau, xi, scale, rows, rtol, max_steps):
    """The ``rows`` ("u", then "v" and/or "w") at time ``scale``, from xi,
    1 and 0: a list of floats for one point, a (len(rows), m) array for a
    batch.  The absolute tolerance scales with ``rtol``: ATOL * (rtol /
    RTOL)."""
    start = {"u": xi, "v": 1.0, "w": 0.0}
    if isinstance(tau, float):
        y = [start[r] for r in rows]
        ops = (_rhs(field, tau, scale, rows, float, tuple), _combine_floats, _norm_floats)
    else:
        y = np.empty((len(rows), tau.size))
        for i, r in enumerate(rows):
            y[i] = start[r]
        ops = (_rhs(field, tau, scale, rows, _array, np.stack), _combine_arrays, _norm_arrays)
    if np.any(scale):
        y = _dp45(*ops, y, rtol, ATOL * (rtol / RTOL), max_steps)
    return y


def _dp45(rhs, combine, norm, y, rtol, atol, max_steps):
    """Dormand-Prince 5(4) on the rescaled time s in [0, 1] from state y.

    ``rhs(y)`` is the derivative, ``combine(y, h, coeffs, k)`` is
    y + h sum_j coeffs[j] k[j] (y None for zero) and ``norm(y, y5, e,
    rtol, atol)`` is the largest |e| / (atol + rtol max(|y|, |y5|)),
    kept NaN when any term is.  Raises FlowIntegrationError on a
    non-finite error, a step below 1e-14 or more than ``max_steps`` steps.
    """
    s = 0.0
    h = 0.01
    k = [rhs(y)] * 7  # a stage is read only after it is computed
    steps = 0
    while s < 1.0:
        h = min(h, 1.0 - s)
        for i in range(1, 7):
            y5 = combine(y, h, _A[i], k)
            k[i] = rhs(y5)
        # the last stage sits at the fifth-order solution y5, so its
        # derivative starts the next step (FSAL)
        err = norm(y, y5, combine(None, h, _ERR, k), rtol, atol)
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
        if steps > max_steps:
            raise FlowIntegrationError(f"flow exceeded {max_steps} steps")
    return y


def _rhs(field, tau, scale, rows, value, pack):
    """The derivative of the ``rows`` of the time-rescaled system:
    u' = scale sigma, v' = scale sigma_xi v, w' = scale (sigma_t +
    sigma_xi w).  ``value`` turns a field's output into a float or an
    array and ``pack`` collects the rows."""
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
        return pack(out)

    return rhs


def _array(x):
    return np.asarray(x, dtype=np.float64)


# One point as a list of plain floats, one per row.

def _combine_floats(y, h, coeffs, k):
    out = []
    for i, k_row in enumerate(zip(*k)):  # the stages of row i
        acc = 0.0 if y is None else y[i]
        for a, kj in zip(coeffs, k_row):
            if a:
                acc += h * a * kj
        out.append(acc)
    return out


def _norm_floats(y, y5, e, rtol, atol):
    err = 0.0
    for yc, y5c, ec in zip(y, y5, e):
        r = abs(ec) / (atol + rtol * max(abs(yc), abs(y5c)))
        if not r <= err:  # unlike max(), keeps a NaN
            err = r
    return err


# A batch as a (rows, m) array.

def _combine_arrays(y, h, coeffs, k):
    out = k[0] * (h * coeffs[0])
    for a, kj in zip(coeffs[1:], k[1:]):
        if a:
            out += (h * a) * kj
    if y is not None:
        out += y
    return out


def _norm_arrays(y, y5, e, rtol, atol):
    # in place where it can: each temporary of the batch's size that is
    # freed at once can cost fresh pages on the next allocation
    tol = np.abs(y)
    np.maximum(tol, np.abs(y5), out=tol)
    tol *= rtol
    tol += atol
    np.abs(e, out=e)
    e /= tol
    return float(e.max())


def flow(field, tau, xi, t, rtol=RTOL):
    """phi(tau, xi, t): the flow value alone (broadcasts over arrays); a
    field without ``exact_flow`` integrates u alone."""
    phi = _integrate(field, tau, xi, t, rtol, derivatives=False)[0]
    return float(phi) if np.ndim(phi) == 0 else phi


def flow_with_derivatives(field, tau, xi, t, rtol=RTOL):
    """(phi, d_xi, d_tau, d_tt), each with the broadcast shape of the inputs
    (numpy scalars when they are all scalars).  Raises FlowIntegrationError
    unless d_xi > 0, as it is exactly: the variational solution is an
    exponential, and sigma(tau, phi) has the sign of sigma(tau, xi), since
    no flow crosses a rest point."""
    phi, d_xi, d_tau, d_tt = _integrate(field, tau, xi, t, rtol=rtol)
    if np.any(d_xi <= 0.0):
        raise FlowIntegrationError("computed d_xi <= 0; integration not trustworthy")
    return phi, d_xi, d_tau, d_tt


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
    """fn(t, xi) on the 5 x 7 sample box of field construction, warnings
    off; raises DomainError naming ``what`` when a value is not finite."""
    with np.errstate(all="ignore"):
        values = np.asarray(fn(*_SAMPLE_BOX), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} is not finite on the sample box t in [0, 1], xi in [-5, 5]")
    return values


def constant_field(c):
    """sigma(t, xi) = c; flow is the straight line xi + c t."""
    c = float(c)
    return VolatilityField(
        sigma=lambda t, xi: c,
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: 0.0,
        sup_sigma_t=0.0,
        sup_sigma_xi=0.0,
        name=f"const({c:g})",
        exact_flow=lambda tau, xi, t: (xi + c * t, 1.0, 0.0),
    )


def scalar_linear_field(sig, dsig, name="linear"):
    """sigma(t, xi) = sig(t) * xi, the geometric (Black-Scholes-type) field.

    ``dsig`` is the derivative of sig.  sigma_t = sig'(t) xi grows linearly
    in xi, so the declared sup-bounds are taken over the validation box
    [0, 1] x [-5, 5].
    """
    tt = np.linspace(0.0, 1.0, 201)
    sup_t = float(np.max(np.abs(np.asarray(dsig(tt), dtype=np.float64)))) * 5.0
    sup_xi = float(np.max(np.abs(np.asarray(sig(tt), dtype=np.float64))))

    def exact_flow(tau, xi, t):  # xi e^{sig(tau) t}
        e = np.exp(sig(tau) * t)
        return xi * e, e, xi * t * dsig(tau) * e

    return VolatilityField(
        sigma=lambda t, xi: sig(t) * xi,
        sigma_t=lambda t, xi: dsig(t) * xi,
        sigma_xi=lambda t, xi: sig(t) + 0.0 * xi,
        sup_sigma_t=sup_t,
        sup_sigma_xi=sup_xi,
        name=name,
        exact_flow=exact_flow,
    )


def sqrt1p_field():
    """sigma(xi) = sqrt(1 + xi^2); flow is sinh(t + asinh(xi))."""
    return VolatilityField(
        sigma=lambda t, xi: np.sqrt(1.0 + xi * xi),
        sigma_t=lambda t, xi: 0.0,
        sigma_xi=lambda t, xi: xi / np.sqrt(1.0 + xi * xi),
        sup_sigma_t=0.0,
        sup_sigma_xi=1.0,
        name="sqrt1p",
        exact_flow=_sqrt1p_flow,
    )


def _sqrt1p_flow(tau, xi, t):
    a = t + np.arcsinh(xi)
    return np.sinh(a), np.cosh(a) / np.sqrt(1.0 + xi * xi), 0.0
