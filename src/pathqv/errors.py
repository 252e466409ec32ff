"""Exception types shared across the package, and ``_finite``, the rule for user code."""

import numpy as np


class PathQVError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PathQVError, ValueError):
    """An argument violates a documented precondition (off-grid point,
    mismatched levels, out-of-range index, malformed file, ...)."""


class NumericalError(PathQVError, RuntimeError):
    """A numerical procedure failed to reach its tolerance.

    Carries an optional ``trace`` (per-iteration defects or similar) so
    callers can report what happened before giving up.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class FlowIntegrationError(NumericalError):
    """A flow solve failed: a flow input or output is not finite, d_xi <= 0,
    or the adaptive integrator underflowed its step size or exceeded its
    step budget."""


def _finite(error, message, fn, *args):
    """fn(*args) as a float64 array (not copied if it is one), computed with
    numpy's warnings off; raises ``error(message)`` if a value is not finite:
    DomainError for an input, NumericalError for a value met in a solve."""
    with np.errstate(all="ignore"):
        values = np.asarray(fn(*args), dtype=np.float64)
    if not np.isfinite(values).all():
        raise error(message)
    return values
