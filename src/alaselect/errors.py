"""Exception hierarchy shared across the library."""


class SelectionError(Exception):
    """Base class for all library-specific errors."""


class NotInvertible(SelectionError):
    """A Gram block or hessian could not be factorized."""


class RefuseEnumeration(SelectionError):
    """The model space is too large for exhaustive enumeration."""


class NotConcaveAtExpansion(SelectionError):
    """The negative log-likelihood hessian at the expansion point is not
    positive definite, so a quadratic-expansion score is undefined."""


class NotConcave(SelectionError):
    """A non-concave direction was encountered while optimizing."""


class NoConvergence(SelectionError):
    """An iteration (a Newton run or a scalar root search) failed: its
    start was not finite, a line search stalled, or it ran out of
    iterations before reaching its tolerance."""


class DegenerateResponse(SelectionError):
    """The response carries no usable variation (e.g. all-equal binary y)."""


class InvalidModel(SelectionError):
    """A model violates the active constraint set."""


class ToleranceNotMet(SelectionError):
    """An oracle failed to reach its requested accuracy."""
