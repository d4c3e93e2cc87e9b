"""Exception types shared across the toolkit."""


class CantorToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CantorToolkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoRootError(CantorToolkitError):
    """The requested digit code does not name a parameter in (0, 1/m]."""


class PrecisionExhaustedError(CantorToolkitError):
    """A certified decision used up its refinement budget.

    Raised when two values, a positive width or a hull order could not be
    certified; callers must surface it rather than resolve numerically.
    """


class HullViolationError(DomainError):
    """The point lies outside the convex hull of the self-similar set."""


class NotAdmissibleError(DomainError):
    """The digit word cannot begin a coding for the given point."""


class EmptyWindowError(CantorToolkitError):
    """A dimension-estimate window meets no interval of the cover."""
