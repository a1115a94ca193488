"""Exception types shared across the package."""


class GompertzError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GompertzError):
    """Argument outside the mathematical domain of an operation."""


class NonIntegrable(GompertzError):
    """The requested integrand diverges on (0, inf)."""


class PrecisionUnreachable(GompertzError):
    """Requested precision exceeds the implementation cap, or an
    adaptive rule exhausted its refinement budget."""


class CrossCheckFailure(GompertzError):
    """Two independent evaluators of the same quantity disagree
    beyond tolerance; signals a bug in one of them."""


class PoleError(GompertzError):
    """Gamma evaluated at a nonpositive integer."""


class ZeroDenominator(GompertzError):
    """A rising factorial in a hypergeometric denominator vanished
    before the series terminated."""


class DegenerateDenominator(GompertzError):
    """A generalized binomial that must be inverted is zero."""


class DegenerateCase(GompertzError):
    """Identity instance undefined for these parameters (reported as
    skipped by grid runners, never as a pass)."""
