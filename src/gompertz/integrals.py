"""The two exp(-x)-weighted integral families with exact values in the
rational span of {1, delta}:

    frac family : integral(0,inf) x**n e**-x / (x+1) dx
    log family  : integral(0,inf) x**n ln(x+1) e**-x dx

Each family has a closed form and an independent recurrence/cross-check, and
the general log-moment integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx is served
exactly at u=1 (k >= 1) and by quadrature otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpf

from .errors import CrossCheckFailure, DomainError
from .exactmath import (DeltaLinear, alt_factorial_sum, delta_linear_eval,
                        factorial)
from .precision import BigFloat, PrecisionContext
from .reference import Integrand, delta_reference, quad_semi_infinite

LOG_MOMENT_PATHS = ("checked", "exact", "quadrature")


@dataclass(frozen=True)
class IntegralValue:
    """One integral with its provenance; exact values live in Q[delta]."""

    kind: str                      # "exact" | "numeric"
    provenance: str                # "closed_form" | "recurrence" | "quadrature"
    exact: DeltaLinear | None = None
    numeric: BigFloat | None = None


def frac_integral_closed(n: int) -> DeltaLinear:
    """Closed form of the frac family:
    (-1)**n * (-alt_factorial_sum(n) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    sign = -1 if n % 2 else 1
    return DeltaLinear(Fraction(-sign * alt_factorial_sum(n)), Fraction(sign))


def frac_integral_recurrence(n: int) -> DeltaLinear:
    """Independent oracle: x**n/(x+1) = x**(n-1) - x**(n-1)/(x+1) gives
    value(n) = (n-1)! - value(n-1), from value(0) = delta."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    value = DeltaLinear(Fraction(0), Fraction(1))
    for j in range(1, n + 1):
        value = DeltaLinear(Fraction(factorial(j - 1)), Fraction(0)) - value
    return value


def log_integral_closed(n: int) -> DeltaLinear:
    """Closed form of the log family:
    sum_{j=0}^{n} n!/j! (-1)**j (-alt_factorial_sum(j) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    const = Fraction(0)
    delta = Fraction(0)
    for j in range(n + 1):
        w = Fraction(factorial(n), factorial(j))
        if j % 2:
            w = -w
        const += w * (-alt_factorial_sum(j))
        delta += w
    return DeltaLinear(const, delta)


def _log_moment_quad(k: int, u: Fraction, ctx: PrecisionContext) -> BigFloat:
    return quad_semi_infinite(Integrand(Fraction(k - 1), log_scale=u), ctx)


def log_moment(k: int, u: Fraction | int, ctx: PrecisionContext,
               path: str = "checked") -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx for k >= 0, u >= 0.

    At u = 1 and k >= 1 the exact Q[delta] value is used; path selects the
    route: "checked" (exact plus a quadrature agreement assertion), "exact"
    (exact where available), "quadrature" (numeric only). k = 0 is served by
    quadrature only (the integrand x**-1 ln(x*u+1) is integrable).
    """
    if path not in LOG_MOMENT_PATHS:
        raise ValueError(f"unknown path {path!r}")
    if k < 0:
        raise DomainError("k must be nonnegative")
    u = Fraction(u)
    if u < 0:
        raise DomainError("u must be nonnegative")
    if u == 0:
        return ctx.round(mpf(0))
    if u != 1 or k == 0 or path == "quadrature":
        return _log_moment_quad(k, u, ctx)
    exact = delta_linear_eval(log_integral_closed(k - 1),
                              delta_reference(ctx), ctx)
    if path == "checked":
        numeric = _log_moment_quad(k, u, ctx)
        if not ctx.agrees(exact, numeric):
            raise CrossCheckFailure(
                f"log_moment(k={k}, u=1) exact/quadrature mismatch: "
                f"{exact} vs {numeric}")
    return exact


def shifted_log_moment(k: int, u: Fraction | int, ctx: PrecisionContext,
                       path: str = "checked") -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln((x+u)/u) dx for u > 0; identical to
    log_moment(k, 1/u) because ln((x+u)/u) = ln(x/u + 1)."""
    u = Fraction(u)
    if u <= 0:
        raise DomainError("u must be positive")
    return log_moment(k, 1 / u, ctx, path=path)


def cross_checked_value(family: str, n: int, ctx: PrecisionContext) -> IntegralValue:
    """Exact value of one family member with both exact routes compared
    bit-for-bit (frac family) and the numeric route checked against
    quadrature (both families)."""
    if family == "frac":
        exact = frac_integral_closed(n)
        other = frac_integral_recurrence(n)
        if exact != other:
            raise CrossCheckFailure(
                f"frac integral n={n}: closed form {exact} != recurrence {other}")
        numeric = quad_semi_infinite(Integrand(Fraction(n), denom_power=1), ctx)
    elif family == "log":
        exact = log_integral_closed(n)
        numeric = quad_semi_infinite(Integrand(Fraction(n), log_scale=Fraction(1)), ctx)
    else:
        raise ValueError(f"unknown family {family!r}")
    evaluated = delta_linear_eval(exact, delta_reference(ctx), ctx)
    if not ctx.agrees(evaluated, numeric):
        raise CrossCheckFailure(
            f"{family} integral n={n}: exact {evaluated} vs quadrature {numeric}")
    return IntegralValue(kind="exact", provenance="closed_form", exact=exact)
