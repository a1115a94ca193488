"""Test-side oracles for the integral families of gompertz.integrals: an
independent recurrence for the frac family, and a cross-check of either
family's exact value against quadrature."""

from fractions import Fraction

from gompertz import (CrossCheckFailure, DeltaLinear, DomainError, Integrand,
                      PrecisionContext, factorial, frac_integral_closed,
                      g_span_eval, log_integral_closed, quad_semi_infinite)


def frac_integral_recurrence(n: int) -> DeltaLinear:
    """Independent oracle: x**n/(x+1) = x**(n-1) - x**(n-1)/(x+1) gives
    value(n) = (n-1)! - value(n-1), from value(0) = delta."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    value = DeltaLinear(Fraction(0), Fraction(1))
    for j in range(1, n + 1):
        value = DeltaLinear(Fraction(factorial(j - 1)), Fraction(0)) - value
    return value


def cross_checked_value(family: str, n: int,
                        ctx: PrecisionContext) -> DeltaLinear:
    """Exact value of one family member, in the span of {1, delta}, with
    both exact routes compared bit-for-bit (frac family) and the numeric
    route checked against quadrature (both families)."""
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
    evaluated = g_span_eval(exact, ctx)
    if not ctx.agrees(evaluated, numeric):
        raise CrossCheckFailure(
            f"{family} integral n={n}: exact {evaluated} vs quadrature {numeric}")
    return exact
