"""Test-side oracles for the integral families of gompertz.integrals: an
independent recurrence for the frac family, a cross-check of either
family's exact value against quadrature, and the per-term route of a
weighted log-moment sum."""

from fractions import Fraction

from mpmath import mp, mpf

from gompertz import (CrossCheckFailure, DeltaLinear, DomainError, Integrand,
                      PrecisionContext, factorial, frac_integral_closed,
                      g_span_eval, log_integral_closed, log_integral_coeffs,
                      quad_semi_infinite, to_bigfloat)


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


def per_term_log_moment_sum(terms, u: Fraction, ctx: PrecisionContext,
                            path: str = "exact"):
    """sum of coeff * log_moment(k, u) over the (k, coeff) pairs of terms,
    by one DeltaLinear per term: coeff * log_integral_coeffs(k-1, 1/u)
    summed in DeltaLinear algebra and evaluated once by g_span_eval, with
    k = 0 and path "quadrature" integrated term by term, in order, before
    the span value is added."""
    u = Fraction(u)
    if u == 0:
        return ctx.round(mpf(0))
    span = None
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        for k, coeff in terms:
            if k == 0 or path == "quadrature":
                moment = quad_semi_infinite(
                    Integrand(Fraction(k - 1), log_scale=u), ctx)
                total += to_bigfloat(coeff, ctx) * moment
            else:
                term = coeff * log_integral_coeffs(k - 1, 1 / u)
                span = term if span is None else span + term
        if span is not None:
            total += g_span_eval(span, ctx)
    return ctx.round(total)
