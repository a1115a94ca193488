"""Test-side oracles for the integral families of gompertz.integrals: an
independent recurrence for the frac family, a cross-check of either
family's exact value against quadrature, one log-moment by quadrature, the
per-term route of a weighted log-moment sum and of the theorem's partial
sums, and the shift expansion of the normalized log-moments, a property
test of the quadrature."""

from collections import namedtuple
from fractions import Fraction
from math import comb, inf, lcm

import mpmath
from mpmath import mp, mpf

from gompertz import (BigFloat, CrossCheckFailure, DomainError,
                      GompertzError, Integrand, PrecisionContext,
                      PrecisionUnreachable, binom_gen, factorial,
                      frac_integral_closed, g_span_eval, gamma_real,
                      log_integral_closed, quad_semi_infinite, to_bigfloat)
from gompertz.integrals import span_rows
from gompertz.verify import FAIL

#: The verdict of a numeric comparison within its tolerance.
NUMERIC_PASS = "NumericPass"

#: One shift-expansion comparison: its parameters, both sides, the verdict,
#: |lhs - rhs| and the tolerance it was held to.
ShiftReport = namedtuple("ShiftReport",
                         "parameters lhs rhs verdict residual tolerance")


class DegenerateDenominator(GompertzError):
    """A generalized binomial that must be inverted is zero."""


def frac_integral_recurrence(n: int) -> tuple[int, int]:
    """Independent oracle: x**n/(x+1) = x**(n-1) - x**(n-1)/(x+1) gives
    value(n) = (n-1)! - value(n-1), from value(0) = delta, as the pair
    (p, q) meaning p + q delta."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    p, q = 0, 1
    for j in range(1, n + 1):
        p, q = factorial(j - 1) - p, -q
    return p, q


def cross_checked_value(family: str, n: int,
                        ctx: PrecisionContext) -> tuple[int, int]:
    """Exact value (p, q) of one family member, p + q delta, with
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
    evaluated = g_span_eval(*exact, 1, 1, ctx)
    if not ctx.agrees(evaluated, numeric):
        raise CrossCheckFailure(
            f"{family} integral n={n}: exact {evaluated} vs quadrature {numeric}")
    return exact


def quadrature_log_moment(k: int, u: Fraction,
                          ctx: PrecisionContext) -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx for k >= 0 and u > 0 by
    one quadrature: the oracle of gompertz.integrals' log-moments, which
    take k = 0 from reference.k0_log_moment's series and k >= 1 from the
    span."""
    return quad_semi_infinite(Integrand(Fraction(k - 1),
                                        log_scale=Fraction(u)), ctx)


def per_term_log_moment_sum(terms, u: Fraction, ctx: PrecisionContext,
                            path: str = "exact"):
    """sum of coeff * log_moment(k, u) over the (k, coeff) pairs of terms,
    by one Fraction pair per term: coeff * span_rows' L_(k-1) at
    c = 1/u = a/b, over its scale b**(k-1), summed part by part and
    evaluated once by g_span_eval over the two parts' least common
    denominator, with k = 0 and path "quadrature" integrated term by term,
    in order, before the span value is added.

    Each quadrature carries about ctx.guard_digits digits past the target,
    so on path "quadrature" the sum measures its own cancellation as
    g_span_eval measures its own, log10(max |term| / |total|), and raises
    PrecisionUnreachable once that exceeds a third of ctx.guard_digits
    rather than return wrong digits. The theorem's rows at u = 1, r <= 2
    and m <= 15 cancel up to 4.94 digits by this measure (5.62 by
    sum |term|), and row m = 100 at u = 1/10000, r = 1 cancels 31. On path
    "exact" the span's cancellation is g_span_eval's to measure, and only
    the k = 0 term is added to its value."""
    u = Fraction(u)
    if u == 0:
        return ctx.round(mpf(0))
    span = None
    with mp.workprec(ctx.inner_bits):
        total = size = mpf(0)
        for k, coeff in terms:
            if k == 0 or path == "quadrature":
                term = to_bigfloat(coeff, ctx) * quadrature_log_moment(k, u,
                                                                       ctx)
                total += term
                size = max(size, abs(term))
            else:
                c = 1 / u
                p, q = span_rows(k - 1, c)[1][k - 1]
                den = c.denominator ** (k - 1)
                a, b = Fraction(coeff * p, den), Fraction(coeff * q, den)
                span = (a, b) if span is None else (span[0] + a, span[1] + b)
        if span is not None:
            a, b = span
            den = lcm(a.denominator, b.denominator)
            total += g_span_eval(int(a * den), int(b * den), den, 1 / u, ctx)
    if path == "quadrature":
        with mp.workprec(53):
            lost = (0.0 if size == 0 else inf if total == 0
                    else float(mpmath.log10(size / abs(total))))
        if lost > ctx.guard_digits / 3:
            raise PrecisionUnreachable(
                f"the per-term sum cancels {lost:.1f} digits, more than a "
                f"third of {ctx.guard_digits} guard digits")
    return ctx.round(total)


def theorem_row_terms(m: int, r: int) -> list:
    """Row M = m of the theorem, the integral of P_M, as the (k, coeff)
    terms (k, (-1)**(k+r) C(k,r) C(M+1,k+1)/k!) for r <= k <= M."""
    return [(k, Fraction((-1) ** (k + r) * comb(k, r) * comb(m + 1, k + 1),
                         factorial(k))) for k in range(r, m + 1)]


def per_term_series_trend(u, r, m_max, ctx, path="exact"):
    """series_partial_trend by the per-term route: each row's
    theorem_row_terms summed once by per_term_log_moment_sum."""
    return [(m, per_term_log_moment_sum(theorem_row_terms(m, r), u, ctx,
                                        path))
            for m in range(r, m_max + 1)]


# --- normalized log-moments and their shift identities -------------------------

def norm_log_moment(q: Fraction, r: int, u: Fraction,
                    ctx: PrecisionContext) -> BigFloat:
    """C(q, r) / Gamma(q+1) * integral(0,inf) x**(q-1) e**-x ln(x*u+1) dx
    for rational q > -1, u >= 0: norm_log_moment_deriv at order 0."""
    return norm_log_moment_deriv(q, r, u, 0, ctx)


def norm_log_moment_deriv(q: Fraction, r: int, u: Fraction, order: int,
                          ctx: PrecisionContext) -> BigFloat:
    """order-th u-derivative of norm_log_moment: under the prefactor
    C(q, r) / Gamma(q+1), the integrand x**(q-1) e**-x ln(x*u+1) at order 0,
    and above it (-1)**(order-1) (order-1)! x**(q+order-1) e**-x
    (u*x+1)**-order, which needs u > 0."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    q = Fraction(q)
    u = Fraction(u)
    if q <= -1:
        raise DomainError(f"need q > -1, got {q}")
    if order and u <= 0:
        raise DomainError(f"need u > 0 for derivatives, got {u}")
    if u < 0:
        raise DomainError(f"need u >= 0, got {u}")
    if u == 0:
        return ctx.round(mpf(0))
    if order == 0:
        integrand, scale = Integrand(q - 1, log_scale=u), 1
    else:
        integrand = Integrand(q + order - 1, denom_power=order, denom_scale=u)
        scale = (-1) ** (order - 1) * factorial(order - 1)
    integral = quad_semi_infinite(integrand, ctx)
    with mp.workprec(ctx.inner_bits):
        pref = to_bigfloat(binom_gen(q, r), ctx) / gamma_real(q + 1, ctx)
        out = pref * scale * integral
    return ctx.round(out)


def check_shift_expansion(j: int, eps: Fraction, r: int, u: Fraction,
                          ctx: PrecisionContext) -> ShiftReport:
    """j-step shift expansion in u-derivatives:
    f(eps+j) = C(eps+j-r, j)**-1 sum_{i=0}^{j} C(eps+j-1, j-i) u**i/i! f^(i)(eps),
    to within the absolute 10**-(decimal_digits - 5). At j = 1 it is the
    one-step shift recurrence
    f(eps+1) = eps/(eps+1-r) f(eps) + u/(eps+1-r) f'(eps).

    Absolute is right here because the values are of order one: at 30
    digits on the grid eps in {-3/4, -2/3}, r in {0, 1}, u in
    {1/2, 1, 3, 10} and j <= 4, both sides were at most 3.4 and every
    summand at most 7.3 in size, growing like ln u. With the default 15
    guard digits, the working accuracy 10**-(decimal_digits + 15) lies 20
    digits below the bound, which covers that size. On that grid, with
    eps = -5/9 and u = 0 added, the largest residual of each j = 1..4 was
    below 10**-(decimal_digits + 13) at both 30 and 60 digits."""
    if not 1 <= j <= 4:
        raise DomainError(f"j must be in 1..4, got {j}")
    eps = Fraction(eps)
    u = Fraction(u)
    lead = binom_gen(eps + j - r, j)
    if lead == 0:
        raise DegenerateDenominator(f"C({eps}+{j}-{r}, {j}) = 0")
    lhs = norm_log_moment(eps + j, r, u, ctx)
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        for i in range(j + 1):
            coeff = binom_gen(eps + j - 1, j - i) * u ** i / factorial(i)
            if coeff == 0:  # u = 0 kills every derivative term
                continue
            total += (to_bigfloat(coeff, ctx)
                      * norm_log_moment_deriv(eps, r, u, i, ctx))
        rhs = to_bigfloat(1 / lead, ctx) * total
        residual = abs(lhs - rhs)
    with mp.workprec(ctx.working_bits):
        tol = mpf(10) ** (5 - ctx.decimal_digits)
    params = {"j": str(j), "eps": str(eps), "r": str(r), "u": str(u),
              "digits": str(ctx.decimal_digits)}
    verdict = NUMERIC_PASS if residual < tol else FAIL
    return ShiftReport(params, lhs, ctx.round(rhs), verdict,
                       ctx.round(residual), tol)
