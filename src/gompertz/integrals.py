"""The two exp(-x)-weighted integral families with exact values in the
rational span of {1, delta}:

    frac family : integral(0,inf) x**n e**-x / (x+1) dx
    log family  : integral(0,inf) x**n ln(x+1) e**-x dx

Each family has a closed form here; the independent recurrence and the
quadrature cross-check that test them live in tests/integral_oracles.py. The
general log-moment integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx lies, for
k >= 1, in the rational span of {1, G(c)}, where G(c) = e**c E1(c) and
c = 1/u = a/b. A span value is held in integers only: a pair (p, q) means
p + q G(c), and a triple (p, q, den) means (p + q G(c))/den. span_rows holds
the rows at every rational c as int pairs scaled by powers of b, and
span_dot is the one dot product of weights with them; g_span_eval is the
one evaluator of a triple at G(c). log_moment_sum is the one route of
log-moments: the terms with k >= 1 as one span triple from integer weights
for every rational u > 0, and the k = 0 term, which lies outside the span,
from its own series (reference.k0_log_moment); log_moment is its one-term
case. No log-moment is integrated numerically here: the per-moment
quadrature that checks this route lives in tests/integral_oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, PrecisionUnreachable
from .exactmath import alt_factorial_sum, factorial
from .precision import (MAX_DECIMAL_DIGITS, BigFloat, PrecisionContext,
                        to_bigfloat)
from .reference import exp_e1, k0_log_moment


def frac_integral_closed(n: int) -> tuple[int, int]:
    """Closed form of the frac family, the pair (p, q) meaning p + q delta:
    (-1)**n * (-alt_factorial_sum(n) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    sign = -1 if n % 2 else 1
    return -sign * alt_factorial_sum(n), sign


def log_integral_closed(n: int) -> tuple[int, int]:
    """Closed form of the log family, the pair (p, q) meaning p + q delta:
    sum_{j=0}^{n} n!/j! (-1)**j (-alt_factorial_sum(j) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    weights = [(-1) ** j * math.perm(n, n - j) for j in range(n + 1)]
    return (-sum(w * alt_factorial_sum(j) for j, w in enumerate(weights)),
            sum(weights))


#: Per c, the scaled span rows (frac, log) as lists of int pairs (p, q).
_span_tables: dict[Fraction, tuple[list, list]] = {}


def span_rows(n: int, c: Fraction | int = 1) -> tuple[list, list]:
    """The exact rows I_j = integral(0,inf) x**j e**-x / (x + c) dx and
    L_j = integral(0,inf) x**j ln(x/c + 1) e**-x dx, j <= n at least, for
    rational c = a/b > 0 in lowest terms, as (frac, log) lists of int pairs
    (p, q) meaning b**j I_j or b**j L_j = p + q G(c). x**j / (x + c)
    = x**(j-1) - c x**(j-1) / (x + c) gives I_j = (j-1)! - c I_{j-1}, parts
    give L_j = j L_{j-1} + I_j, from I_0 = L_0 = G(c); times b**j, both take
    integer steps. The lists are the per-c cache: read, never change."""
    c = Fraction(c)
    if c <= 0:
        raise DomainError("c must be positive")
    frac, log = rows = _span_tables.setdefault(c, ([(0, 1)], [(0, 1)]))
    a, b = c.numerator, c.denominator
    while len(frac) <= n:
        j = len(frac)
        ip, iq = b ** j * factorial(j - 1) - a * frac[-1][0], -a * frac[-1][1]
        frac.append((ip, iq))
        log.append((j * b * log[-1][0] + ip, j * b * log[-1][1] + iq))
    return rows


def span_dot(weights, rows) -> tuple[int, int]:
    """sum_k w_k (p_k, q_k) over the weights and the rows they meet, for the
    approximant families, the theorem's rows and the digamma series."""
    p = q = 0
    for w, (row_p, row_q) in zip(weights, rows):
        p += w * row_p
        q += w * row_q
    return p, q


def log_integral_coeffs(n: int, c: Fraction | int) -> tuple[int, int, int]:
    """The triple (p, q, b**n) with integral(0,inf) x**n ln(x/c + 1) e**-x dx
    = (p + q G(c))/b**n: span_rows' L_n and its scale, as g_span_eval takes
    them. At c = 1 it is log_integral_closed(n) over 1."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    c = Fraction(c)
    return (*span_rows(n, c)[1][n], c.denominator ** n)


def g_span_eval(p: int, q: int, den: int, c: Fraction | int,
                ctx: PrecisionContext) -> BigFloat:
    """(p + q G(c))/den for ints p, q and den != 0 of either sign, and
    rational c > 0, rounded to ctx, with the guard digits grown to the
    cancellation. Each pass forms a = p/den and bg = q/den G(c) at working
    precision, and measures the digits the sum cancels from those same
    terms, log10(max(|a|, |bg|) / |a + bg|), plus max(0, -log10 G): the
    digits G < 1 would lose to an absolute error in G of 10**-(D+g). The
    quadrature that checks G bounds the error of c G(c), not of G, so for
    c > 1 that term over-counts by about log10 c digits; it stays until the
    error columns are computed in the exact span. The sum may use a third
    of ctx.guard_digits; when it cancels more, G(c) and the sum are redone
    with the guard grown to ctx.guard_digits times the next power of two
    covering the measured loss, so that one G(c) serves a range of moments
    and a deep cancellation takes few rungs. The last rung is the largest
    multiple of ctx.guard_digits within MAX_DECIMAL_DIGITS."""
    gctx = ctx
    while True:
        g = exp_e1(c, gctx)
        with mp.workprec(gctx.inner_bits):
            a = mpf(p) / den
            bg = mpf(q) / den * g
            value = gctx.round(a + bg)
        with mp.workprec(53):
            size = max(abs(a), abs(bg))
            if size == 0:
                lost = 0.0
            elif value == 0:
                lost = math.inf
            else:
                lost = float(mpmath.log10(size / abs(value))
                             + max(0, -mpmath.log10(g)))
        spare = gctx.guard_digits - ctx.guard_digits + ctx.guard_digits // 3
        if lost <= spare:
            return ctx.round(value)
        blocks = 1 + math.ceil(min(lost, gctx.total_digits) / ctx.guard_digits)
        rung = min(1 << (blocks - 1).bit_length(),
                   MAX_DECIMAL_DIGITS // ctx.guard_digits)
        if ctx.guard_digits * rung <= gctx.guard_digits:
            raise PrecisionUnreachable(
                f"A + B G({c}) cancels more than "
                f"{MAX_DECIMAL_DIGITS} digits")
        gctx = PrecisionContext(ctx.decimal_digits, ctx.guard_digits * rung)


def log_moment(k: int, u: Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx for k >= 0, u >= 0; the
    one-term log_moment_sum: a span value for k >= 1, and k0_log_moment's
    series at k = 0."""
    return log_moment_sum((1,), k, 1, u, ctx)


def log_moment_sum(weights, r: int, den: int, u: Fraction | int,
                   ctx: PrecisionContext) -> BigFloat:
    """sum_{k=r}^{m} w_k/den * log_moment(k, u) over the int sequence
    weights = (w_r, ..., w_m) and the int den != 0 of either sign, for
    r >= 0 and u >= 0, rounded once.

    For every u > 0 the terms with k >= 1 are one span value: with
    c = 1/u = a/b and the scaled span_rows Lhat, sum_k w_k b**(m-k)
    Lhat_{k-1} over den b**(m-1), one span_dot and one g_span_eval of that
    triple, never reduced, so the guard digits grow with the cancellation
    of the whole sum; G(c) is mpmath.e1's value, checked by quadrature once
    per (c, precision). At r = 0 the k = 0 term, integral(0,inf) x**-1
    e**-x ln(x*u+1) dx, is reference.k0_log_moment's series value times
    w_0/den."""
    if r < 0:
        raise DomainError("k must be nonnegative")
    u = Fraction(u)
    if u < 0:
        raise DomainError("u must be nonnegative")
    if u == 0:
        return ctx.round(mpf(0))
    n = int(r == 0)  # the span value starts after the k = 0 term
    m = r + len(weights) - 1
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        if r == 0 and weights:
            total += (to_bigfloat(Fraction(weights[0], den), ctx)
                      * k0_log_moment(u, ctx))
        if n < len(weights):
            c, b = 1 / u, u.numerator
            p, q = span_dot((w * b ** (m - k) for k, w in
                             enumerate(weights[n:], start=r + n)),
                            span_rows(m - 1, c)[1][r + n - 1:])
            total += g_span_eval(p, q, den * b ** (m - 1), c, ctx)
    return ctx.round(total)


def shifted_log_moment(k: int, u: Fraction | int,
                       ctx: PrecisionContext) -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln((x+u)/u) dx for u > 0; identical to
    log_moment(k, 1/u) because ln((x+u)/u) = ln(x/u + 1)."""
    u = Fraction(u)
    if u <= 0:
        raise DomainError("u must be positive")
    return log_moment(k, 1 / u, ctx)

