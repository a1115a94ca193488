"""The two exp(-x)-weighted integral families with exact values in the
rational span of {1, delta}:

    frac family : integral(0,inf) x**n e**-x / (x+1) dx
    log family  : integral(0,inf) x**n ln(x+1) e**-x dx

Each family has a closed form here; the independent recurrence and the
quadrature cross-check that test them live in tests/integral_oracles.py. The
general log-moment integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx lies, for
k >= 1, in the rational span of {1, G(c)}, where G(c) = e**c E1(c) and
c = 1/u = a/b. span_rows holds its rows at every rational c as int pairs
scaled by powers of b, and span_dot is the one dot product of weights with
them; g_span_eval is the one evaluator of a span value, a DeltaLinear, which
carries its c, at G(c). log_moment_sum is the one router of log-moments: one
span value from integer weights for every rational u > 0 on the exact path,
and by quadrature for k = 0 or on request; log_moment is its one-term case.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, PrecisionUnreachable
from .exactmath import DeltaLinear, alt_factorial_sum, factorial
from .precision import (MAX_DECIMAL_DIGITS, BigFloat, PrecisionContext,
                        to_bigfloat)
from .reference import Integrand, exp_e1, quad_semi_infinite

LOG_MOMENT_PATHS = ("exact", "quadrature")


def frac_integral_closed(n: int) -> DeltaLinear:
    """Closed form of the frac family:
    (-1)**n * (-alt_factorial_sum(n) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    sign = -1 if n % 2 else 1
    return DeltaLinear(Fraction(-sign * alt_factorial_sum(n)), Fraction(sign))


def log_integral_closed(n: int) -> DeltaLinear:
    """Closed form of the log family:
    sum_{j=0}^{n} n!/j! (-1)**j (-alt_factorial_sum(j) + delta)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    weights = [(-1) ** j * math.perm(n, n - j) for j in range(n + 1)]
    return DeltaLinear(-sum(w * alt_factorial_sum(j)
                            for j, w in enumerate(weights)), sum(weights))


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
    approximant families, the theorem's blocks and the digamma series."""
    p = q = 0
    for w, (row_p, row_q) in zip(weights, rows):
        p += w * row_p
        q += w * row_q
    return p, q


def log_integral_coeffs(n: int, c: Fraction | int) -> DeltaLinear:
    """Exact (A_n, B_n) with integral(0,inf) x**n ln(x/c + 1) e**-x dx
    = A_n + B_n G(c): span_rows' L_n over b**n. At c = 1 it is
    log_integral_closed(n)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    c = Fraction(c)
    scale = c.denominator ** n
    return DeltaLinear(*(Fraction(v, scale) for v in span_rows(n, c)[1][n]), c)


def g_span_eval(v: DeltaLinear, ctx: PrecisionContext) -> BigFloat:
    """v.const_part + v.delta_part * G(v.c), rounded to ctx, with the guard
    digits grown to the cancellation. Each pass converts the two parts once,
    forms a = A and bg = B G(c) at working precision, and measures the
    digits the sum cancels from those same terms, log10(max(|a|, |bg|) /
    |a + bg|), plus those G < 1 has already lost to the quadrature's
    absolute error. The sum may use a third of ctx.guard_digits; when it
    cancels more, G(c) and the sum are redone with the guard grown to
    ctx.guard_digits times the next power of two covering the measured loss,
    so that one G(c) serves a range of moments and a deep cancellation takes
    few rungs. The last rung is the largest multiple of ctx.guard_digits
    within MAX_DECIMAL_DIGITS."""
    gctx = ctx
    while True:
        g = exp_e1(v.c, gctx)
        with mp.workprec(gctx.inner_bits):
            a = mpf(v.const_part.numerator) / v.const_part.denominator
            bg = mpf(v.delta_part.numerator) / v.delta_part.denominator * g
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
                f"A + B G({v.c}) cancels more than "
                f"{MAX_DECIMAL_DIGITS} digits")
        gctx = PrecisionContext(ctx.decimal_digits, ctx.guard_digits * rung)


def log_moment(k: int, u: Fraction | int, ctx: PrecisionContext,
               path: str = "exact") -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln(x*u+1) dx for k >= 0, u >= 0; the
    one-term log_moment_sum, which picks the route."""
    return log_moment_sum((1,), k, 1, u, ctx, path)


def log_moment_sum(weights, r: int, den: int, u: Fraction | int,
                   ctx: PrecisionContext, path: str = "exact") -> BigFloat:
    """sum_{k=r}^{m} w_k/den * log_moment(k, u) over the int sequence
    weights = (w_r, ..., w_m) and the int den != 0 of either sign, for
    r >= 0 and u >= 0, rounded once.

    On path "exact" (the default) and for every u > 0, the terms with
    k >= 1 are one span value: with c = 1/u = a/b and the scaled span_rows
    Lhat, sum_k w_k b**(m-k) Lhat_{k-1} over den b**(m-1), one span_dot and
    one g_span_eval, so the guard digits grow with the cancellation of the
    whole sum; G(c) is cross-checked between quadrature and mpmath.e1 once
    per (c, precision). Path "quadrature" integrates each log-moment
    numerically, as does k = 0 (the integrand x**-1 ln(x*u+1) is
    integrable), each term with its weight over den."""
    if path not in LOG_MOMENT_PATHS:
        raise ValueError(f"unknown path {path!r}")
    if r < 0:
        raise DomainError("k must be nonnegative")
    u = Fraction(u)
    if u < 0:
        raise DomainError("u must be nonnegative")
    if u == 0:
        return ctx.round(mpf(0))
    # the first n terms are quadratures, the rest one span value
    n = len(weights) if path == "quadrature" else int(r == 0)
    m = r + len(weights) - 1
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        for k, w in enumerate(weights[:n], start=r):
            moment = quad_semi_infinite(
                Integrand(Fraction(k - 1), log_scale=u), ctx)
            total += to_bigfloat(Fraction(w, den), ctx) * moment
        if n < len(weights):
            c, b = 1 / u, u.numerator
            p, q = span_dot((w * b ** (m - k) for k, w in
                             enumerate(weights[n:], start=r + n)),
                            span_rows(m - 1, c)[1][r + n - 1:])
            scale = den * b ** (m - 1)
            total += g_span_eval(DeltaLinear(Fraction(p, scale),
                                             Fraction(q, scale), c), ctx)
    return ctx.round(total)


def shifted_log_moment(k: int, u: Fraction | int, ctx: PrecisionContext,
                       path: str = "exact") -> BigFloat:
    """integral(0,inf) x**(k-1) e**-x ln((x+u)/u) dx for u > 0; identical to
    log_moment(k, 1/u) because ln((x+u)/u) = ln(x/u + 1)."""
    u = Fraction(u)
    if u <= 0:
        raise DomainError("u must be positive")
    return log_moment(k, 1 / u, ctx, path=path)

