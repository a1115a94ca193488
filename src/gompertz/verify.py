"""Exact and numeric identity verification: terminating hypergeometric sums
with their Gauss closed forms, the two alternating binomial-sum identities
(exact over Q), the shift expansion satisfied by the normalized log-moments
(its one-step case is the shift recurrence), partial sums of the double
series converging to u, and the digamma-series harness with its convention
calibration. The identity grids run row by row over integer tables built
once per row: each point's left side is one integer dot product or suffix
sum, compared with its closed form by cross-multiplication.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, perm, prod
from operator import mul

import mpmath
from mpmath import mp, mpf

from .errors import (DegenerateCase, DegenerateDenominator, DomainError,
                     ZeroDenominator)
from .exactmath import (B1_MINUS_HALF, B1_PLUS_HALF, BERNOULLI_CONVENTIONS,
                        binom_gen, factorial, span_weights, stirling2)
from .integrals import log_moment_sum
from .precision import BigFloat, PrecisionContext, to_bigfloat
from .reference import Integrand, digamma, gamma_real, quad_semi_infinite

EXACT_PASS = "ExactPass"
NUMERIC_PASS = "NumericPass"
FAIL = "Fail"
SKIPPED = "Skipped"

#: Rational sample points inside the (-1, -1/2) window; exact arithmetic
#: makes the binomial-sum checks zero-tolerance.
EPS_WINDOW_SAMPLES = (Fraction(-3, 4), Fraction(-2, 3), Fraction(-5, 9))

#: Largest `identities --max-m`: the grids grow like m**3 points, and
#: m = 100 takes a few seconds.
IDENTITY_M_MAX_CAP = 100

_ZERO = Fraction(0)  # the residual of every exact pass
_M_EQUALS_R = "right-hand side divides by m - r = 0"


class HyperGeomParams(namedtuple("HyperGeomParams", "a b c x")):
    """2F1 parameters; all uses here are terminating (b a nonpositive int)."""

    __slots__ = ()

    def __new__(cls, a: Fraction, b: Fraction, c: Fraction, x: Fraction):
        return super().__new__(cls, *map(Fraction, (a, b, c, x)))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace coerces


#: One identity point; tolerance is set only by a numeric comparison.
IdentityReport = namedtuple("IdentityReport", "identity_name parameters lhs "
                            "rhs verdict residual tolerance", defaults=(None,))


def _compare_pairs(name: str, params: dict, lhs: tuple[int, int],
                   rhs: tuple[int, int]) -> IdentityReport:
    """Exact comparison of the unreduced integer ratios lhs = (ln, ld) and
    rhs = (rn, rd), nonzero denominators of either sign, by ln*rd == rn*ld.
    A pass reduces the closed form rhs, the same value in fewer digits,
    reported as both sides; a fail reduces both and reports lhs - rhs."""
    (ln, ld), (rn, rd) = lhs, rhs
    if ln * rd == rn * ld:
        value = Fraction(rn, rd)
        return IdentityReport(name, params, value, value, EXACT_PASS, _ZERO)
    left, right = Fraction(ln, ld), Fraction(rn, rd)
    return IdentityReport(name, params, left, right, FAIL, left - right)


def _hypergeom_pair(an: int, ad: int, n: int, cn: int, cd: int, xn: int,
                    xd: int) -> tuple[int, int]:
    """2F1(a, -n; c; x) for a = an/ad, c = cn/cd, x = xn/xd as an unreduced
    pair: n + 1 terms over one running denominator, each from the last by
    t_{k+1}/t_k = (a+k)(k-n) x/((c+k)(k+1)); no c + k may vanish, k < n."""
    total = num = den = 1
    for k in range(n):
        step = ad * xd * (cn + k * cd) * (k + 1)
        num *= (an + k * ad) * (k - n) * xn * cd
        den *= step
        total = total * step + num
    return total, den


def _terminating_pair(p: HyperGeomParams) -> tuple[int, int]:
    """hypergeom_terminating's sum as an unreduced pair, after its checks."""
    if p.b > 0 or p.b.denominator != 1:
        raise DomainError(f"b must be a nonpositive integer, got {p.b}")
    n = -int(p.b)
    if p.c.denominator == 1 and -n < p.c <= 0:  # c + k = 0 for a k < n
        raise ZeroDenominator(f"(c)_{1 - int(p.c)} vanished before "
                              f"termination (c={p.c}, b={p.b})")
    (an, ad), (cn, cd), (xn, xd) = (v.as_integer_ratio()
                                    for v in (p.a, p.c, p.x))
    return _hypergeom_pair(an, ad, n, cn, cd, xn, xd)


def hypergeom_terminating(p: HyperGeomParams) -> Fraction:
    """Exact finite 2F1 sum for nonpositive-integer b: exactly 1-b terms,
    each from the last by t_{k+1}/t_k = (a+k)(b+k) x/((c+k)(k+1))."""
    return Fraction(*_terminating_pair(p))


def check_gauss_terminating(p: HyperGeomParams,
                            closed_form: Fraction) -> IdentityReport:
    """Exact comparison of the terminating sum against its Gauss closed form
    (supplied already reduced to a rational)."""
    params = {"a": str(p.a), "b": str(p.b), "c": str(p.c), "x": str(p.x)}
    return _compare_pairs("gauss_terminating", params, _terminating_pair(p),
                          Fraction(closed_form).as_integer_ratio())


def _factorial_ratios(n: int) -> list[int]:
    """n!/k! at [k], for k <= n."""
    return [factorial(n) // factorial(k) for k in range(n + 1)]


def _gen_binomial_row(m: int, r: int, eps: Fraction):
    """check_gen_binomial_sum at (m, r, eps) as a function of (i, params,
    _factorial_ratios(m - i)), over tables A_j, E_j, D_m built once."""
    p, q = Fraction(eps).as_integer_ratio()
    if q == 1:  # else a factor p + s*q could vanish
        raise DomainError("eps must be a non-integer rational")
    starts, heads, dens = [1], [1], [1]  # E_j, (-1)**j m!/(m-j)! E_j, D_j
    for j in range(m):
        starts.append(starts[-1] * (p + j * q))
        heads.append(-heads[-1] * (m - j) * (p + j * q))
        dens.append(dens[-1] * (p + (j + 1 - r) * q))
    d_m = dens[-1]
    terms = [head * (d_m // den) for head, den in zip(heads, dens)]

    def point(i: int, params: dict, ratios: list[int]) -> IdentityReport:
        n = m - i
        lhs = (q ** i * sum(map(mul, terms[i:], ratios)),
               starts[i] * d_m * ratios[0])
        # the integer binomial's (m-i)! cancels the inverted one's m!
        rn = prod(range(1 - r, n + 1 - r)) * q ** m * perm(m, i)
        return _compare_pairs("gen_binomial_sum", params, lhs,
                              (-rn if i % 2 else rn, d_m))
    return point


def check_gen_binomial_sum(m: int, i: int, r: int,
                           eps: Fraction) -> IdentityReport:
    """Exact check over Q of the alternating sum with generalized-binomial
    weights collapsing to a single generalized-binomial ratio:

      sum_{j=i}^{m} C(m,j) C(eps+j-r, j)**-1 C(eps+j-1, j-i) (-1)**j
        = C(m-i-r, m-i) C(m+eps-r, m)**-1 (-1)**i

    The left side comes from the definitions, not from the right side. With
    eps = p/q, E_k = prod_{s<k} (p+sq) and D_k = prod_{s=1-r}^{k-r} (p+sq),
    C(eps+j-r, j) = D_j/(q**j j!) and C(eps+j-1, j-i) = (E_j/E_i)/(q**(j-i)
    (j-i)!). With A_j = (-1)**j C(m,j) j! E_j D_m/D_j it is the pair
    (q**i sum_{j>=i} A_j (m-i)!/(j-i)!, E_i D_m (m-i)!): one integer dot
    product per i with the row of A_j of (m, r, eps)."""
    if not (0 <= i <= m) or r < 0:
        raise DomainError(f"need 0 <= i <= m and r >= 0, got m={m} i={i} r={r}")
    point = _gen_binomial_row(m, r, eps)  # refuses an integer eps first
    return point(i, {"m": str(m), "i": str(i), "r": str(r),
                     "eps": str(Fraction(eps))}, _factorial_ratios(m - i))


def _int_binomial_row(m: int, r: int) -> list[int]:
    """S_j = sum_{k=j}^{m} (-1)**k C(m,k) C(k,r) at index j - r, for every
    r <= j <= m, in one pass from k = m down."""
    return list(accumulate((-1) ** k * comb(m, k) * comb(k, r)
                           for k in range(m, r - 1, -1)))[::-1]


def check_int_binomial_sum(m: int, j: int, r: int) -> IdentityReport:
    """Exact check of sum_{k=j}^{m} C(m,k) C(k,r) (-1)**k
    = C(m,j) C(j,r) (j-r)/(m-r) (-1)**j; undefined at m = r."""
    if not (0 <= r <= j <= m):
        raise DomainError(f"need 0 <= r <= j <= m, got m={m} j={j} r={r}")
    if m == r:
        raise DegenerateCase(_M_EQUALS_R)
    return _compare_pairs("int_binomial_sum",
                          {"m": str(m), "j": str(j), "r": str(r)},
                          (_int_binomial_row(m, r)[j - r], 1),
                          _int_binomial_closed_form(m, j, r))


def _int_binomial_closed_form(m: int, j: int, r: int) -> tuple[int, int]:
    """C(m,j) C(j,r) (j-r)/(m-r) (-1)**j as an unreduced pair."""
    num = comb(m, j) * comb(j, r) * (j - r)
    return -num if j % 2 else num, m - r


def gauss_grid(m_max: int = 15) -> list[IdentityReport]:
    """All terminating Gauss instances F(1, j-m, 1+j-r; 1) = (j-r)/(m-r)
    over 1 <= r < j <= m <= m_max. A point depends on n = m-j and d = j-r
    only, so each distinct instance is summed once, its report repeated."""
    # b = -n <= 0 and c = 1+d >= 2 on this grid, so the parameters need
    # none of check_gauss_terminating's validation: no c + k vanishes
    rows = [[None] + [_compare_pairs(
        "gauss_terminating",
        {"a": "1", "b": str(-n), "c": str(1 + d), "x": "1"},
        _hypergeom_pair(1, 1, n, 1 + d, 1, 1, 1), (d, d + n))
        for d in range(1, m_max - n)] for n in range(m_max)]
    return [rows[m - j][j - r] for m in range(1, m_max + 1)
            for j in range(1, m + 1) for r in range(1, j)]


def gen_binomial_grid(m_max: int = 12) -> list[IdentityReport]:
    """check_gen_binomial_sum over i <= m <= m_max, r <= 3 and eps in
    EPS_WINDOW_SAMPLES, nested in that order, from one _gen_binomial_row
    per (m, r, eps) and one _factorial_ratios row per m - i."""
    names = [str(k) for k in range(max(m_max, 3) + 1)]
    ratios = [_factorial_ratios(n) for n in range(m_max + 1)]
    out = []
    for m in range(m_max + 1):
        rows = [(names[r], _gen_binomial_row(m, r, eps), str(eps))
                for r in range(4) for eps in EPS_WINDOW_SAMPLES]
        out += [point(i, {"m": names[m], "i": names[i], "r": r_name,
                          "eps": eps_name}, ratios[m - i])
                for i in range(m + 1) for r_name, point, eps_name in rows]
    return out


def int_binomial_grid(m_max: int = 20) -> list[IdentityReport]:
    """check_int_binomial_sum over r <= j <= m <= m_max, nested in that
    order, from one _int_binomial_row per (m, r); each m ends with its
    degenerate point j = r = m, reported as skipped."""
    names, out = [str(k) for k in range(m_max + 1)], []
    for m in range(m_max + 1):
        rows = [_int_binomial_row(m, r) for r in range(m)]
        out += [_compare_pairs("int_binomial_sum",
                               {"m": names[m], "j": names[j], "r": names[r]},
                               (rows[r][j - r], 1),
                               _int_binomial_closed_form(m, j, r))
                for j in range(m + 1) for r in range(min(j + 1, m))]
        out.append(IdentityReport(
            "int_binomial_sum", {"m": names[m], "j": names[m], "r": names[m]},
            None, None, SKIPPED, _M_EQUALS_R))
    return out


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
                          ctx: PrecisionContext) -> IdentityReport:
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
    tol = ctx.target_tolerance(slack_digits=5)
    params = {"j": str(j), "eps": str(eps), "r": str(r), "u": str(u),
              "digits": str(ctx.decimal_digits)}
    verdict = NUMERIC_PASS if residual < tol else FAIL
    return IdentityReport("shift_expansion", params, lhs, ctx.round(rhs),
                          verdict, ctx.round(residual), tolerance=tol)


# --- partial sums of the double series whose limit is u -------------------------

def series_partial_trend(u: Fraction, r: int, m_max: int,
                         ctx: PrecisionContext,
                         path: str = "exact") -> list[tuple[int, BigFloat]]:
    """All partial sums S_r..S_m_max in one pass, as (M, S_M) pairs, where
    S_M = sum_{m=r}^{M} sum_{k=r}^{m} C(m,k) C(k,r) (-1)**(k+r)/k! times the
    k-th log-moment at u; S_M converges to u as M grows. Block m is one
    log_moment_sum of the span_weights(m, r) over (-1)**r m!."""
    if r < 0 or m_max < r:
        raise DomainError(f"need 0 <= r <= m_max, got r={r} m_max={m_max}")
    out = []
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        for m in range(r, m_max + 1):
            den = -factorial(m) if r % 2 else factorial(m)
            total += log_moment_sum(span_weights(m, r), r, den, u, ctx, path)
            out.append((m, ctx.round(total)))
    return out


# --- digamma-series harness ------------------------------------------------------

def _bernoulli_stirling_sum(w: int, convention: str) -> tuple[int, int]:
    """h(w) = sum_{j=1}^{w} (-1)**j B_j S1u(w, j) for w >= 1, in closed form,
    as the unreduced pair (numerator, w + 1). The sum is (-1)**w
    sum_j s(w, j) B_j with signed Stirling numbers s, and
    sum_{n,j} s(n, j) B_j t**n / n! = sum_j B_j ln(1+t)**j / j! = ln(1+t)/t,
    so h(w) = w!/(w+1) with B_1 = -1/2. B_1 = +1/2 moves the j = 1 term,
    S1u(w, 1) = (w-1)!, by -(w-1)!; the caller checks the convention."""
    num = factorial(w)
    if convention == B1_PLUS_HALF:
        num -= factorial(w - 1) * (w + 1)
    return num, w + 1


def digamma_series_coeff(k: int, m: int, convention: str = B1_MINUS_HALF) -> Fraction:
    """Exact coefficient sum_{t=2}^{m} S2(m,t) sum_{w=1}^{t-1} (-k)**(t-w)
    sum_{j=1}^{w} (-1)**j B_j S1u(w,j); empty for m = 1. The inner j-sum
    h(w) has a closed form over w + 1, and the w-sum p_t follows by Horner:
    p_2 = -k h(1), p_{t+1} = -k (p_t + h(t)). Every w + 1 <= m divides
    L = lcm(1..m), so the Horner runs over the integers L p_t."""
    if k < 1 or m < 1:
        raise DomainError("k and m must be positive")
    if convention not in BERNOULLI_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    scale = lcm(*range(1, m + 1))
    total = p = 0
    for t in range(2, m + 1):
        num, den = _bernoulli_stirling_sum(t - 1, convention)
        p = -k * (p + scale // den * num)
        total += stirling2(m, t) * p
    return Fraction(total, scale)


DigammaSeriesPoint = namedtuple("DigammaSeriesPoint",
                                "u m convention rhs psi residual")


def digamma_series_rhs(u: Fraction, m: int, convention: str,
                       ctx: PrecisionContext) -> DigammaSeriesPoint:
    """ln(u) + sum_{k=1}^{m} coeff(k, m+1) C(m,k) (-1)**k/(k! m!) times the
    k-th shifted log-moment, reported against digamma(u). The sum is one
    log_moment_sum, so its guard digits grow with its cancellation. No
    convergence is asserted; the point records the residual as observed."""
    u = Fraction(u)
    if u <= 0:
        raise DomainError("u must be positive")
    # coeff(k, m+1) C(m,k) (-1)**k/(k! m!) is L coeff(k, m+1) w_k/(L m!**2)
    # with the span_weights(m, 0), where L = lcm(1..m+1) makes L coeff an
    # integer; shifted log-moments at u are the log-moments at 1/u. The
    # coefficient refuses an unknown convention
    scale = lcm(*range(1, m + 2))
    weights = [int(digamma_series_coeff(k, m + 1, convention) * scale) * w
               for k, w in enumerate(span_weights(m, 0)) if k]
    series = log_moment_sum(weights, 1, scale * factorial(m) ** 2, 1 / u, ctx)
    with mp.workprec(ctx.inner_bits):
        rhs = mpmath.log(to_bigfloat(u, ctx)) + series
        psi = digamma(u, ctx)
        residual = abs(rhs - psi)
    return DigammaSeriesPoint(u=u, m=m, convention=convention,
                              rhs=ctx.round(rhs), psi=ctx.round(psi),
                              residual=ctx.round(residual))


def digamma_series_scan(u: Fraction, m_values, conventions,
                        ctx: PrecisionContext) -> list[DigammaSeriesPoint]:
    """Scan points in canonical (convention, m) order."""
    return [digamma_series_rhs(u, m, conv, ctx)
            for conv in conventions for m in m_values]


def calibrated_convention(points) -> str:
    """The convention of the smaller residual of two points at one (u, m),
    one per convention; equal residuals make the point degenerate."""
    residual = {pt.convention: pt.residual for pt in points}
    minus, plus = residual[B1_MINUS_HALF], residual[B1_PLUS_HALF]
    if minus == plus:
        raise DomainError("conventions produced identical residuals; "
                          "calibration point is degenerate")
    return B1_MINUS_HALF if minus < plus else B1_PLUS_HALF

