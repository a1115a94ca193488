"""Exact and numeric identity verification: terminating hypergeometric sums
with their Gauss closed forms, the two alternating binomial-sum identities
(exact over Q), partial sums of the double series converging to u, and the
digamma-series harness with its convention calibration. The identity grids
yield each point as a plain tuple whose two sides are unreduced integer
pairs, from tables built once per row; point_verdict compares them by
cross-multiplication alone, and point_residual reduces their difference.
The numeric half reads only log_moment_sum and digamma; the shift expansion
of the normalized log-moments, a property test of the quadrature, is an
oracle in tests/integral_oracles.py.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, perm, prod

import mpmath
from mpmath import mp

from .errors import DomainError
from .exactmath import factorial, span_weights, stirling2
from .integrals import log_moment_sum
from .precision import BigFloat, PrecisionContext, to_bigfloat
from .reference import digamma

#: The digamma-series harness's Bernoulli sign conventions for B_1.
B1_MINUS_HALF = "B1_minus_half"
B1_PLUS_HALF = "B1_plus_half"
BERNOULLI_CONVENTIONS = (B1_MINUS_HALF, B1_PLUS_HALF)

EXACT_PASS = "ExactPass"
FAIL = "Fail"
SKIPPED = "Skipped"

#: Rational sample points inside the (-1, -1/2) window; exact arithmetic
#: makes the binomial-sum checks zero-tolerance.
EPS_WINDOW_SAMPLES = (Fraction(-3, 4), Fraction(-2, 3), Fraction(-5, 9))

#: Largest `identities --max-m`: the grids grow like m**3 points, and
#: m = 100 takes a few seconds.
IDENTITY_M_MAX_CAP = 100


def point_verdict(point: tuple) -> str:
    """The verdict of an identity point (identity_name, parameters, lhs,
    rhs), whose sides are unreduced integer ratios (n, d), nonzero d of
    either sign, by cross-multiplication alone; rhs is None where the
    closed form is undefined, and the point is skipped."""
    lhs, rhs = point[2:]
    if rhs is None:
        return SKIPPED
    return EXACT_PASS if lhs[0] * rhs[1] == rhs[0] * lhs[1] else FAIL


def point_residual(point: tuple) -> Fraction | str:
    """lhs - rhs of an identity point (see point_verdict), reduced, so 0 at
    a pass; for a skipped point, the reason its closed form is undefined."""
    lhs, rhs = point[2:]
    if rhs is None:  # int_binomial_grid's m = r points
        return "right-hand side divides by m - r = 0"
    return Fraction(*lhs) - Fraction(*rhs)


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


def _gen_binomial_row(m: int, r: int, eps: Fraction):
    """The row A_j of gen_binomial_grid at (m, r, eps), and its point as a
    function of (i, params, sum_{j>=i} A_j (m-i)!/(j-i)!), over tables A_j,
    E_j, D_m built once. With eps = p/q, E_k = prod_{s<k} (p+sq) and
    D_k = prod_{s=1-r}^{k-r} (p+sq), C(eps+j-r, j) = D_j/(q**j j!) and
    C(eps+j-1, j-i) = (E_j/E_i)/(q**(j-i) (j-i)!); with A_j = (-1)**j C(m,j)
    j! E_j D_m/D_j the left side is the pair (q**i sum_{j>=i} A_j
    (m-i)!/(j-i)!, E_i D_m (m-i)!)."""
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

    def point(i: int, params: dict, dot: int) -> tuple:
        n = m - i
        lhs = (q ** i * dot, starts[i] * d_m * factorial(n))
        # the integer binomial's (m-i)! cancels the inverted one's m!
        rn = prod(range(1 - r, n + 1 - r)) * q ** m * perm(m, i)
        return "gen_binomial_sum", params, lhs, (-rn if i % 2 else rn, d_m)
    return terms, point


def _horner_dots(terms: list[int]) -> list[int]:
    """sum_{j>=i} A_j (m-i)!/(j-i)! at [i] for every i <= m, terms = A_0..A_m,
    by Horner in k = j - i for every i at once: after step k, acc[i] is
    sum_{l<=k} A_{i+l} k!/l!, the dot of i = m - k as the last entry."""
    acc, dots = terms, [terms[-1]]
    for k in range(1, len(terms)):
        acc = [a * k + t for a, t in zip(acc, terms[k:])]
        dots.append(acc[-1])
    return dots[::-1]


def _int_binomial_row(m: int, r: int) -> list[int]:
    """S_j = sum_{k=j}^{m} (-1)**k C(m,k) C(k,r) at index j - r, for every
    r <= j <= m, in one pass from k = m down."""
    return list(accumulate((-1) ** k * comb(m, k) * comb(k, r)
                           for k in range(m, r - 1, -1)))[::-1]


def _int_binomial_closed_form(m: int, j: int, r: int) -> tuple[int, int]:
    """C(m,j) C(j,r) (j-r)/(m-r) (-1)**j as an unreduced pair."""
    num = comb(m, j) * comb(j, r) * (j - r)
    return -num if j % 2 else num, m - r


def gauss_grid(m_max: int = 15):
    """The points (see point_verdict) of all terminating Gauss instances
    F(1, j-m, 1+j-r; 1) = (j-r)/(m-r) over 1 <= r < j <= m <= m_max. A point
    depends on n = m-j and d = j-r only, so each distinct instance is
    summed once, its point repeated."""
    # b = -n <= 0 and c = 1+d >= 2 on this grid, so no c + k vanishes
    rows = [[None] + [("gauss_terminating",
                       {"a": "1", "b": str(-n), "c": str(1 + d), "x": "1"},
                       _hypergeom_pair(1, 1, n, 1 + d, 1, 1, 1), (d, d + n))
                      for d in range(1, m_max - n)] for n in range(m_max)]
    return (rows[m - j][j - r] for m in range(1, m_max + 1)
            for j in range(1, m + 1) for r in range(1, j))


def gen_binomial_grid(m_max: int = 12):
    """Yield the points (see point_verdict) of the alternating sum with
    generalized-binomial weights, exact over Q,

      sum_{j=i}^{m} C(m,j) C(eps+j-r, j)**-1 C(eps+j-1, j-i) (-1)**j
        = C(m-i-r, m-i) C(m+eps-r, m)**-1 (-1)**i,

    over i <= m <= m_max, r <= 3 and eps in EPS_WINDOW_SAMPLES, nested in
    that order, from one _gen_binomial_row and one _horner_dots per
    (m, r, eps)."""
    names = [str(k) for k in range(max(m_max, 3) + 1)]
    for m in range(m_max + 1):
        rows = [(names[r], str(eps), point, _horner_dots(terms))
                for r in range(4) for eps in EPS_WINDOW_SAMPLES
                for terms, point in [_gen_binomial_row(m, r, eps)]]
        yield from (point(i, {"m": names[m], "i": names[i], "r": r_name,
                              "eps": eps_name}, dots[i])
                    for i in range(m + 1) for r_name, eps_name, point, dots
                    in rows)


def int_binomial_grid(m_max: int = 20):
    """Yield the points (see point_verdict) of sum_{k=j}^{m} C(m,k) C(k,r)
    (-1)**k = C(m,j) C(j,r) (j-r)/(m-r) (-1)**j over r <= j <= m <= m_max,
    nested in that order, from one _int_binomial_row per (m, r); each m
    ends with its degenerate point j = r = m, whose rhs is None."""
    names = [str(k) for k in range(m_max + 1)]
    for m in range(m_max + 1):
        rows = [_int_binomial_row(m, r) for r in range(m)]
        yield from (("int_binomial_sum",
                     {"m": names[m], "j": names[j], "r": names[r]},
                     (rows[r][j - r], 1), _int_binomial_closed_form(m, j, r))
                    for j in range(m + 1) for r in range(min(j + 1, m)))
        yield ("int_binomial_sum",
               {"m": names[m], "j": names[m], "r": names[m]}, None, None)


# --- partial sums of the double series whose limit is u -------------------------

def series_partial_trend(u: Fraction, r: int, m_max: int,
                         ctx: PrecisionContext) -> list[tuple[int, BigFloat]]:
    """(M, S_M) for r <= M <= m_max, S_M = sum_{m=r}^{M} sum_{k=r}^{m} C(m,k)
    C(k,r) (-1)**(k+r)/k! L_k -> u with L_k the k-th log-moment at u. By the
    hockey stick S_M = <P_M(x) ln(x*u+1)>, <f> = integral(0,inf) f e**-x dx:
    one log_moment_sum of (-1)**r M! P_M(x)'s x**(k-1) coefficients W_k =
    (-1)**k C(k,r) C(M+1,k+1) M!/k!, by W <- M W + span_weights(M, r)."""
    if r < 0 or m_max < r:
        raise DomainError(f"need 0 <= r <= m_max, got r={r} m_max={m_max}")
    out, coeffs = [], []
    for m in range(r, m_max + 1):
        coeffs = [m * w + s for w, s in zip(coeffs + [0], span_weights(m, r))]
        den = -factorial(m) if r % 2 else factorial(m)
        out.append((m, log_moment_sum(coeffs, r, den, u, ctx)))
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


def digamma_series_scan(u: Fraction, m_values,
                        ctx: PrecisionContext) -> list[DigammaSeriesPoint]:
    """Scan points under both conventions, in canonical (convention, m)
    order."""
    return [digamma_series_rhs(u, m, conv, ctx)
            for conv in BERNOULLI_CONVENTIONS for m in m_values]


def calibrated_convention(points) -> str:
    """The convention of the smaller residual of two points at one (u, m),
    one per convention; equal residuals make the point degenerate."""
    residual = {pt.convention: pt.residual for pt in points}
    minus, plus = residual[B1_MINUS_HALF], residual[B1_PLUS_HALF]
    if minus == plus:
        raise DomainError("conventions produced identical residuals; "
                          "calibration point is degenerate")
    return B1_MINUS_HALF if minus < plus else B1_PLUS_HALF

