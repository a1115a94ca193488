"""Exact integer approximant sequences (a_m, b_m), whose ratios converge to
+delta (family 1) or -delta (family 2), with ratio/error tables against the
cross-validated reference value.

Both are one integrals.span_dot of w_k = span_weights(m, r) with the c = 1
span rows (p, q) = p + q*delta of I_k = <x**k/(x+1)> and L_k = <x**k ln(x+1)>
(integrals.span_rows, with <f> = integral(0,inf) f e**-x dx).
With Q(x) = sum_{k=r}^{m} w_k x**(k-1), family 2 is a + b*delta
= sum w_k L_{k-1} = <Q ln(x+1)>, and family 1 is (-A, B) for
A + B*delta = sum w_k I_k, so b*delta - a = <Q x/(x+1)>. A table makes
every m <= M in one pass: as w_k = (-1)**k C(m,k) C(k,r) m!/k!, the m-th sum
is sum_k C(m,k) S_k over M!/m!, a binomial transform of the integers
S_k = (-1)**k C(k,r) (M!/k!) row_k, row_k = I_k or L_{k-1}.

Family 1 as printed converges to +delta even though the source states -delta
(direct evaluation at m = 1..3 gives ratios 0.5, 0.571, 0.588); the table
carries an explicit target_sign so the discrepancy stays visible downstream.
At r = 0 the sign is known: a_m and b_m both satisfy
y_m = 2m y_{m-1} - (m-1)**2 y_{m-2}, so a_m/b_m is the m-th convergent of the
Laguerre continued fraction delta = 1/(2 - 1**2/(4 - 2**2/(6 - ...))), and
the convergents rise to +delta, as a_{m+1} b_m - a_m b_{m+1} = (m!)**2 > 0
and every b_m > 0.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, perm

from mpmath import mp, mpf

from .errors import DomainError
from .exactmath import span_weights
from .integrals import span_dot, span_rows
from .precision import PrecisionContext
from .reference import delta_reference

#: Limit sign of a_m/b_m per family: a + b*delta (family 2) and
#: b*delta - a (family 1) are the integrals of Q above, small against b.
TARGET_SIGNS = {1: "+", 2: "-"}

DEFAULT_M_MAX_CAP = 200


#: One table row; ratio and abs_error are None on the single degenerate
#: point where the denominator sequence vanishes (family 2, m = r = 2 has
#: b = 0).
ApproximantRow = namedtuple("ApproximantRow", "m r corollary a b ratio "
                            "abs_error target_sign")


def _check_r(corollary: int, m: int, r: int) -> None:
    if r < corollary - 1:  # family 2 starts at r = 1
        raise DomainError("r must be nonnegative" if corollary == 1
                          else "r must be positive for family 2")
    if m < r:
        raise DomainError(f"need m >= r, got m={m} r={r}")


def corollary1_pair(m: int, r: int) -> tuple[int, int]:
    """Family-1 pair (-A, B) with A + B*delta = sum_{k=r}^{m} w_k I_k, that
    is sum C(m,k)**2 C(k,r) (m-k)! times alt_factorial_sum(k) (a) or 1 (b)."""
    _check_r(1, m, r)
    a, b = span_dot(span_weights(m, r), span_rows(m)[0][r:])
    return -a, b


def corollary2_pair(m: int, r: int) -> tuple[int, int]:
    """Family-2 pair a + b*delta = sum_{k=r}^{m} w_k L_{k-1}, that is
    (-1)**r m! times the m-th block of the double series at u = 1."""
    _check_r(2, m, r)
    return span_dot(span_weights(m, r), span_rows(m - 1)[1][r - 1:])


def _binomial_transform(s: list[int]) -> list[int]:
    """sum_k C(m,k) s_k at [m] for every m < len(s), by Pascal additions:
    after m passes of s_k <- s_k + s_{k+1}, s_0 is the m-th sum."""
    out = []
    while s:
        out.append(s[0])
        s = [a + b for a, b in zip(s, s[1:])]
    return out


def table_pairs(corollary: int, r: int, m_max: int) -> list[tuple[int, int]]:
    """corollary{1,2}_pair(m, r) at [m] for every m <= m_max (zero below r)
    from one binomial transform (see above), each division checked exact."""
    _check_r(corollary, m_max, r)
    frac, log = span_rows(m_max)
    rows = frac if corollary == 1 else [(0, 0), *log]  # S_0 = 0 at r >= 1
    scales = [perm(m_max, m_max - k) for k in range(m_max + 1)]  # M!/k!
    s = [[(-1) ** k * comb(k, r) * scale * row[i]
          for k, (scale, row) in enumerate(zip(scales, rows))] for i in (0, 1)]
    pairs = []
    for m, sums in enumerate(zip(*map(_binomial_transform, s))):
        (a, rest_a), (b, rest_b) = (divmod(t, scales[m]) for t in sums)
        if rest_a or rest_b:
            raise ArithmeticError(f"family {corollary} sum at m={m} is not "
                                  f"divisible by M!/m!")
        pairs.append((-a if corollary == 1 else a, b))
    return pairs


def approx_table(corollary: int, r: int, m_max: int,
                 ctx: PrecisionContext) -> list[ApproximantRow]:
    """Rows for m = max(r,1)..m_max with exact (a, b) from one table_pairs;
    the single division a/b happens at output precision (the sums cancel
    massively, so floating summation would be wrong by many orders)."""
    if m_max < max(r, 1):
        raise DomainError(f"need m_max >= max(r,1), got m_max={m_max} r={r}")
    if m_max > DEFAULT_M_MAX_CAP:
        raise DomainError(f"m_max capped at {DEFAULT_M_MAX_CAP}")
    if corollary not in TARGET_SIGNS:
        raise ValueError(f"corollary must be 1 or 2, got {corollary}")
    pairs = table_pairs(corollary, r, m_max)
    sign = TARGET_SIGNS[corollary]
    delta = delta_reference(ctx)
    rows = []
    with mp.workprec(ctx.working_bits):
        target = delta if sign == "+" else -delta
        for m in range(max(r, 1), m_max + 1):
            a, b = pairs[m]
            if b == 0:
                ratio = err = None
            else:  # each operation rounds once, at working precision
                ratio = mpf(a) / mpf(b)
                err = abs(ratio - target)
            rows.append(ApproximantRow(m=m, r=r, corollary=corollary, a=a, b=b,
                                       ratio=ratio, abs_error=err,
                                       target_sign=sign))
    return rows
