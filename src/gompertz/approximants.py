"""Exact integer approximant sequences (a_m, b_m), each pair one k-loop of
integer steps, whose ratios converge to +delta (family 1) or -delta
(family 2), with ratio/error tables against the cross-validated reference
value.

Family 1 as printed converges to +delta even though the source states -delta
(direct evaluation at m = 1..3 gives ratios 0.5, 0.571, 0.588); the table
carries an explicit target_sign so the discrepancy stays visible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError
from .exactmath import alt_factorial_sum, binom_int, factorial
from .precision import BigFloat, PrecisionContext, to_bigfloat
from .reference import delta_reference

#: Empirical limit sign of a_m/b_m per family, confirmed against the
#: reference value at table-build time.
TARGET_SIGNS = {1: "+", 2: "-"}

DEFAULT_M_MAX_CAP = 200


@dataclass(frozen=True)
class ApproximantRow:
    """ratio and abs_error are None on the single degenerate point where the
    denominator sequence vanishes (family 2, m = r = 2 has b = 0)."""

    m: int
    r: int
    corollary: int
    a: int
    b: int
    ratio: BigFloat | None
    abs_error: BigFloat | None
    target_sign: str


def corollary1_pair(m: int, r: int) -> tuple[int, int]:
    """Family-1 pair: b = sum C(m,k)**2 C(k,r) (m-k)!, a the same sum with
    each term weighted by alt_factorial_sum(k), carried along the loop."""
    if r < 0:
        raise DomainError("r must be nonnegative")
    if m < r:
        raise DomainError(f"need m >= r, got m={m} r={r}")
    a = b = 0
    alt = alt_factorial_sum(r)
    kfact = factorial(r)
    for k in range(r, m + 1):
        w = binom_int(m, k) ** 2 * binom_int(k, r) * factorial(m - k)
        a += w * alt
        b += w
        alt += -kfact if k % 2 else kfact
        kfact *= k + 1
    return a, b


def corollary2_pair(m: int, r: int) -> tuple[int, int]:
    """Family-2 pair m! sum_k C(m,k) C(k,r)/k sum_{j<k} (-1)**(k+j)/j! times
    1 (b) or -(-1)**k alt(j) (a, alt = alt_factorial_sum), grouped by k:
    b = sum_{k=r}^{m} (-1)**k C(m,k) C(k,r) (m!/k!) D_k and a the same with
    -F_k, where the integers D_k = (k-1)! sum_{j<k} (-1)**j/j! and
    F_k = (k-1)! sum_{j<k} (-1)**j alt(j)/j! step from D_0 = F_0 = 0. So a
    and b are integers by construction, in O(m) integer steps."""
    if r < 1:
        raise DomainError("r must be positive for family 2")
    if m < r:
        raise DomainError(f"need m >= r, got m={m} r={r}")
    a = b = 0
    d = f = alt = 0  # D_{k-1}, F_{k-1}, alt(k-1)
    fact = 1  # (k-1)!
    m_over_k = factorial(m)  # m!/(k-1)!, then m!/k! after the // k
    for k in range(1, m + 1):
        sign = 1 if k % 2 else -1  # (-1)**(k-1)
        d = (k - 1) * d + sign
        f = (k - 1) * f + sign * alt
        alt += sign * fact
        fact *= k
        m_over_k //= k
        if k >= r:
            w = binom_int(m, k) * binom_int(k, r) * m_over_k
            b -= sign * w * d  # (-1)**k = -sign
            a += sign * w * f
    return a, b


def _pair(corollary: int, m: int, r: int) -> tuple[int, int]:
    if corollary == 1:
        return corollary1_pair(m, r)
    if corollary == 2:
        return corollary2_pair(m, r)
    raise ValueError(f"corollary must be 1 or 2, got {corollary}")


def approx_table(corollary: int, r: int, m_max: int,
                 ctx: PrecisionContext) -> list[ApproximantRow]:
    """Rows for m = max(r,1)..m_max with exact (a, b); the single division
    a/b happens at output precision (the sums cancel massively, so floating
    summation would be wrong by many orders)."""
    if m_max < max(r, 1):
        raise DomainError(f"need m_max >= max(r,1), got m_max={m_max} r={r}")
    if m_max > DEFAULT_M_MAX_CAP:
        raise DomainError(f"m_max capped at {DEFAULT_M_MAX_CAP}")
    sign = TARGET_SIGNS[1] if corollary == 1 else TARGET_SIGNS[2]
    ms = list(range(max(r, 1), m_max + 1))
    pairs = [_pair(corollary, m, r) for m in ms]
    delta = delta_reference(ctx)
    rows = []
    with mp.workprec(ctx.working_bits):
        target = delta if sign == "+" else -delta
        for m, (a, b) in zip(ms, pairs):
            if b == 0:
                ratio = err = None
            else:
                ratio = ctx.round(to_bigfloat(Fraction(a), ctx)
                                  / to_bigfloat(Fraction(b), ctx))
                err = ctx.round(abs(ratio - target))
            rows.append(ApproximantRow(m=m, r=r, corollary=corollary, a=a, b=b,
                                       ratio=ratio, abs_error=err,
                                       target_sign=sign))
    return rows


@dataclass(frozen=True)
class DecayReport:
    m_list: tuple[int, ...]
    error_list: tuple[BigFloat, ...]
    decade_gains: tuple[tuple[int, int, BigFloat], ...]  # (m, m', e_m/e_m')


def error_decay_report(rows: list[ApproximantRow],
                       pairs: list[tuple[int, int]] | None = None) -> DecayReport:
    """Per-row errors plus e_m/e_m' ratios for the requested (m, m') pairs;
    defaults to the (first, last) pair, empty when only one row exists.
    No monotonicity is claimed. Degenerate rows (ratio undefined) are
    excluded from the report."""
    rows = [row for row in rows if row.abs_error is not None]
    if not rows:
        raise DomainError("at least one non-degenerate row required")
    by_m = {row.m: row for row in rows}
    ms = tuple(sorted(by_m))
    errors = tuple(by_m[m].abs_error for m in ms)
    if pairs is None:
        pairs = [(ms[0], ms[-1])] if len(ms) > 1 else []
    gains = []
    with mp.workprec(128):
        for m_from, m_to in pairs:
            if m_from not in by_m or m_to not in by_m:
                raise DomainError(f"pair ({m_from}, {m_to}) not present in rows")
            e_to = by_m[m_to].abs_error
            gains.append((m_from, m_to,
                          by_m[m_from].abs_error / e_to if e_to != 0 else mpf("inf")))
    return DecayReport(m_list=ms, error_list=errors, decade_gains=tuple(gains))
