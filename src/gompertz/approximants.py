"""Exact integer approximant sequences (a_m, b_m), whose ratios converge to
+delta (family 1) or -delta (family 2), with ratio/error tables against the
cross-validated reference value.

Both are one integrals.span_dot of w_k = span_weights(m, r) with the c = 1
span rows (p, q) = p + q*delta of I_k = <x**k/(x+1)> and L_k = <x**k ln(x+1)>
(integrals.span_rows, with <f> = integral(0,inf) f e**-x dx).
With Q(x) = sum_{k=r}^{m} w_k x**(k-1), family 2 is a + b*delta
= sum w_k L_{k-1} = <Q ln(x+1)>, and family 1 is (-A, B) for
A + B*delta = sum w_k I_k, so b*delta - a = <Q x/(x+1)>.

Family 1 as printed converges to +delta even though the source states -delta
(direct evaluation at m = 1..3 gives ratios 0.5, 0.571, 0.588); the table
carries an explicit target_sign so the discrepancy stays visible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError
from .exactmath import span_weights
from .integrals import span_dot, span_rows
from .precision import BigFloat, PrecisionContext, to_bigfloat
from .reference import delta_reference

#: Limit sign of a_m/b_m per family: a + b*delta (family 2) and
#: b*delta - a (family 1) are the integrals of Q above, small against b.
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
    """Family-1 pair (-A, B) with A + B*delta = sum_{k=r}^{m} w_k I_k, that
    is sum C(m,k)**2 C(k,r) (m-k)! times alt_factorial_sum(k) (a) or 1 (b)."""
    if r < 0:
        raise DomainError("r must be nonnegative")
    if m < r:
        raise DomainError(f"need m >= r, got m={m} r={r}")
    a, b = span_dot(span_weights(m, r), span_rows(m)[0][r:])
    return -a, b


def corollary2_pair(m: int, r: int) -> tuple[int, int]:
    """Family-2 pair a + b*delta = sum_{k=r}^{m} w_k L_{k-1}, that is
    (-1)**r m! times the m-th block of the double series at u = 1."""
    if r < 1:
        raise DomainError("r must be positive for family 2")
    if m < r:
        raise DomainError(f"need m >= r, got m={m} r={r}")
    return span_dot(span_weights(m, r), span_rows(m - 1)[1][r - 1:])


def approx_table(corollary: int, r: int, m_max: int,
                 ctx: PrecisionContext) -> list[ApproximantRow]:
    """Rows for m = max(r,1)..m_max with exact (a, b); the single division
    a/b happens at output precision (the sums cancel massively, so floating
    summation would be wrong by many orders)."""
    if m_max < max(r, 1):
        raise DomainError(f"need m_max >= max(r,1), got m_max={m_max} r={r}")
    if m_max > DEFAULT_M_MAX_CAP:
        raise DomainError(f"m_max capped at {DEFAULT_M_MAX_CAP}")
    if corollary not in TARGET_SIGNS:
        raise ValueError(f"corollary must be 1 or 2, got {corollary}")
    pair = corollary1_pair if corollary == 1 else corollary2_pair
    sign = TARGET_SIGNS[corollary]
    delta = delta_reference(ctx)
    rows = []
    with mp.workprec(ctx.working_bits):
        target = delta if sign == "+" else -delta
        for m in range(max(r, 1), m_max + 1):
            a, b = pair(m, r)
            if b == 0:
                ratio = err = None
            else:
                ratio = ctx.round(to_bigfloat(a, ctx) / to_bigfloat(b, ctx))
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
