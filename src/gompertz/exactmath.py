"""Exact integer/rational combinatorics: binomials (integer and generalized),
factorials, Stirling numbers of both kinds, Bernoulli numbers, alternating
factorial sums and the approximants' binomial weights.

Everything here is exact (Python int / Fraction). The Stirling and
Bernoulli memo tables only ever grow, by appending rows in order. The
package starts no threads, so they take no lock.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial  # raises ValueError for n < 0


def binom_int(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero outside 0 <= k <= n (out-of-range terms
    in the summation formulas vanish rather than error)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_gen(x: Fraction | int, k: int) -> Fraction:
    """Generalized binomial x(x-1)...(x-k+1)/k! at rational x = p/q, k >= 0:
    the integer product of (p - t*q) over q**k k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    num = 1
    for t in range(k):
        num *= p - t * q
    return Fraction(num, q ** k * math.factorial(k))


# Stirling tables, grown row by row; row m depends only on row m-1.
_stirling2_rows: list[list[int]] = [[1]]
_stirling1_rows: list[list[int]] = [[1]]


def _grow_stirling(rows: list[list[int]], n: int, second_kind: bool) -> None:
    while len(rows) <= n:
        m = len(rows)
        prev = rows[m - 1]
        row = [0] * (m + 1)
        for t in range(1, m + 1):
            left = prev[t] if t < m else 0
            mult = t if second_kind else (m - 1)
            row[t] = mult * left + prev[t - 1]
        rows.append(row)


def stirling2(m: int, t: int) -> int:
    """Partitions of an m-set into t nonempty blocks; 0 when t > m."""
    if m < 0 or t < 0:
        raise ValueError("arguments must be nonnegative")
    if t > m:
        return 0
    if m >= len(_stirling2_rows):
        _grow_stirling(_stirling2_rows, m, second_kind=True)
    return _stirling2_rows[m][t]


def stirling1_unsigned(w: int, j: int) -> int:
    """Permutations of w elements with j cycles (unsigned first kind);
    0 when j > w. Signs are carried explicitly by callers."""
    if w < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if j > w:
        return 0
    if w >= len(_stirling1_rows):
        _grow_stirling(_stirling1_rows, w, second_kind=False)
    return _stirling1_rows[w][j]


def _next_tangent_column(column: list[int]) -> list[int]:
    """Column j of Brent and Harvey's in-place tangent-number table (Fast
    computation of Bernoulli, tangent and secant numbers, 2011), from column
    j - 1. Entry k - 1 of column j is t[j] after pass k (pass 1 sets
    t[j] = (j-1)!); the last entry is the tangent number T_j, the
    coefficient in tan x = sum T_j x**(2j-1) / (2j-1)!. Extending column by
    column does the same integer work as the whole table at once, and needs
    no final size."""
    j = len(column) + 1
    u = (j - 1) * column[0]
    out = [u]
    for k in range(2, j):
        u = (j - k) * column[k - 1] + (j - k + 2) * u
        out.append(u)
    out.append(2 * u)
    return out


# Entry k is B_2k; _tangent_column is the table column of the last entry.
_bernoulli_even: list[Fraction] = [Fraction(1), Fraction(1, 6)]
_tangent_column: list[int] = [1]


def _grow_bernoulli(k: int) -> None:
    global _tangent_column
    table = _bernoulli_even
    while len(table) <= k:
        assert len(_tangent_column) == len(table) - 1
        _tangent_column = column = _next_tangent_column(_tangent_column)
        i = len(column)
        # B_2i = (-1)**(i-1) 2i T_i / (4**i (4**i - 1))
        four = 4 ** i
        num = 2 * i * column[-1]
        table.append(Fraction(num if i % 2 else -num, four * (four - 1)))


def bernoulli(j: int) -> Fraction:
    """B_j, with B_1 = -1/2."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if j & 1:
        return Fraction(-1, 2) if j == 1 else Fraction(0)
    k = j >> 1
    if k >= len(_bernoulli_even):
        _grow_bernoulli(k)
    return _bernoulli_even[k]


def alt_factorial_sum(k: int) -> int:
    """sum_{w=0}^{k-1} (-1)^w w!; empty sum (k = 0) is 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    term = 1  # w! with sign folded in below
    for w in range(k):
        total += term if w % 2 == 0 else -term
        term *= w + 1
    return total


def span_weights(m: int, r: int) -> list[int]:
    """The integers w_k = (-1)**k C(m,k) C(k,r) m!/k! for k = r..m (entry
    k - r), which weigh the span rows into both approximant families and,
    over m!, into the m-th block of the double series. Each follows the last
    by w_k = -w_{k-1} (m-k+1) / (k (k-r)), from w_r = (-1)**r C(m,r) m!/r!."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got m={m} r={r}")
    w = math.comb(m, r) * math.perm(m, m - r)
    weights = [-w if r % 2 else w]
    for k in range(r + 1, m + 1):
        weights.append(-weights[-1] * (m - k + 1) // (k * (k - r)))
    return weights

