from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath import mp, mpf

from conftest import absdiff
from gompertz import (DomainError, PrecisionContext, approx_table,
                      corollary1_pair, corollary2_pair, delta_reference,
                      error_decay_report, frac_integral_closed,
                      log_integral_coeffs)
from gompertz.approximants import DEFAULT_M_MAX_CAP


def oracle_pair_1(m, r):
    """Direct summation, independent of the package helpers."""
    def afs(k):
        return sum((-1) ** w * factorial(w) for w in range(k))
    a = sum(comb(m, k) ** 2 * comb(k, r) * factorial(m - k) * afs(k)
            for k in range(r, m + 1))
    b = sum(comb(m, k) ** 2 * comb(k, r) * factorial(m - k)
            for k in range(r, m + 1))
    return a, b


def oracle_pair_2(m, r):
    a = Fraction(0)
    b = Fraction(0)
    for k in range(r, m + 1):
        for j in range(k):
            b += Fraction(comb(m, k) * comb(k, r) * (-1) ** (k + j),
                          k * factorial(j))
            for i in range(j):
                a += Fraction(comb(m, k) * comb(k, r) * factorial(i)
                              * (-1) ** (k + j + i + 1), k * factorial(j))
    a *= factorial(m)
    b *= factorial(m)
    assert a.denominator == 1 and b.denominator == 1
    return int(a), int(b)


class TestPairs:
    def test_family1_frozen(self):
        assert corollary1_pair(1, 0) == (1, 2)
        assert corollary1_pair(2, 0) == (4, 7)
        assert corollary1_pair(3, 0) == (20, 34)

    def test_family1_oracle_grid(self):
        for r in range(4):
            for m in (*range(r, 16), 60):
                assert corollary1_pair(m, r) == oracle_pair_1(m, r)

    def test_family1_is_laguerre_continued_fraction(self):
        # corollary1_pair(m, 0) is the m-th convergent p_m / q_m of
        # delta = G(1) = 1/(2 - 1**2/(4 - 2**2/(6 - ...))), exactly:
        # x_m = 2m x_{m-1} - (m-1)**2 x_{m-2} from p_0, p_1 = 0, 1 and
        # q_0, q_1 = 1, 2 (the first partial numerator is 1)
        p, q = (0, 1), (1, 2)
        assert corollary1_pair(0, 0) == (p[0], q[0])
        assert corollary1_pair(1, 0) == (p[1], q[1])
        for m in range(2, DEFAULT_M_MAX_CAP + 1):
            p = (p[1], 2 * m * p[1] - (m - 1) ** 2 * p[0])
            q = (q[1], 2 * m * q[1] - (m - 1) ** 2 * q[0])
            assert corollary1_pair(m, 0) == (p[1], q[1])

    def test_family2_frozen(self):
        assert corollary2_pair(1, 1) == (0, -1)
        assert corollary2_pair(2, 1) == (2, -4)
        assert corollary2_pair(3, 1) == (12, -21)

    def test_family2_oracle_grid(self):
        for r in (1, 2):
            for m in range(r, 13):
                assert corollary2_pair(m, r) == oracle_pair_2(m, r)

    def test_family2_empty_inner_sums_at_m_equals_r(self):
        # at m = r = 1 the triple sum has no i-terms: a must be 0
        assert corollary2_pair(1, 1)[0] == 0

    def test_family2_integrality_full_sweep(self):
        # the integer recurrences against the triple sum (which checks that
        # its own result reduced to integers) for r <= 4, every m <= 40
        # and m = 50, 60
        for r in range(1, 5):
            for m in (*range(r, 41), 50, 60):
                a, b = corollary2_pair(m, r)
                assert type(a) is int and type(b) is int
                assert (a, b) == oracle_pair_2(m, r)

    def test_error_decay_secondary_r_values(self, ctx30):
        for corollary, r in ((1, 1), (2, 2)):
            rows = {row.m: row for row in approx_table(corollary, r, 40, ctx30)}
            assert rows[40].abs_error < rows[10].abs_error / 10

    def test_family2_unique_degenerate_denominator(self, ctx30):
        # the only b = 0 in r <= 4, m <= 60: the inner alternating sum
        # telescopes at m = r = 2
        assert corollary2_pair(2, 2) == (1, 0)
        rows = {row.m: row for row in approx_table(2, 2, 5, ctx30)}
        assert rows[2].ratio is None and rows[2].abs_error is None
        assert rows[3].ratio is not None
        report = error_decay_report(list(rows.values()))
        assert report.m_list[0] == 3  # degenerate row excluded

    def test_family1_positive_denominators(self):
        for r in range(3):
            for m in range(max(r, 1), 41):
                assert corollary1_pair(m, r)[1] > 0

    def test_family1_alternative_grouping(self):
        # m! sum C(m,k) C(k,r) / k! is the same series regrouped
        for r in range(3):
            for m in range(r, 41):
                _, b = corollary1_pair(m, r)
                regrouped = factorial(m) * sum(
                    Fraction(comb(m, k) * comb(k, r), factorial(k))
                    for k in range(r, m + 1))
                assert regrouped == b

    def test_pairs_are_the_papers_integrals(self):
        # <P(x) ln(x+1)> = a + b delta: family 2 is (-1)**r m! times the
        # theorem's m-th block at u = 1, sum_k (-1)**(k+r) C(m,k) C(k,r)/k!
        # times L_{k-1}; family 1's (-a, b) weighs the frac rows I_k by
        # (-1)**k C(m,k) C(k,r) m!/k!
        for r in range(4):
            for m in range(max(r, 1), 31):
                bp = bq = Fraction(0)
                fp = fq = 0
                for k in range(r, m + 1):
                    coeff = Fraction((-1) ** (k + r) * comb(m, k) * comb(k, r),
                                     factorial(k))
                    if k >= 1:
                        p, q, _ = log_integral_coeffs(k - 1, 1)
                        bp, bq = bp + coeff * p, bq + coeff * q
                    weight = (-1) ** k * comb(m, k) * comb(k, r) \
                        * factorial(m) // factorial(k)
                    p, q = frac_integral_closed(k)
                    fp, fq = fp + weight * p, fq + weight * q
                a, b = corollary1_pair(m, r)
                assert (-a, b) == (fp, fq)
                if r >= 1:
                    scale = (-1) ** r * factorial(m)
                    assert corollary2_pair(m, r) == (scale * bp, scale * bq)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            corollary1_pair(1, 2)
        with pytest.raises(DomainError):
            corollary2_pair(3, 0)
        with pytest.raises(DomainError):
            corollary1_pair(2, -1)


def casoratians(pair, r, m_min):
    """W_m = a_{m+1} b_m - a_m b_{m+1} of pair(m, r) for m_min <= m <= 200."""
    ab = [pair(m, r) for m in range(m_min, DEFAULT_M_MAX_CAP + 2)]
    return [a1 * b0 - a0 * b1 for (a0, b0), (a1, b1) in zip(ab, ab[1:])]


def recurrence_residuals(ys, coeffs, m_min):
    """c0(m) y_m + c1(m) y_{m-1} + c2(m) y_{m-2} for m_min + 2 <= m <= 200,
    where ys[i] is the value at m = m_min + i."""
    c0, c1, c2 = coeffs
    return [c0(m) * ys[m - m_min] + c1(m) * ys[m - m_min - 1]
            + c2(m) * ys[m - m_min - 2]
            for m in range(m_min + 2, DEFAULT_M_MAX_CAP + 1)]


#: delta's Laguerre continued fraction, y_m = 2m y_{m-1} - (m-1)**2 y_{m-2}
LAGUERRE = (lambda m: 1, lambda m: -2 * m, lambda m: (m - 1) ** 2)

#: (family, r) -> (c0, c1, c2): the order-2 recurrence c0(m) y_m +
#: c1(m) y_{m-1} + c2(m) y_{m-2} = 0 that a_m and b_m share from the first
#: m of the family, m = r. Each was found by an exact nullspace over Q on
#: m <= 60 at the least polynomial degree that has a solution, where the
#: nullspace is one-dimensional
ORDER2_RECURRENCES = {
    (1, 1): (lambda m: m - 1, lambda m: -m * (2 * m - 1),
             lambda m: m * (m - 1) ** 2),
    (1, 2): (lambda m: m - 2, lambda m: -2 * m * (m - 1),
             lambda m: m * (m - 1) ** 2),
    (2, 1): (lambda m: 1, lambda m: -2 * m, lambda m: m * (m - 2)),
    (2, 2): (lambda m: m - 3, lambda m: -m * (2 * m - 5),
             lambda m: m * (m - 3) * (m - 1)),
}


class TestRecurrencesAndCasoratians:
    """Exact structure of the families on every m <= 200: family 1 at r = 0
    is delta's Laguerre continued fraction, families 1 and 2 at r = 1 and
    r = 2 are order-2 recurrences, and family 2 at r <= 2 is a scaled
    family 1."""

    @pytest.mark.parametrize("part", (0, 1), ids=("a", "b"))
    def test_family1_r0_laguerre_recurrence(self, part):
        ys = [corollary1_pair(m, 0)[part] for m in range(DEFAULT_M_MAX_CAP + 1)]
        c0, _, c2 = LAGUERRE
        assert not any(recurrence_residuals(ys, LAGUERRE, 0))
        # negative control: 2m + 1 in place of 2m fails at every m
        assert all(recurrence_residuals(
            ys, (c0, lambda m: -2 * m - 1, c2), 0))

    @pytest.mark.parametrize("part", (0, 1), ids=("a", "b"))
    @pytest.mark.parametrize("family, r", sorted(ORDER2_RECURRENCES))
    def test_order2_recurrence(self, family, r, part):
        pair = corollary1_pair if family == 1 else corollary2_pair
        ys = [pair(m, r)[part] for m in range(r, DEFAULT_M_MAX_CAP + 1)]
        c0, c1, c2 = ORDER2_RECURRENCES[family, r]
        assert not any(recurrence_residuals(ys, (c0, c1, c2), r))
        # negative control: c0(m) + 1 leaves the residual y_m, which is
        # nonzero at every m the recurrence reaches
        assert all(recurrence_residuals(
            ys, (lambda m: c0(m) + 1, c1, c2), r))

    def test_family1_r0_casoratian(self):
        assert casoratians(corollary1_pair, 0, 0) == [
            factorial(m) ** 2 for m in range(DEFAULT_M_MAX_CAP + 1)]

    def test_family1_r1_casoratian(self):
        assert casoratians(corollary1_pair, 1, 1) == [
            -factorial(m) * factorial(m + 1)
            for m in range(1, DEFAULT_M_MAX_CAP + 1)]

    def test_family2_r1_casoratian(self):
        assert casoratians(corollary2_pair, 1, 1) == [
            -factorial(m - 1) * factorial(m + 1)
            for m in range(1, DEFAULT_M_MAX_CAP + 1)]

    def test_family1_r0_error_is_its_positive_tail(self):
        # by the Casoratian, delta - a_m/b_m = sum_{k>=m} (k!)**2/(b_k
        # b_{k+1}), with every term positive; the terms fall like
        # e**(-4 sqrt(k)), so stopping at k = 2100 leaves a tail below
        # 1e-55 of m = 200's error. b_k comes from the Laguerre recurrence
        m, top = DEFAULT_M_MAX_CAP, 2100
        b = [1, 2]
        for k in range(2, top + 2):
            b.append(2 * k * b[-1] - (k - 1) ** 2 * b[-2])
        with mp.workprec(300):
            tail, square = mpf(0), factorial(m) ** 2
            for k in range(m, top + 1):
                tail += square / (mpf(b[k]) * b[k + 1])
                square *= (k + 1) ** 2
        row = approx_table(1, 0, m, PrecisionContext(60))[-1]
        assert (row.m, row.b) == (m, b[m])
        assert abs(row.abs_error - tail) < mpf(10) ** -45 * tail

    @pytest.mark.parametrize("r, holds", ((1, True), (2, True), (3, False)))
    def test_family2_is_scaled_family1_at_r_up_to_2(self, r, holds):
        # corollary2_pair(m, r) = C(m, r) (a, -b) of corollary1_pair(m - r,
        # r - 1) from m = 2r; at r = 3 it fails at every such m
        for m in range(2 * r, DEFAULT_M_MAX_CAP + 1):
            a, b = corollary1_pair(m - r, r - 1)
            scaled = (comb(m, r) * a, -comb(m, r) * b)
            assert (corollary2_pair(m, r) == scaled) is holds


class TestTable:
    def test_family1_rows(self, ctx30):
        rows = approx_table(1, 0, 3, ctx30)
        assert [(row.m, row.a, row.b) for row in rows] == [
            (1, 1, 2), (2, 4, 7), (3, 20, 34)]
        assert all(row.target_sign == "+" for row in rows)
        assert absdiff(rows[1].ratio, Fraction(4, 7)) < mpf(10) ** -25
        assert absdiff(rows[1].abs_error, "0.02492") < mpf(10) ** -4
        assert absdiff(rows[0].ratio, Fraction(1, 2)) < mpf(10) ** -25

    def test_family2_rows(self, ctx30):
        rows = approx_table(2, 1, 2, ctx30)
        assert [(row.m, row.a, row.b) for row in rows] == [(1, 0, -1), (2, 2, -4)]
        assert all(row.target_sign == "-" for row in rows)
        assert absdiff(rows[1].ratio, Fraction(-1, 2)) < mpf(10) ** -25
        assert absdiff(rows[1].abs_error, "0.09634") < mpf(10) ** -4

    def test_errors_shrink_vs_correct_sign(self, ctx30):
        d = delta_reference(ctx30)
        rows = approx_table(1, 0, 12, ctx30)
        assert rows[-1].abs_error < rows[0].abs_error
        # the ratio really approaches +delta, not -delta
        assert absdiff(rows[-1].ratio, d) < mpf("0.01")

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            approx_table(1, 3, 2, ctx30)
        with pytest.raises(DomainError):
            approx_table(1, 0, 10 ** 6, ctx30)


class TestDecayReport:
    def test_frozen_error_sequence(self, ctx30):
        rows = approx_table(1, 0, 3, ctx30)
        report = error_decay_report(rows)
        assert report.m_list == (1, 2, 3)
        for got, want in zip(report.error_list, ("0.0963", "0.0249", "0.0081")):
            assert absdiff(got, mpf(want)) < mpf(10) ** -4

    def test_requested_pair(self, ctx30):
        rows = approx_table(1, 0, 40, ctx30)
        report = error_decay_report(rows, pairs=[(10, 40)])
        (m_from, m_to, gain), = report.decade_gains
        assert (m_from, m_to) == (10, 40)
        assert gain > 10

    def test_single_row_degenerates_gracefully(self, ctx30):
        rows = approx_table(1, 0, 1, ctx30)
        report = error_decay_report(rows)
        assert report.decade_gains == ()
        assert report.m_list == (1,)

    def test_missing_pair_rejected(self, ctx30):
        rows = approx_table(1, 0, 3, ctx30)
        with pytest.raises(DomainError):
            error_decay_report(rows, pairs=[(1, 7)])

    def test_empty_rows_rejected(self):
        with pytest.raises(DomainError):
            error_decay_report([])
