import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import absdiff
from gompertz import (alt_factorial_sum, bernoulli, binom_gen, binom_int,
                      delta_reference, factorial, g_span_eval,
                      stirling1_unsigned, stirling2)
from gompertz import exactmath
from gompertz.integrals import span_rows


def pascal_triangle(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
    return rows


def count_set_partitions(m, t):
    """Brute-force: enumerate all partitions of {0..m-1} into t blocks."""
    if m == 0:
        return 1 if t == 0 else 0
    count = 0

    def extend(i, blocks):
        nonlocal count
        if i == m:
            count += len(blocks) == t
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(0, [])
    return count


def count_perms_with_cycles(w, j):
    count = 0
    for perm in itertools.permutations(range(w)):
        seen = [False] * w
        cycles = 0
        for s in range(w):
            if not seen[s]:
                cycles += 1
                cur = s
                while not seen[cur]:
                    seen[cur] = True
                    cur = perm[cur]
        count += cycles == j
    return count


class TestBinomInt:
    def test_small_values(self):
        assert binom_int(4, 2) == 6
        assert binom_int(7, 0) == 1

    def test_pascal_oracle(self):
        rows = pascal_triangle(40)
        for n in range(41):
            for k in range(n + 1):
                assert binom_int(n, k) == rows[n][k]
        assert binom_int(30, 15) == 155117520

    def test_out_of_range_is_zero(self):
        assert binom_int(5, -1) == 0
        assert binom_int(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom_int(-1, 0)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_pascal_recurrence_and_symmetry(self, n, k):
        if 1 <= k <= n:
            assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)
        if 0 <= k <= n:
            assert binom_int(n, k) == binom_int(n, n - k)


class TestBinomGen:
    def test_negative_one_choose_r(self):
        # (-1)(-2)...(-r)/r! = (-1)**r
        assert binom_gen(-1, 3) == -1
        assert binom_gen(-1, 4) == 1

    def test_empty_product(self):
        assert binom_gen(Fraction(-3, 4), 0) == 1

    def test_rational_argument(self):
        # (-3/4)(-7/4)/2
        assert binom_gen(Fraction(-3, 4), 2) == Fraction(21, 32)

    def test_agrees_with_integer_binomial(self):
        for x in range(21):
            for k in range(25):
                assert binom_gen(x, k) == binom_int(x, k)

    @given(st.fractions(min_value=-60, max_value=60, max_denominator=50),
           st.integers(0, 30))
    def test_matches_fraction_product(self, x, k):
        product = Fraction(1)
        for t in range(k):
            product *= x - t
        assert binom_gen(x, k) == product / math.factorial(k)


class TestFactorial:
    def test_values(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        prod = 1
        for i in range(1, 21):
            prod *= i
        assert factorial(20) == prod == 2432902008176640000


class TestStirling:
    def test_second_kind_enumeration_oracle(self):
        for m in range(7):
            for t in range(m + 2):
                assert stirling2(m, t) == count_set_partitions(m, t)
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    def test_second_kind_diagonal_and_range(self):
        for m in range(26):
            assert stirling2(m, m) == 1
        assert stirling2(4, 7) == 0

    def test_first_kind_enumeration_oracle(self):
        for w in range(7):
            for j in range(w + 2):
                assert stirling1_unsigned(w, j) == count_perms_with_cycles(w, j)
        assert stirling1_unsigned(3, 2) == 3
        assert stirling1_unsigned(4, 1) == 6 == factorial(3)

    def test_first_kind_diagonal(self):
        for w in range(26):
            assert stirling1_unsigned(w, w) == 1

    @given(st.integers(1, 25), st.integers(1, 25))
    def test_recurrences(self, m, t):
        assert stirling2(m, t) == t * stirling2(m - 1, t) + stirling2(m - 1, t - 1)
        assert stirling1_unsigned(m, t) == (stirling1_unsigned(m - 1, t - 1)
                                            + (m - 1) * stirling1_unsigned(m - 1, t))

    def test_falling_factorial_identity(self):
        # sum_j S2(w,j) x_(j) = x**w
        for w in range(11):
            for x in range(1, 11):
                total = 0
                for j in range(w + 1):
                    ff = 1
                    for i in range(j):
                        ff *= x - i
                    total += stirling2(w, j) * ff
                assert total == x ** w


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(3) == 0

    def test_defining_recurrence(self):
        for m in range(1, 31):
            total = sum(Fraction(binom_int(m + 1, i)) * bernoulli(i)
                        for i in range(m + 1))
            assert total == 0

    def test_matches_mpmath_bernfrac(self):
        for j in range(601):
            p, q = mpmath.bernfrac(j)  # B_1 = -1/2 convention
            assert bernoulli(j) == Fraction(p, q)

    def test_request_order_does_not_matter(self, monkeypatch):
        indices = [0, 1, 2, 3, 4, 10, 37, 64, 130, 255, 256, 400]
        answers = []
        for order in (sorted(indices, reverse=True), sorted(indices)):
            monkeypatch.setattr(exactmath, "_bernoulli_even",
                                [Fraction(1), Fraction(1, 6)])
            monkeypatch.setattr(exactmath, "_tangent_column", [1])
            got = {j: bernoulli(j) for j in order}
            answers.append([got[j] for j in indices])
        assert answers[0] == answers[1]


class TestAltFactorialSum:
    def test_values(self):
        assert alt_factorial_sum(0) == 0
        assert alt_factorial_sum(1) == 1
        assert alt_factorial_sum(4) == 1 - 1 + 2 - 6 == -4

    def test_recurrence(self):
        for k in range(1, 41):
            step = math.factorial(k - 1)
            if (k - 1) % 2:
                step = -step
            assert alt_factorial_sum(k) == alt_factorial_sum(k - 1) + step


class TestSpanWeights:
    def test_against_the_definition(self):
        for m in range(31):
            for r in range(min(m, 5) + 1):
                assert exactmath.span_weights(m, r) == [
                    (-1) ** k * math.comb(m, k) * math.comb(k, r)
                    * math.factorial(m) // math.factorial(k)
                    for k in range(r, m + 1)]

    def test_domain(self):
        with pytest.raises(ValueError):
            exactmath.span_weights(2, 3)
        with pytest.raises(ValueError):
            exactmath.span_weights(2, -1)


class TestGSpanEval:
    def test_eval_identity_coefficient(self, ctx10):
        assert g_span_eval(0, 1, 1, 1, ctx10) == delta_reference(ctx10)

    def test_eval_one_minus_delta(self, ctx30):
        d = delta_reference(ctx30)
        got = g_span_eval(1, -1, 1, 1, ctx30)
        with mp.workprec(600):
            expected = 1 - mpf(d)
        assert absdiff(got, expected) < ctx30.target_tolerance()

    def test_eval_zero(self, ctx10):
        assert g_span_eval(0, 0, 1, 1, ctx10) == 0

    def test_eval_distributes(self, ctx30):
        # linear over +: 2/7 - 5/3 delta plus -1/2 + 4 delta, over 42
        lhs = g_span_eval(12 - 21, -70 + 168, 42, 1, ctx30)
        with mp.workprec(600):
            rhs = mpf(g_span_eval(6, -35, 21, 1, ctx30)) \
                + g_span_eval(-1, 8, 2, 1, ctx30)
        assert absdiff(lhs, rhs) < ctx30.internal_tolerance() * 10

    @pytest.mark.parametrize("c", (Fraction(1), Fraction(2, 3),
                                   Fraction(100)))
    def test_unreduced_and_negative_den(self, ctx30, c):
        # log_moment_sum passes its triple unreduced, with den of either
        # sign: a common factor changes no bit, and -den negates exactly
        for n in (0, 5, 12):
            p, q = span_rows(n, c)[1][n]
            den = c.denominator ** n
            value = g_span_eval(p, q, den, c, ctx30)
            for k in (2, 3, -1, -6):
                assert g_span_eval(k * p, k * q, k * den, c, ctx30) == value
            with mp.workprec(ctx30.inner_bits):
                assert g_span_eval(p, q, -den, c, ctx30) == -value


@st.composite
def rationals(draw):
    num = draw(st.integers(-10 ** 12, 10 ** 12))
    den = draw(st.integers(1, 10 ** 9))
    return Fraction(num, den)


class TestBigRatNormalization:
    @settings(max_examples=200)
    @given(rationals(), rationals(), rationals())
    def test_arithmetic_stays_normalized(self, a, b, c):
        # audit after a randomized arithmetic sequence
        results = [a + b, a - c, a * b, (a + b) * c - a]
        if c != 0:
            results.append((a - b) / c)
        for q in results:
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1
