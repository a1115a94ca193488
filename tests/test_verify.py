import time
from fractions import Fraction
from math import comb, factorial, perm

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import absdiff
from gompertz import (B1_MINUS_HALF, B1_PLUS_HALF, DegenerateCase,
                      DegenerateDenominator, DomainError, HyperGeomParams,
                      PrecisionUnreachable, ZeroDenominator, bigfloat_str,
                      calibrated_convention, check_gauss_terminating,
                      check_gen_binomial_sum, check_int_binomial_sum,
                      delta_reference, digamma,
                      digamma_series_coeff, digamma_series_rhs,
                      digamma_series_scan, gauss_grid, gen_binomial_grid,
                      hypergeom_terminating, int_binomial_grid,
                      series_partial_trend, to_bigfloat)
from gompertz.exactmath import (BERNOULLI_CONVENTIONS, bernoulli,
                                stirling1_unsigned, stirling2)
from gompertz import verify
from gompertz.verify import (EPS_WINDOW_SAMPLES, EXACT_PASS, FAIL,
                             NUMERIC_PASS, SKIPPED, IdentityReport,
                             _bernoulli_stirling_sum, _compare_pairs)
from integral_oracles import (check_shift_expansion, norm_log_moment,
                              norm_log_moment_deriv, per_term_log_moment_sum,
                              per_term_series_trend, theorem_row_terms)


def H(a, b, c, x=1):
    return HyperGeomParams(Fraction(a), Fraction(b), Fraction(c), Fraction(x))


class TestHypergeomTerminating:
    def test_b_zero_is_constant_term(self):
        assert hypergeom_terminating(H(1, 0, 5)) == 1

    def test_two_term_sum(self):
        # 1 + (1*(-1))/(2*1)
        assert hypergeom_terminating(H(1, -1, 2)) == Fraction(1, 2)

    def test_closed_form_instance(self):
        # j=2, m=3, r=1: value must equal (j-r)/(m-r)
        assert hypergeom_terminating(H(1, 2 - 3, 1 + 2 - 1)) == Fraction(1, 2)

    def test_parameter_swap_symmetry(self):
        for a in range(-4, 0):
            for b in range(-4, 0):
                p = hypergeom_terminating(H(a, b, Fraction(7, 2)))
                q = hypergeom_terminating(H(b, a, Fraction(7, 2)))
                assert p == q

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            hypergeom_terminating(H(1, -3, -1))

    def test_zero_denominator_boundary(self):
        # (c)_k with c = -2 vanishes from k = 3 on: b = -2 stops at k = 2
        assert hypergeom_terminating(H(1, -2, -2, 1)) == 3
        with pytest.raises(ZeroDenominator, match=r"\(c\)_3"):
            hypergeom_terminating(H(1, -3, -2, 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            hypergeom_terminating(H(1, Fraction(1, 2), 2))
        with pytest.raises(DomainError):
            hypergeom_terminating(H(1, 2, 3))


class TestComparePairs:
    def test_equal_ratios_with_opposite_sign_denominators(self):
        report = _compare_pairs("x", {}, (3, -6), (-1, 2))
        assert report.verdict == EXACT_PASS
        assert report.lhs == report.rhs == Fraction(-1, 2)
        assert report.residual == 0

    def test_unequal_pairs_fail_with_exact_residual(self):
        report = _compare_pairs("x", {}, (1, 3), (2, -8))
        assert report.verdict == FAIL
        assert (report.lhs, report.rhs) == (Fraction(1, 3), Fraction(-1, 4))
        assert report.residual == Fraction(7, 12)


class TestGaussClosedForm:
    def test_grid_all_exact(self):
        reports = gauss_grid(m_max=15)
        assert reports
        assert all(r.verdict == EXACT_PASS for r in reports)

    def test_j_equals_m_trivial(self):
        p = H(1, 0, 1 + 5 - 2)
        report = check_gauss_terminating(p, Fraction(5 - 2, 5 - 2))
        assert report.verdict == EXACT_PASS

    def test_perturbed_closed_form_fails(self):
        p = H(1, -1, 2)
        report = check_gauss_terminating(p, Fraction(1, 2) + Fraction(1, 100))
        assert report.verdict == FAIL
        assert report.residual == Fraction(-1, 100)


class TestGenBinomialSum:
    def test_hand_frozen_case(self):
        # three-term sum at m=2, i=0, r=0, eps=-3/4: 1 + 6 - 3/5 = 32/5
        report = check_gen_binomial_sum(2, 0, 0, Fraction(-3, 4))
        assert report.verdict == EXACT_PASS
        assert report.lhs == Fraction(32, 5)
        assert report.rhs == Fraction(32, 5)

    def test_single_term_case(self):
        for (m, r, eps) in ((3, 1, Fraction(-2, 3)), (5, 0, Fraction(-5, 9))):
            report = check_gen_binomial_sum(m, m, r, eps)
            assert report.verdict == EXACT_PASS

    def test_small_grid(self):
        for m in range(7):
            for i in range(m + 1):
                for r in range(3):
                    report = check_gen_binomial_sum(m, i, r, Fraction(-3, 4))
                    assert report.verdict == EXACT_PASS

    def test_integer_eps_rejected(self):
        with pytest.raises(DomainError):
            check_gen_binomial_sum(2, 0, 0, Fraction(-1))

    def test_out_of_range_refused_before_any_table(self, monkeypatch):
        # at m = 10**5 the n!/k! table alone would be 5e9 big ints
        def no_table(top):
            raise AssertionError(f"table built for m = {top}")

        monkeypatch.setattr(verify, "_factorial_ratios", no_table)
        for m, i, r in ((10 ** 5, -1, 0), (3, 4, 0), (3, 1, -1)):
            with pytest.raises(DomainError):
                check_gen_binomial_sum(m, i, r, Fraction(-3, 4))

    def test_corrupted_closed_form_fails(self, monkeypatch):
        # m!/(m-i)! is a factor of the closed form only
        monkeypatch.setattr(verify, "perm", lambda m, i: perm(m, i) + 1)
        report = check_gen_binomial_sum(2, 1, 0, Fraction(-3, 4))
        assert report.verdict == FAIL
        assert report.residual == report.lhs - report.rhs != 0

    def test_lhs_matches_definition(self):
        def gen(x, k):
            out = Fraction(1)
            for t in range(k):
                out *= Fraction(x - t, t + 1)
            return out

        grid = iter(gen_binomial_grid(12))
        for m in range(13):
            for i in range(m + 1):
                for r in range(4):
                    for eps in EPS_WINDOW_SAMPLES:
                        lhs = sum(comb(m, j) / gen(eps + j - r, j)
                                  * gen(eps + j - 1, j - i) * (-1) ** j
                                  for j in range(i, m + 1))
                        assert check_gen_binomial_sum(m, i, r, eps).lhs == lhs
                        assert next(grid).lhs == lhs
        assert next(grid, None) is None


class TestIntBinomialSum:
    def test_hand_frozen_case(self):
        # m=3, j=2, r=1: 6 - 3 = 3 on both sides
        report = check_int_binomial_sum(3, 2, 1)
        assert report.verdict == EXACT_PASS
        assert report.lhs == 3

    def test_j_equals_r_telescopes_to_zero(self):
        report = check_int_binomial_sum(6, 2, 2)
        assert report.verdict == EXACT_PASS
        assert report.lhs == 0 == report.rhs

    def test_degenerate_m_equals_r(self):
        with pytest.raises(DegenerateCase):
            check_int_binomial_sum(3, 3, 3)

    def test_corrupted_closed_form_fails(self, monkeypatch):
        closed_form = verify._int_binomial_closed_form

        def doubled(m, j, r):
            num, den = closed_form(m, j, r)
            return 2 * num, den

        monkeypatch.setattr(verify, "_int_binomial_closed_form", doubled)
        report = check_int_binomial_sum(3, 2, 1)
        assert report.verdict == FAIL
        assert (report.lhs, report.rhs) == (3, 6)
        assert report.residual == report.lhs - report.rhs == -3

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_random_parameters_exact(self, m, j, r):
        if not (0 <= r <= j <= m) or m == r:
            return
        assert check_int_binomial_sum(m, j, r).verdict == EXACT_PASS

    def test_grid_with_skips(self):
        reports = int_binomial_grid(m_max=10)
        skipped = [r for r in reports if r.verdict == SKIPPED]
        passed = [r for r in reports if r.verdict == EXACT_PASS]
        assert len(skipped) + len(passed) == len(reports)
        assert skipped  # the m with j=r=m points are reported, not hidden
        assert all(r.verdict != FAIL for r in reports)


def gen_points(m_max):
    return [(m, i, r, eps) for m in range(m_max + 1) for i in range(m + 1)
            for r in range(4) for eps in EPS_WINDOW_SAMPLES]


def int_points(m_max):
    return [(m, j, r) for m in range(m_max + 1) for j in range(m + 1)
            for r in range(j + 1)]


def gauss_points(m_max):
    return [(m, j, r) for m in range(1, m_max + 1) for j in range(1, m + 1)
            for r in range(1, j)]


def int_point_report(m, j, r):
    """check_int_binomial_sum, with a degenerate point reported as
    int_binomial_grid reports it."""
    try:
        return check_int_binomial_sum(m, j, r)
    except DegenerateCase as exc:
        return IdentityReport("int_binomial_sum",
                              {"m": str(m), "j": str(j), "r": str(r)},
                              None, None, SKIPPED, str(exc))


class TestGridsByRow:
    """The grids build row tables once and read every point from them; each
    report must equal the single-point check's at the same point."""

    def test_gen_binomial_grid_is_the_point_check(self):
        assert gen_binomial_grid(12) == [check_gen_binomial_sum(*point)
                                         for point in gen_points(12)]

    # one point builds one row of its m, never the (m+1)**2 table, and an
    # integer eps is refused before any row is built
    def test_one_point_at_large_m_is_cheap(self):
        start = time.monotonic()
        with pytest.raises(DomainError):
            check_gen_binomial_sum(1000, 0, 0, Fraction(-1))
        assert time.monotonic() - start < 1
        start = time.monotonic()
        report = check_gen_binomial_sum(1000, 1000, 0, Fraction(-3, 4))
        assert time.monotonic() - start < 1
        assert report.verdict == EXACT_PASS

    def test_int_binomial_grid_is_the_point_check(self):
        assert int_binomial_grid(20) == [int_point_report(*point)
                                         for point in int_points(20)]

    def test_gauss_grid_is_the_point_check(self):
        assert gauss_grid(15) == [
            check_gauss_terminating(H(1, j - m, 1 + j - r),
                                    Fraction(j - r, m - r))
            for m, j, r in gauss_points(15)]

    def test_corrupted_perm_fails_at_the_same_points(self, monkeypatch):
        monkeypatch.setattr(verify, "perm", lambda m, i: perm(m, i) + 1)
        grid = gen_binomial_grid(8)
        assert grid == [check_gen_binomial_sum(*point)
                        for point in gen_points(8)]
        assert FAIL in [rep.verdict for rep in grid]

    def test_doubled_int_closed_form_fails_at_the_same_points(self,
                                                              monkeypatch):
        closed_form = verify._int_binomial_closed_form

        def doubled(m, j, r):
            num, den = closed_form(m, j, r)
            return 2 * num, den

        monkeypatch.setattr(verify, "_int_binomial_closed_form", doubled)
        grid = int_binomial_grid(12)
        assert grid == [int_point_report(*point) for point in int_points(12)]
        assert FAIL in [rep.verdict for rep in grid]

    @pytest.mark.parametrize("m_max, sums, points",
                             [(15, 105, 560), (25, 300, 2600)])
    def test_gauss_grid_sums_each_distinct_instance_once(self, monkeypatch,
                                                         m_max, sums, points):
        calls = []
        hypergeom_pair = verify._hypergeom_pair

        def counted(*args):
            calls.append(args)
            return hypergeom_pair(*args)

        monkeypatch.setattr(verify, "_hypergeom_pair", counted)
        reports = gauss_grid(m_max)
        assert (len(calls), len(set(calls)), len(reports)) == (sums, sums,
                                                               points)
        assert all(rep.verdict == EXACT_PASS for rep in reports)


class TestNormLogMoment:
    def test_zero_u(self, ctx30):
        assert norm_log_moment(Fraction(-3, 4), 0, 0, ctx30) == 0

    def test_precision_escalation(self, ctx30, ctx60):
        for q, r, u in ((Fraction(-3, 4), 0, Fraction(1)),
                        (Fraction(-2, 3), 1, Fraction(1, 2))):
            v30 = norm_log_moment(q, r, u, ctx30)
            v60 = norm_log_moment(q, r, u, ctx60)
            assert absdiff(v30, v60) < mpf(10) ** -30

    def test_limit_trend_toward_minus_u(self, ctx30):
        # r=1, u=1: values must approach (-1)**r * u = -1 monotonically
        gaps = []
        for eps in (Fraction(-9, 10), Fraction(-99, 100), Fraction(-999, 1000)):
            v = norm_log_moment(eps, 1, 1, ctx30)
            gaps.append(absdiff(v, -1))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            norm_log_moment(Fraction(-5, 4), 0, 1, ctx30)
        with pytest.raises(DomainError):
            norm_log_moment(Fraction(-3, 4), 0, -1, ctx30)


class TestNormLogMomentDeriv:
    def test_order_zero_falls_back(self, ctx30):
        a = norm_log_moment_deriv(Fraction(-3, 4), 0, 1, 0, ctx30)
        b = norm_log_moment(Fraction(-3, 4), 0, 1, ctx30)
        assert a == b

    def test_first_derivative_matches_finite_difference(self, ctx30):
        eps, r, u = Fraction(-3, 4), 0, Fraction(1)
        h = Fraction(1, 10 ** 6)
        direct = norm_log_moment_deriv(eps, r, u, 1, ctx30)
        with mp.workprec(600):
            fd = (norm_log_moment(eps, r, u + h, ctx30)
                  - norm_log_moment(eps, r, u - h, ctx30)) / (2 * mpf(10) ** -6)
        assert absdiff(direct, fd) < mpf(10) ** -10

    def test_second_derivative_matches_finite_difference(self, ctx30):
        eps, r, u = Fraction(-2, 3), 1, Fraction(1)
        h = Fraction(1, 10 ** 5)
        direct = norm_log_moment_deriv(eps, r, u, 2, ctx30)
        with mp.workprec(600):
            fd = (norm_log_moment(eps, r, u + h, ctx30)
                  - 2 * norm_log_moment(eps, r, u, ctx30)
                  + norm_log_moment(eps, r, u - h, ctx30)) / (mpf(10) ** -5) ** 2
        assert absdiff(direct, fd) < mpf(10) ** -6

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            norm_log_moment_deriv(Fraction(-3, 4), 0, 0, 1, ctx30)
        with pytest.raises(DomainError):
            norm_log_moment_deriv(Fraction(-3, 4), 0, 1, -1, ctx30)


class TestShiftIdentities:
    def test_recurrence_passes(self, ctx30):
        for eps, r, u in ((Fraction(-3, 4), 0, Fraction(1)),
                          (Fraction(-2, 3), 1, Fraction(1, 2))):
            report = check_shift_expansion(1, eps, r, u, ctx30)
            assert report.verdict == NUMERIC_PASS
            assert report.residual < report.tolerance

    def test_recurrence_zero_u(self, ctx30):
        report = check_shift_expansion(1, Fraction(-3, 4), 0, 0, ctx30)
        assert report.verdict == NUMERIC_PASS
        assert report.lhs == 0

    def test_degenerate_denominator(self, ctx30):
        # eps + 1 - r = 0: the one-step recurrence divides by zero
        with pytest.raises(DegenerateDenominator):
            check_shift_expansion(1, Fraction(0), 1, 1, ctx30)

    def test_expansion_passes(self, ctx30):
        for j, eps, r, u in ((2, Fraction(-3, 4), 0, Fraction(1)),
                             (3, Fraction(-2, 3), 1, Fraction(1, 2))):
            report = check_shift_expansion(j, eps, r, u, ctx30)
            assert report.verdict == NUMERIC_PASS

    def test_expansion_order_capped(self, ctx30):
        with pytest.raises(DomainError):
            check_shift_expansion(5, Fraction(-3, 4), 0, 1, ctx30)


def block_sum_trend(u, r, m_max, ctx):
    """The partial sums as a running total of rounded blocks: block m's
    terms (k, (-1)**(k+r) C(m,k) C(k,r)/k!) summed by
    per_term_log_moment_sum, and the blocks added at working precision."""
    out = []
    with mp.workprec(ctx.inner_bits):
        total = mpf(0)
        for m in range(r, m_max + 1):
            terms = [(k, Fraction((-1) ** (k + r) * comb(m, k) * comb(k, r),
                                  factorial(k))) for k in range(r, m + 1)]
            total += per_term_log_moment_sum(terms, u, ctx)
            out.append((m, ctx.round(total)))
    return out


class TestSeriesPartialSums:
    @pytest.mark.parametrize("u", (Fraction(2, 3), Fraction(3, 2),
                                   Fraction(2), Fraction(1, 3)))
    @pytest.mark.parametrize("r", (0, 1, 3))
    def test_blocks_equal_the_per_term_route(self, ctx30, u, r):
        # odd r puts the rows over a negative denominator
        assert series_partial_trend(u, r, 25, ctx30) == \
            per_term_series_trend(u, r, 25, ctx30)

    @pytest.mark.parametrize("u, path", ((Fraction(1, 100), "exact"),
                                         (Fraction(1, 64), "exact")))
    def test_quadrature_blocks_equal_the_per_term_route(self, ctx30, u, path):
        # path is the oracle's route: on "exact" only k = 0 is a
        # quadrature, and u = 1/100 and 1/64 sum the rest in the span at
        # c = 100 and c = 64
        for r in (0, 1):
            assert series_partial_trend(u, r, 10, ctx30) == \
                per_term_series_trend(u, r, 10, ctx30, path)

    @pytest.mark.parametrize("u", (Fraction(2, 3), Fraction(1, 100)))
    @pytest.mark.parametrize("r", (0, 1, 3))
    def test_rows_agree_with_the_running_block_sum(self, ctx30, u, r):
        # the integral of P_M and the sum of blocks 0..M are one value; the
        # blocks round once each, so they agree to the printed digits only
        rows = series_partial_trend(u, r, 25, ctx30)
        blocks = block_sum_trend(u, r, 25, ctx30)
        assert [m for m, _ in rows] == [m for m, _ in blocks]
        assert all(ctx30.agrees(s, t) for (_, s), (_, t) in zip(rows, blocks))

    @pytest.mark.parametrize("r", range(5))
    def test_row_weights_are_the_closed_form(self, ctx30, monkeypatch, r):
        # each row is one log_moment_sum of W_k = (-1)**k C(k,r) C(M+1,k+1)
        # M!/k! over (-1)**r M!, which the running W <- M W +
        # span_weights(M, r) must reproduce for every M
        calls = []
        monkeypatch.setattr(verify, "log_moment_sum",
                            lambda w, k, den, *rest: calls.append((w, k, den)))
        series_partial_trend(1, r, 60, ctx30)
        assert calls == [
            ([(-1) ** k * comb(k, r) * comb(m + 1, k + 1) * factorial(m)
              // factorial(k) for k in range(r, m + 1)], r,
             (-1) ** r * factorial(m))
            for m in range(r, 61)]

    def test_small_u_holds_its_digits(self, ctx30, ctx60):
        # the span at c = 100 cancels about 36 digits by m = 60, beyond the
        # 15 guard digits; by quadrature per moment four of these rows
        # printed wrong digits
        low = series_partial_trend(Fraction(1, 100), 0, 60, ctx30)
        high = series_partial_trend(Fraction(1, 100), 0, 60, ctx60)
        assert [(m, bigfloat_str(s, 30)) for m, s in low] == \
            [(m, bigfloat_str(s, 30)) for m, s in high]

    def test_tiny_u_reaches_u(self, ctx30):
        # by quadrature per moment the double-exponential rule gave up here
        u = Fraction(1, 1000)
        m, last = series_partial_trend(u, 0, 200, ctx30)[-1]
        assert m == 200
        assert bigfloat_str(last, 30) == bigfloat_str(to_bigfloat(u, ctx30),
                                                      30)

    def test_zero_u(self, ctx30):
        assert series_partial_trend(0, 0, 6, ctx30)[-1][1] == 0

    def test_paths_agree(self, ctx30):
        for r in (0, 1):
            exact = series_partial_trend(1, r, 8, ctx30)[-1][1]
            quad = per_term_series_trend(1, r, 8, ctx30, "quadrature")[-1][1]
            assert absdiff(exact, quad) < mpf(10) ** -25

    def test_per_term_quadrature_refuses_its_cancellation(self, ctx30):
        # row m = 100 of `theorem --u 1/10000 --r 1`: by quadrature per
        # moment its terms cancel about 31 digits, and the sum used to
        # return 0.000100000000000001882273098594249; the span, one term,
        # cancels inside g_span_eval, which grows its guard to match
        u, terms = Fraction(1, 10000), theorem_row_terms(100, 1)
        with pytest.raises(PrecisionUnreachable):
            per_term_log_moment_sum(terms, u, ctx30, "quadrature")
        exact = per_term_log_moment_sum(terms, u, ctx30)
        assert bigfloat_str(exact, 30) == "0.000100000000000000000000000000000"

    def test_trend_toward_u(self, ctx30):
        trend = dict(series_partial_trend(1, 1, 10, ctx30))
        assert absdiff(trend[10], 1) < absdiff(trend[5], 1)

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            series_partial_trend(1, 2, 1, ctx30)
        with pytest.raises(DomainError):
            series_partial_trend(-1, 0, 5, ctx30)


def oracle_series_coeff(k, m, b1):
    """Brute-force triple sum with test-local Stirling/Bernoulli tables."""
    N = m + 1
    S2 = [[0] * (N + 1) for _ in range(N + 1)]
    S2[0][0] = 1
    for a in range(1, N + 1):
        for t in range(1, a + 1):
            S2[a][t] = t * S2[a - 1][t] + S2[a - 1][t - 1]
    S1 = [[0] * (N + 1) for _ in range(N + 1)]
    S1[0][0] = 1
    for w in range(1, N + 1):
        for j in range(1, w + 1):
            S1[w][j] = S1[w - 1][j - 1] + (w - 1) * S1[w - 1][j]
    B = [Fraction(1)]
    for a in range(1, N + 1):
        B.append(-sum(Fraction(comb(a + 1, i)) * B[i] for i in range(a))
                 / (a + 1))
    if b1 == B1_PLUS_HALF:
        B[1] = Fraction(1, 2)
    total = Fraction(0)
    for t in range(2, m + 1):
        for w in range(1, t):
            inner = sum((-1) ** j * B[j] * S1[w][j] for j in range(1, w + 1))
            total += S2[m][t] * Fraction(-k) ** (t - w) * inner
    return total


def triple_sum_series_coeff(k, m, convention):
    """The coefficient as first written: the inner j-sum recomputed for every
    (t, w), with the package's Stirling and Bernoulli tables."""
    total = Fraction(0)
    for t in range(2, m + 1):
        s2 = stirling2(m, t)
        for w in range(1, t):
            inner = Fraction(0)
            for j in range(1, w + 1):
                term = bernoulli(j, convention) * stirling1_unsigned(w, j)
                inner += -term if j % 2 else term
            total += s2 * Fraction(-k) ** (t - w) * inner
    return total


class TestDigammaSeries:
    def test_coeff_empty_at_m1(self):
        assert digamma_series_coeff(3, 1) == 0

    def test_coeff_checks_convention_at_m1(self):
        # the m = 1 sum is empty, but an unknown convention is still refused
        with pytest.raises(ValueError):
            digamma_series_coeff(1, 1, "B1_zero")

    def test_coeff_m2_is_k_times_b1(self):
        assert digamma_series_coeff(1, 2, B1_MINUS_HALF) == Fraction(-1, 2)
        assert digamma_series_coeff(1, 2, B1_PLUS_HALF) == Fraction(1, 2)
        assert digamma_series_coeff(3, 2, B1_MINUS_HALF) == Fraction(-3, 2)

    def test_coeff_brute_force_oracle(self):
        for conv in (B1_MINUS_HALF, B1_PLUS_HALF):
            for k in range(1, 5):
                for m in range(1, 7):
                    assert digamma_series_coeff(k, m, conv) == \
                        oracle_series_coeff(k, m, conv)

    def test_bernoulli_stirling_closed_form(self):
        # the closed form of h(w) against its defining sum
        # sum_{j=1}^{w} (-1)**j B_j S1u(w, j)
        for conv in (B1_MINUS_HALF, B1_PLUS_HALF):
            for w in range(1, 61):
                direct = sum((-1) ** j * bernoulli(j, conv)
                             * stirling1_unsigned(w, j)
                             for j in range(1, w + 1))
                assert Fraction(*_bernoulli_stirling_sum(w, conv)) == direct
        # the convention is checked by the one caller
        with pytest.raises(ValueError):
            digamma_series_coeff(1, 4, "B1_zero")

    def test_coeff_horner_matches_triple_sum(self):
        for conv in (B1_MINUS_HALF, B1_PLUS_HALF):
            for m in range(1, 26):
                for k in range(1, m + 1):
                    assert digamma_series_coeff(k, m, conv) == \
                        triple_sum_series_coeff(k, m, conv)

    @pytest.mark.parametrize("conv", [B1_MINUS_HALF, B1_PLUS_HALF])
    @pytest.mark.parametrize("u", (Fraction(1), Fraction(3, 2), Fraction(100)))
    def test_rhs_equals_the_per_term_route(self, ctx30, conv, u):
        # u = 100 puts the moments at 1/u = 1/100, in the span at c = 100
        for m in range(1, 21):
            terms = [(k, digamma_series_coeff(k, m + 1, conv)
                      * Fraction((-1) ** k * comb(m, k),
                                 factorial(k) * factorial(m)))
                     for k in range(1, m + 1)]
            series = per_term_log_moment_sum(terms, 1 / u, ctx30)
            with mp.workprec(ctx30.inner_bits):
                want = mpmath.log(to_bigfloat(u, ctx30)) + series
            got = digamma_series_rhs(u, m, conv, ctx30).rhs
            assert got == ctx30.round(want), (m, conv, u)

    def test_rhs_single_term_at_m1(self, ctx30):
        # m=1: rhs = ln(1) + coeff(1,2) * (-1) * delta
        for conv, sign in ((B1_MINUS_HALF, 1), (B1_PLUS_HALF, -1)):
            point = digamma_series_rhs(Fraction(1), 1, conv, ctx30)
            with mp.workprec(600):
                want = sign * mpf(delta_reference(ctx30)) / 2
            assert absdiff(point.rhs, want) < mpf(10) ** -25
            assert point.residual > 0

    def test_log_term_vanishes_at_u1(self, ctx30):
        point = digamma_series_rhs(Fraction(1), 3, B1_MINUS_HALF, ctx30)
        assert absdiff(point.psi, digamma(1, ctx30)) == 0

    def test_conventions_differ(self, ctx30):
        a = digamma_series_rhs(Fraction(2), 5, B1_MINUS_HALF, ctx30)
        b = digamma_series_rhs(Fraction(2), 5, B1_PLUS_HALF, ctx30)
        assert a.residual != b.residual

    @pytest.mark.parametrize("conv", [B1_MINUS_HALF, B1_PLUS_HALF])
    def test_rhs_holds_its_digits_through_cancellation(self, conv, ctx30,
                                                       ctx60):
        # at u = 1, m = 40 the terms reach far above the sum; summed from
        # rounded moments with fixed guard digits the 30-digit value was
        # wrong in its last printed digits
        got = digamma_series_rhs(Fraction(1), 40, conv, ctx30).rhs
        want = digamma_series_rhs(Fraction(1), 40, conv, ctx60).rhs
        assert bigfloat_str(got, 29) == bigfloat_str(want, 29)

    def test_scan_order_is_canonical(self, ctx30):
        points = digamma_series_scan(Fraction(1), (1, 2),
                                     (B1_MINUS_HALF, B1_PLUS_HALF), ctx30)
        assert [(p.convention, p.m) for p in points] == [
            (B1_MINUS_HALF, 1), (B1_MINUS_HALF, 2),
            (B1_PLUS_HALF, 1), (B1_PLUS_HALF, 2)]

    def test_calibration_needs_distinct_residuals(self, ctx30):
        minus, plus = (digamma_series_rhs(Fraction(2), 2, conv, ctx30)
                       for conv in (B1_MINUS_HALF, B1_PLUS_HALF))
        want = (B1_MINUS_HALF if minus.residual < plus.residual
                else B1_PLUS_HALF)
        assert verify.calibrated_convention([plus, minus]) == want
        with pytest.raises(DomainError):
            verify.calibrated_convention(
                [minus, plus._replace(residual=minus.residual)])

    def test_calibration_regression(self, ctx30):
        # frozen from the calibration run at (u=1, m=20)
        assert calibrated_convention(digamma_series_scan(
            1, [20], BERNOULLI_CONVENTIONS, ctx30)) == B1_PLUS_HALF

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            digamma_series_rhs(Fraction(0), 3, B1_MINUS_HALF, ctx30)
        with pytest.raises(ValueError):
            digamma_series_rhs(Fraction(1), 3, "B1_zero", ctx30)
        with pytest.raises(DomainError):
            digamma_series_coeff(0, 3)
