import hashlib
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import absdiff
from gompertz import (CrossCheckFailure, DomainError, Integrand,
                      bigfloat_str, corollary1_pair, corollary2_pair,
                      delta_reference, exp_e1, frac_integral_closed,
                      log_integral_closed, PrecisionContext, log_moment, quad_semi_infinite,
                      reference, shifted_log_moment)
from gompertz import integrals
from gompertz.approximants import DEFAULT_M_MAX_CAP
from gompertz.exactmath import alt_factorial_sum, factorial, span_weights
from gompertz.integrals import g_span_eval, log_moment_sum, span_rows
from gompertz.verify import series_partial_trend
from integral_oracles import (cross_checked_value, frac_integral_recurrence,
                              quadrature_log_moment)


class TestFracFamily:
    def test_frozen_small_values(self):
        # recurrence oracle, unrolled: value(0)=delta, value(n)=(n-1)!-value(n-1)
        assert frac_integral_closed(0) == (0, 1)
        assert frac_integral_closed(1) == (1, -1)
        assert frac_integral_closed(2) == (0, 1)
        assert frac_integral_closed(3) == (2, -1)
        assert frac_integral_closed(5) == (20, -1)

    def test_closed_equals_recurrence_exactly(self):
        for n in range(41):
            assert frac_integral_closed(n) == frac_integral_recurrence(n)

    def test_quadrature_agreement(self, ctx30):
        for n in range(6):
            exact = g_span_eval(*frac_integral_closed(n), 1, 1, ctx30)
            numeric = quad_semi_infinite(Integrand(Fraction(n), denom_power=1),
                                         ctx30)
            assert absdiff(exact, numeric) < mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_integral_closed(-1)


class TestLogFamily:
    def test_frozen_small_values(self):
        assert log_integral_closed(0) == (0, 1)
        assert log_integral_closed(1) == (1, 0)   # integration by parts
        assert log_integral_closed(2) == (2, 1)

    def test_parts_identity_exact(self):
        # J_n = n J_{n-1} + (n-1)! - I_{n-1}; verified numerically below
        # before being relied on here
        for n in range(1, 41):
            p, q = log_integral_closed(n - 1)
            fp, fq = frac_integral_closed(n - 1)
            assert log_integral_closed(n) == (n * p + factorial(n - 1) - fp,
                                              n * q - fq)

    def test_parts_identity_numerically(self, ctx30):
        # independent numeric confirmation at n = 1..3 via quadrature only
        def J_quad(n):
            return quad_semi_infinite(Integrand(Fraction(n),
                                                log_scale=Fraction(1)), ctx30)

        def I_quad(n):
            return quad_semi_infinite(Integrand(Fraction(n), denom_power=1),
                                      ctx30)

        for n in (1, 2, 3):
            with mp.workprec(600):
                lhs = J_quad(n)
                rhs = n * J_quad(n - 1) + factorial(n - 1) - I_quad(n - 1)
            assert absdiff(lhs, rhs) < mpf(10) ** -25

    def test_exact_components_stay_rational(self):
        # cancellation audit: the const part grows like n! and must remain an
        # exact integer, never a floating intermediate
        p, q = log_integral_closed(20)
        assert type(p) is int and type(q) is int
        assert p == sum(factorial(20) // factorial(j) * (-1) ** j
                        * (-alt_factorial_sum(j)) for j in range(21))

    def test_quadrature_agreement_up_to_five(self, ctx30):
        for n in range(6):
            exact = g_span_eval(*log_integral_closed(n), 1, 1, ctx30)
            numeric = quad_semi_infinite(Integrand(Fraction(n),
                                                   log_scale=Fraction(1)), ctx30)
            assert absdiff(exact, numeric) < mpf(10) ** -25


class TestLogMoment:
    def test_zero_u(self, ctx30):
        assert log_moment(1, 0, ctx30) == 0

    def test_reproduces_delta(self, ctx30):
        got = log_moment(1, 1, ctx30)
        assert absdiff(got, delta_reference(ctx30)) < ctx30.target_tolerance()

    def test_k2_is_one(self, ctx30):
        assert absdiff(log_moment(2, 1, ctx30), 1) < ctx30.target_tolerance()

    def test_paths_agree_at_u1(self, ctx30):
        # the exact route against one quadrature per moment
        for k in range(1, 6):
            exact = log_moment(k, 1, ctx30)
            numeric = quadrature_log_moment(k, 1, ctx30)
            assert absdiff(exact, numeric) < ctx30.target_tolerance()

    def test_large_value_check_is_relative(self):
        # the two routes give about 1e30 and agree to about one ulp; an
        # absolute 1e-90 tolerance used to reject them
        got = log_moment(29, 1, PrecisionContext(90))
        assert abs(got - 1032054592522922079679931413611) < 1

    def test_k0_uses_quadrature(self, ctx30):
        v = log_moment(0, 1, ctx30)
        # positive and finite; integrand ~ u near 0; the series value
        # equals the quadrature bit for bit
        assert v > 0
        v2 = quadrature_log_moment(0, 1, ctx30)
        assert v == v2

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            log_moment(1, Fraction(-1, 2), ctx30)
        with pytest.raises(DomainError):
            log_moment(-1, 1, ctx30)


class TestLogMomentSum:
    #: w_0..w_9 over one denominator: the k = 0 term is a series and the
    #: rest is one span value; r = 1 drops the k = 0 term
    WEIGHTS = (2, -70, 0, 0, 25, 0, 0, 0, 0, 7)
    DEN = 105
    #: each moment by itself: on the library's route, or by one quadrature
    MOMENTS = {"exact": log_moment, "quadrature": quadrature_log_moment}

    def want(self, weights, r, den, u, ctx, path):
        with mp.workprec(ctx.working_bits + 16):
            return sum(mpf(w) / den * self.MOMENTS[path](k, u, ctx)
                       for k, w in enumerate(weights, start=r))

    @pytest.mark.parametrize("path", ("exact", "quadrature"))
    def test_matches_the_sum_of_moments(self, ctx30, path):
        u = Fraction(2, 3)
        for r in (0, 1):
            weights = self.WEIGHTS[r:]
            got = log_moment_sum(weights, r, self.DEN, u, ctx30)
            assert ctx30.agrees(got, self.want(weights, r, self.DEN, u, ctx30,
                                               path)), r

    @pytest.mark.parametrize("path", ("exact", "quadrature"))
    def test_negative_denominator(self, ctx30, path):
        u = Fraction(3, 2)
        got = log_moment_sum(self.WEIGHTS, 0, -self.DEN, u, ctx30)
        assert ctx30.agrees(got, self.want(self.WEIGHTS, 0, -self.DEN, u,
                                           ctx30, path))
        flipped = log_moment_sum(self.WEIGHTS, 0, self.DEN, u, ctx30)
        assert got == mpmath.fneg(flipped, exact=True)

    def test_zero_u(self, ctx30):
        assert log_moment_sum(self.WEIGHTS, 0, self.DEN, 0, ctx30) == 0

    def test_negative_k_refused(self, ctx30):
        # the weights start at k = r
        with pytest.raises(DomainError):
            log_moment_sum(self.WEIGHTS, -1, self.DEN, Fraction(2, 3), ctx30)


class TestShiftedLogMoment:
    def test_reduction(self, ctx30):
        for k, u in ((1, Fraction(1, 2)), (2, Fraction(3))):
            assert shifted_log_moment(k, u, ctx30) == log_moment(k, 1 / u, ctx30)

    def test_u1_is_delta(self, ctx30):
        got = shifted_log_moment(1, 1, ctx30)
        assert absdiff(got, delta_reference(ctx30)) < ctx30.target_tolerance()

    def test_k2_u1_is_one(self, ctx30):
        assert absdiff(shifted_log_moment(2, 1, ctx30), 1) < ctx30.target_tolerance()

    def test_large_u_monotone_to_zero(self, ctx10):
        values = [shifted_log_moment(1, u, ctx10)
                  for u in (10, 1000, 10 ** 6)]
        assert values[0] > values[1] > values[2] > 0
        assert values[2] < mpf(10) ** -5

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            shifted_log_moment(1, 0, ctx30)
        with pytest.raises(DomainError):
            shifted_log_moment(1, Fraction(-2), ctx30)


class TestIntegralValue:
    def test_cross_checked_frac(self, ctx30):
        assert cross_checked_value("frac", 4, ctx30) == frac_integral_closed(4)

    def test_cross_checked_log(self, ctx30):
        assert cross_checked_value("log", 3, ctx30) == log_integral_closed(3)

    def test_unknown_family(self, ctx30):
        with pytest.raises(ValueError):
            cross_checked_value("poly", 1, ctx30)

    def test_corrupted_closed_form_trips(self, ctx30, monkeypatch):
        import integral_oracles as mod
        monkeypatch.setattr(mod, "frac_integral_recurrence",
                            lambda n: (999, 1))
        with pytest.raises(CrossCheckFailure):
            cross_checked_value("frac", 4, ctx30)


#: u values of the exact-route grid: c = 1/u from 1/3 to 50, so the
#: recurrence runs from stable (c < 1) to cancelling 17 digits (c = 50, k = 30)
GRID_U = (Fraction(1, 50), Fraction(1, 10), Fraction(2, 7), Fraction(1, 2),
          Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(3))


#: sha256 of the approximant pairs for r <= 5, m <= 200, both families, as
#: hashed in test_approximant_pairs_digest; frozen, so that a change to the
#: span rows or the weights cannot move a single pair unnoticed
PAIRS_DIGEST = \
    "e2947e0433ff745c5e2db02dc52a1138bd05a62e3030fc2f5ffad9a5eb38a2a6"


class TestExactSpan:
    @pytest.mark.parametrize("c", (Fraction(2, 3), Fraction(3, 2),
                                   Fraction(7, 5), Fraction(1, 100),
                                   Fraction(100)))
    def test_rows_are_the_scaled_fraction_rows(self, c):
        # I_j = (j-1)! - c I_{j-1} and L_j = j L_{j-1} + I_j from
        # I_0 = L_0 = G(c), in Fraction pairs; the rows are b**j times them
        frac, log = span_rows(60, c)
        i_row = l_row = (Fraction(0), Fraction(1))
        for j in range(61):
            if j:
                i_row = (factorial(j - 1) - c * i_row[0], -c * i_row[1])
                l_row = (j * l_row[0] + i_row[0], j * l_row[1] + i_row[1])
            scale = c.denominator ** j
            assert frac[j] == tuple(scale * v for v in i_row), (c, j)
            assert log[j] == tuple(scale * v for v in l_row), (c, j)
            assert all(type(v) is int for v in frac[j] + log[j])

    def test_approximant_pairs_digest(self):
        digest = hashlib.sha256()
        for r in range(6):
            for m in range(max(r, 1), DEFAULT_M_MAX_CAP + 1):
                digest.update(f"1 {r} {m} {corollary1_pair(m, r)}\n".encode())
                if r >= 1:
                    digest.update(
                        f"2 {r} {m} {corollary2_pair(m, r)}\n".encode())
        assert digest.hexdigest() == PAIRS_DIGEST

    def test_coeffs_at_c1_are_the_closed_form(self):
        log = span_rows(DEFAULT_M_MAX_CAP, 1)[1]
        for n in range(DEFAULT_M_MAX_CAP + 1):
            assert log[n] == log_integral_closed(n)

    def test_coeffs_small_values(self):
        c = 3
        # L_0 = G, L_1 = L_0 + I_1 = G + 1 - c G, L_2 = 2 L_1 + I_2
        assert span_rows(2, c)[1][:3] == [(0, 1), (1, 1 - c),
                                          (2 + 1 - c, 2 * (1 - c) + c * c)]
        # at c = 3/2, b**n L_n: 2 L_1 = 2 + (2 - 3) G
        assert span_rows(1, Fraction(3, 2))[1][1] == (2, -1)

    def test_first_call_beyond_the_recursion_limit(self):
        # the rows of a new c grow in a loop, not by recursion
        n = sys.getrecursionlimit() + 10
        c = Fraction(5)
        log = span_rows(n, c)[1]
        # the G parts: I_n has (-c)**n, so B_n = n B_{n-1} + (-c)**n
        assert log[n][1] == n * log[n - 1][1] + (-c) ** n

    def test_g_span_eval_takes_c_from_the_value(self, ctx30):
        for c in (Fraction(1, 3), Fraction(2), Fraction(50)):
            assert g_span_eval(0, 1, 1, c, ctx30) == exp_e1(c, ctx30)

    def test_exp_e1_matches_mpmath(self, ctx60):
        for c in (Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(50)):
            with mp.workprec(600):
                x = mpf(c.numerator) / c.denominator
                want = mpmath.exp(x) * mpmath.e1(x)
            got = exp_e1(c, ctx60)
            assert absdiff(got, want) < mpf(10) ** -60 * want

    @pytest.mark.parametrize("digits", (30, 60))
    def test_exact_agrees_with_quadrature(self, digits):
        # every k = 1..30 passes too, but its 480 quadratures take 3 minutes;
        # these k cover the G-dominated start and where the guard digits
        # grow (c = 10 and c = 50)
        ctx = PrecisionContext(digits)
        for u in GRID_U:
            for k in (1, 2, 3, 5, 8, 13, 21, 30):
                exact = log_moment(k, u, ctx)
                numeric = quadrature_log_moment(k, u, ctx)
                assert ctx.agrees(exact, numeric), (u, k)

    def test_corrupted_g_evaluator_trips(self, ctx10, monkeypatch):
        wrong = PrecisionContext(10).round(mpf(1) / 3)
        monkeypatch.setattr(reference, "_g_series", lambda c, ctx: wrong)
        reference.exp_e1.cache_clear()
        try:
            with pytest.raises(CrossCheckFailure):
                log_moment(3, Fraction(2, 3), ctx10)
        finally:
            reference.exp_e1.cache_clear()

    @pytest.mark.parametrize("r", (0, 1))
    def test_exact_path_runs_no_quadrature(self, ctx30, monkeypatch, r):
        # at c = 1/u = 100, m = 60 the span cancels far beyond the guard;
        # integrals runs no quadrature, the k = 0 moment at r = 0 included,
        # which is a series in reference, and neither does G(c)'s check,
        # at any guard rung
        assert not hasattr(integrals, "quad_semi_infinite")
        seen = []

        def spy(integrand, ctx):
            seen.append(integrand)
            return quad_semi_infinite(integrand, ctx)

        monkeypatch.setattr(reference, "quad_semi_infinite", spy)
        reference.exp_e1.cache_clear()
        reference.k0_log_moment.cache_clear()
        u = Fraction(1, 100)
        log_moment_sum(span_weights(60, r), r, factorial(60), u, ctx30)
        assert seen == []

    @pytest.mark.parametrize("u, r, m_max, rungs", (
        (Fraction(1, 100), 0, 60, {15, 30, 60}),
        (Fraction(2, 3), 0, 200, {15, 30}),
        (Fraction(1, 10000), 1, 40, {15, 30, 60, 120, 240}),
        # r = 3 at c = 10**5: the rows' largest loss, about 220 digits,
        # fits the 240-digit rung
        (Fraction(1, 100000), 3, 60, {15, 30, 60, 120, 240})))
    def test_guard_rungs_are_pinned(self, ctx30, monkeypatch, u, r, m_max,
                                    rungs):
        # the guard digits of every G(c) that g_span_eval asks for: 15 and
        # its power-of-two multiples, as far as each sum's cancellation needs
        seen = set()

        def spy(c, ctx):
            seen.add(ctx.guard_digits)
            return exp_e1(c, ctx)

        monkeypatch.setattr(integrals, "exp_e1", spy)
        series_partial_trend(u, r, m_max, ctx30)
        assert seen == rungs

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 25), st.integers(1, 12), st.integers(1, 1000),
           st.sampled_from((10, 20, 30)), st.booleans())
    @example(25, 1, 1000, 30, False)
    def test_d_digits_agree_with_2d_digits(self, k, p, q, digits, shifted):
        # the result at D digits, and at 2D digits rounded to D - 1 digits;
        # q up to 1000 puts c = 1/u up to 1000, where the span cancels far
        # beyond the guard digits (and c down to 1/1000 when shifted)
        fn = shifted_log_moment if shifted else log_moment
        u = Fraction(p, q)
        low = fn(k, u, PrecisionContext(digits))
        high = fn(k, u, PrecisionContext(2 * digits))
        assert bigfloat_str(low, digits - 1) == bigfloat_str(high, digits - 1)
