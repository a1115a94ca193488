from fractions import Fraction

import pytest
from mpmath import mp, mpf

from conftest import absdiff
from gompertz import (CrossCheckFailure, DeltaLinear, DomainError, Integrand,
                      IntegralValue, cross_checked_value, delta_linear_eval,
                      delta_reference, frac_integral_closed,
                      frac_integral_recurrence, log_integral_closed,
                      PrecisionContext, log_moment, quad_semi_infinite,
                      shifted_log_moment)
from gompertz.exactmath import alt_factorial_sum, factorial


def D(c, d):
    return DeltaLinear(Fraction(c), Fraction(d))


class TestFracFamily:
    def test_frozen_small_values(self):
        # recurrence oracle, unrolled: value(0)=delta, value(n)=(n-1)!-value(n-1)
        assert frac_integral_closed(0) == D(0, 1)
        assert frac_integral_closed(1) == D(1, -1)
        assert frac_integral_closed(2) == D(0, 1)
        assert frac_integral_closed(3) == D(2, -1)
        assert frac_integral_closed(5) == D(20, -1)

    def test_closed_equals_recurrence_exactly(self):
        for n in range(41):
            assert frac_integral_closed(n) == frac_integral_recurrence(n)

    def test_quadrature_agreement(self, ctx30):
        d = delta_reference(ctx30)
        for n in range(6):
            exact = delta_linear_eval(frac_integral_closed(n), d, ctx30)
            numeric = quad_semi_infinite(Integrand(Fraction(n), denom_power=1),
                                         ctx30)
            assert absdiff(exact, numeric) < mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_integral_closed(-1)


class TestLogFamily:
    def test_frozen_small_values(self):
        assert log_integral_closed(0) == D(0, 1)
        assert log_integral_closed(1) == D(1, 0)   # integration by parts
        assert log_integral_closed(2) == D(2, 1)

    def test_parts_identity_exact(self):
        # J_n = n J_{n-1} + (n-1)! - I_{n-1}; verified numerically below
        # before being relied on here
        for n in range(1, 41):
            lhs = log_integral_closed(n)
            rhs = (n * log_integral_closed(n - 1)
                   + D(factorial(n - 1), 0) - frac_integral_closed(n - 1))
            assert lhs == rhs

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
        # exact integer-valued rational, never a floating intermediate
        v = log_integral_closed(20)
        assert isinstance(v.const_part, Fraction)
        assert isinstance(v.delta_part, Fraction)
        assert v.const_part.denominator == 1
        expected_const = sum(
            Fraction(factorial(20), factorial(j)) * (-1) ** j
            * (-alt_factorial_sum(j)) for j in range(21))
        assert v.const_part == expected_const

    def test_quadrature_agreement_up_to_five(self, ctx30):
        d = delta_reference(ctx30)
        for n in range(6):
            exact = delta_linear_eval(log_integral_closed(n), d, ctx30)
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
        for k in range(1, 6):
            exact = log_moment(k, 1, ctx30, path="exact")
            numeric = log_moment(k, 1, ctx30, path="quadrature")
            checked = log_moment(k, 1, ctx30, path="checked")
            assert absdiff(exact, numeric) < ctx30.target_tolerance()
            assert checked == exact

    def test_large_value_check_is_relative(self):
        # the two routes give about 1e30 and agree to about one ulp; an
        # absolute 1e-90 tolerance used to reject them
        got = log_moment(29, 1, PrecisionContext(90))
        assert abs(got - 1032054592522922079679931413611) < 1

    def test_k0_uses_quadrature(self, ctx30):
        v = log_moment(0, 1, ctx30)
        # positive and finite; integrand ~ u near 0
        assert v > 0
        v2 = log_moment(0, 1, ctx30, path="quadrature")
        assert v == v2

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            log_moment(1, Fraction(-1, 2), ctx30)
        with pytest.raises(DomainError):
            log_moment(-1, 1, ctx30)
        with pytest.raises(ValueError):
            log_moment(1, 1, ctx30, path="fast")


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
        value = cross_checked_value("frac", 4, ctx30)
        assert isinstance(value, IntegralValue)
        assert value.kind == "exact"
        assert value.exact == frac_integral_closed(4)

    def test_cross_checked_log(self, ctx30):
        value = cross_checked_value("log", 3, ctx30)
        assert value.exact == log_integral_closed(3)

    def test_unknown_family(self, ctx30):
        with pytest.raises(ValueError):
            cross_checked_value("poly", 1, ctx30)

    def test_corrupted_closed_form_trips(self, ctx30, monkeypatch):
        from gompertz import integrals as mod
        monkeypatch.setattr(mod, "frac_integral_recurrence",
                            lambda n: D(999, 1))
        with pytest.raises(CrossCheckFailure):
            cross_checked_value("frac", 4, ctx30)
