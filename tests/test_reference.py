import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from conftest import DELTA_60, absdiff
from gompertz import (CrossCheckFailure, DomainError, Integrand,
                      NonIntegrable, PoleError, PrecisionContext,
                      PrecisionUnreachable, bigfloat_str, delta_reference,
                      digamma, euler_gamma, frac_integral_closed, gamma_real,
                      log_integral_coeffs, plan_quadrature,
                      quad_semi_infinite, to_bigfloat)
from gompertz import reference


class TestPrecisionContext:
    def test_working_bits_formula(self):
        import math
        ctx = PrecisionContext(30)
        assert ctx.working_bits == math.ceil(45 * math.log2(10))

    def test_guard_floor(self):
        with pytest.raises(ValueError):
            PrecisionContext(30, guard_digits=2)

    def test_cap(self):
        big = PrecisionContext(2000)
        with pytest.raises(PrecisionUnreachable):
            quad_semi_infinite(Integrand(Fraction(0)), big)
        with pytest.raises(PrecisionUnreachable):
            gamma_real(Fraction(1, 2), big)
        # neither the ln(1) shortcut nor the series-only route of G(c)
        # skips the cap
        with pytest.raises(PrecisionUnreachable):
            quad_semi_infinite(Integrand(Fraction(0), log_scale=0), big)
        with pytest.raises(PrecisionUnreachable):
            reference.exp_e1(1, big, "e_times_E1")

    def test_agrees_is_relative_above_one(self, ctx30):
        with mp.workprec(600):
            big = mpf(10) ** 30 + mpf(1) / 3
            assert ctx30.agrees(big, big + mpf(10) ** -5)
            assert not ctx30.agrees(big, big + mpf(10) ** 2)
            small = mpf(1) / 3
            assert ctx30.agrees(small, small + mpf(10) ** -31)
            assert not ctx30.agrees(small, small + mpf(10) ** -29)


class TestIntegrandValidation:
    def test_shape_constraints(self):
        with pytest.raises(ValueError):
            Integrand(Fraction(0), log_scale=Fraction(1), denom_power=1)
        with pytest.raises(ValueError):
            Integrand(Fraction(0), log_scale=Fraction(-1))
        with pytest.raises(ValueError):
            Integrand(Fraction(0), denom_power=-1)

    def test_non_integrable(self, ctx10):
        with pytest.raises(NonIntegrable):
            quad_semi_infinite(Integrand(Fraction(-1)), ctx10)
        with pytest.raises(NonIntegrable):
            quad_semi_infinite(Integrand(Fraction(-3, 2), denom_power=1), ctx10)
        with pytest.raises(NonIntegrable):
            quad_semi_infinite(Integrand(Fraction(-2), log_scale=Fraction(1)),
                               ctx10)


class TestQuadrature:
    def test_exponential_normalization(self, ctx30):
        got = quad_semi_infinite(Integrand(Fraction(0)), ctx30)
        assert absdiff(got, 1) < ctx30.target_tolerance()

    def test_first_moment(self, ctx30):
        got = quad_semi_infinite(Integrand(Fraction(1)), ctx30)
        assert absdiff(got, 1) < ctx30.target_tolerance()

    def test_log_kernel_reproduces_reference(self, ctx30):
        got = quad_semi_infinite(Integrand(Fraction(0), log_scale=Fraction(1)),
                                 ctx30)
        assert bigfloat_str(got, 10) == "0.5963473623"

    def test_zero_log_scale_is_zero(self, ctx30):
        got = quad_semi_infinite(Integrand(Fraction(3), log_scale=Fraction(0)),
                                 ctx30)
        assert got == 0

    def test_linearity_through_partial_fractions(self, ctx30):
        # (x**2 + 2x + 1)/(x+1) = x + 1, so the three frac-family pieces
        # must add to Gamma(2) + Gamma(1) = 2
        parts = [quad_semi_infinite(Integrand(Fraction(2), denom_power=1), ctx30),
                 quad_semi_infinite(Integrand(Fraction(1), denom_power=1), ctx30),
                 quad_semi_infinite(Integrand(Fraction(0), denom_power=1), ctx30)]
        with mp.workprec(600):
            total = parts[0] + 2 * parts[1] + parts[2]
        assert absdiff(total, 2) < ctx30.target_tolerance()

    def test_precision_escalation(self, ctx30, ctx60):
        for integrand in (Integrand(Fraction(0), log_scale=Fraction(1)),
                          Integrand(Fraction(3), denom_power=1),
                          Integrand(Fraction(-3, 4), log_scale=Fraction(2))):
            v30 = quad_semi_infinite(integrand, ctx30)
            v60 = quad_semi_infinite(integrand, ctx60)
            assert absdiff(v30, v60) < mpf(10) ** -30

    def test_plan_invariants(self, ctx30):
        with pytest.raises(NonIntegrable):
            plan_quadrature(Integrand(Fraction(-1)), ctx30)
        with pytest.raises(PrecisionUnreachable):
            plan_quadrature(Integrand(Fraction(0)), PrecisionContext(2000))


def relerr(got, want, bits=4000):
    with mp.workprec(bits):
        return abs(mpf(got) - want) / abs(want)


def oracle_bits(ctx):
    """Precision for a test-side oracle: twice the rule's own, plus a margin."""
    return 2 * ctx.inner_bits + 64


def span_value(p, q, den, c, bits):
    """(p + q G(c))/den for an exact span triple, with G(c) = e**c E1(c) from
    mpmath, so that the oracle does not touch the package's quadrature."""
    with mp.workprec(bits):
        x = mpf(c.numerator) / c.denominator
        return (p + q * mpmath.exp(x) * mpmath.e1(x)) / den


#: (integrand, digits, evaluations with and without the predicted-error
#: stop) for delta by parts, ln(x + 1) e**-x, and log-free, e**-x / (x + 1),
#: as _g_quadrature integrates it
DELTA_EVALUATIONS = [
    (Integrand(Fraction(0), log_scale=Fraction(1)), 30, 171, 327),
    (Integrand(Fraction(0), log_scale=Fraction(1)), 100, 385, 749),
    (Integrand(Fraction(0), log_scale=Fraction(1)), 150, 793, 1561),
    (Integrand(Fraction(0), denom_power=1), 30, 171, 325),
    (Integrand(Fraction(0), denom_power=1), 100, 383, 745),
    (Integrand(Fraction(0), denom_power=1), 150, 791, 1557)]


class TestHalfLineEnds:
    """One rule covers (0, inf): an algebraic singularity at 0, mass far
    from the origin and exp(-x) decay must all come out to the rule's own
    tolerance, not just to the printed digits. Together the cases are an
    agreement corpus for the rule's early stop: pure powers against
    mpmath's Gamma, log shapes against the exact span recurrence and
    denominator shapes against the frac-family closed form."""

    @pytest.mark.parametrize("digits", [30, 60, 150])
    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 2),
                                   Fraction(3, 4)])
    def test_gamma_singular_at_zero(self, digits, q):
        # integral x**(q-1) e**-x = Gamma(q); x**(q-1) is unbounded at 0,
        # most strongly at q = 1/3
        ctx = PrecisionContext(digits)
        got = quad_semi_infinite(Integrand(q - 1), ctx)
        with mp.workprec(oracle_bits(ctx)):
            want = mpmath.gamma(mpf(q.numerator) / q.denominator)
        assert relerr(got, want) < 100 * ctx.internal_tolerance()

    def test_mass_far_from_origin(self, ctx30):
        # x**29 ln(x/2 + 1) e**-x peaks near x = 30; its exact value is
        # A + B G(2) from the span recurrence, with G(2) from mpmath's E1
        got = quad_semi_infinite(Integrand(Fraction(29),
                                           log_scale=Fraction(1, 2)), ctx30)
        want = span_value(*log_integral_coeffs(29, 2), Fraction(2),
                          oracle_bits(ctx30))
        assert relerr(got, want) < 100 * ctx30.internal_tolerance()

    @pytest.mark.parametrize("n, c, digits", [
        (0, Fraction(1), 30), (0, Fraction(1), 60), (0, Fraction(1), 150),
        # relative level differences 8.6e-2, 1.2e-3, 9.6e-10, 2.6e-24 at 30
        # digits: the uncapped estimate D1**2 / D2 stops at level 3, whose
        # true error is about 1e-24
        (7, Fraction(100), 30), (7, Fraction(100), 60),
        (0, Fraction(64), 30), (3, Fraction(1, 3), 30), (3, Fraction(1, 3), 60),
        (12, Fraction(1), 30), (12, Fraction(1), 60)], ids=str)
    def test_log_shape(self, n, c, digits):
        # integral x**n ln(x/c + 1) e**-x = A + B G(c), exactly
        ctx = PrecisionContext(digits)
        got = quad_semi_infinite(Integrand(Fraction(n), log_scale=1 / c), ctx)
        want = span_value(*log_integral_coeffs(n, c), c, oracle_bits(ctx))
        assert relerr(got, want) < 100 * ctx.internal_tolerance()

    @pytest.mark.parametrize("digits", [30, 60])
    @pytest.mark.parametrize("n", [0, 5])
    def test_denominator_shape(self, n, digits):
        # integral x**n e**-x / (x + 1) = (-1)**n (delta - alt_factorial_sum(n))
        ctx = PrecisionContext(digits)
        got = quad_semi_infinite(Integrand(Fraction(n), denom_power=1), ctx)
        want = span_value(*frac_integral_closed(n), 1, Fraction(1),
                          oracle_bits(ctx))
        assert relerr(got, want) < 100 * ctx.internal_tolerance()

    def test_delta_at_300_digits(self):
        ctx = PrecisionContext(300)
        got = delta_reference(ctx, "quadrature")
        with mp.workprec(oracle_bits(ctx)):
            want = mpmath.e * mpmath.e1(1)
        assert relerr(got, want) < 100 * ctx.internal_tolerance()

    @pytest.mark.parametrize(
        "integrand, digits, early, full", DELTA_EVALUATIONS,
        ids=[f"{d}-{e}-{f}" for _, d, e, f in DELTA_EVALUATIONS])
    def test_delta_evaluations(self, integrand, digits, early, full,
                               monkeypatch):
        # the predicted-error stop saves the last level, half of all nodes;
        # an infinite margin turns it off and leaves the difference test
        ctx = PrecisionContext(digits)
        f = reference._make_eval(integrand)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        def run():
            calls.clear()
            with mp.workprec(ctx.inner_bits):
                value = reference._double_exponential(
                    counted, ctx.internal_tolerance())
            return value, len(calls)

        value, n_early = run()
        monkeypatch.setattr(reference, "_DE_STOP_MARGIN_DIGITS", math.inf)
        full_value, n_full = run()
        assert (n_early, n_full) == (early, full)
        assert relerr(value, full_value) < ctx.internal_tolerance()


class TestNodeTable:
    @staticmethod
    def table_size(prec):
        return sum(len(level.nodes)
                   for level in reference._NODE_TABLES.get(prec, ()))

    def test_warm_equals_cold(self, ctx30, ctx60):
        # a node read back from the table is the node a cold walk computes,
        # so a result does not depend on what ran before it at its precision
        shapes = (Integrand(Fraction(0), denom_power=1),
                  Integrand(Fraction(-1), log_scale=Fraction(1)),
                  Integrand(Fraction(7), log_scale=Fraction(1, 100)),
                  Integrand(Fraction(-2, 3)))
        for ctx in (ctx30, ctx60):
            cold = []
            for integrand in shapes:
                reference._NODE_TABLES.clear()
                reference.quad_semi_infinite.cache_clear()
                cold.append(quad_semi_infinite(integrand, ctx))
                size = self.table_size(ctx.inner_bits)
                reference.quad_semi_infinite.cache_clear()
                assert quad_semi_infinite(integrand, ctx) == cold[-1]
                assert self.table_size(ctx.inner_bits) == size
            # and warm from the walks of the other shapes
            reference.quad_semi_infinite.cache_clear()
            assert [quad_semi_infinite(i, ctx) for i in shapes] == cold

    def test_one_table_per_precision(self, ctx30, ctx60):
        reference._NODE_TABLES.clear()
        reference.quad_semi_infinite.cache_clear()
        quad_semi_infinite(Integrand(Fraction(0), denom_power=1), ctx30)
        assert list(reference._NODE_TABLES) == [ctx30.inner_bits]
        size30 = self.table_size(ctx30.inner_bits)
        quad_semi_infinite(Integrand(Fraction(0), denom_power=1), ctx60)
        assert sorted(reference._NODE_TABLES) == [ctx30.inner_bits,
                                                  ctx60.inner_bits]
        assert self.table_size(ctx30.inner_bits) == size30


class TestGamma:
    def test_integer_values(self, ctx30):
        assert absdiff(gamma_real(1, ctx30), 1) < ctx30.target_tolerance()
        assert absdiff(gamma_real(5, ctx30), 24) < ctx30.target_tolerance()

    def test_half_integer_closed_form(self, ctx60):
        with mp.workprec(600):
            root_pi = mpmath.sqrt(mpmath.pi)
        got = gamma_real(Fraction(1, 2), ctx60)
        assert absdiff(got, root_pi) < ctx60.target_tolerance()

    def test_recurrence(self, ctx30):
        for x in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(7, 4)):
            lhs = gamma_real(x + 1, ctx30)
            with mp.workprec(600):
                rhs = to_bigfloat(x, ctx30) * mpf(gamma_real(x, ctx30))
            assert absdiff(lhs, rhs) < ctx30.target_tolerance()

    def test_poles(self, ctx30):
        for x in (0, -1, -7, Fraction(-3)):
            with pytest.raises(PoleError):
                gamma_real(x, ctx30)

    def test_library_cross_check(self, ctx30):
        with mp.workprec(600):
            want = mpmath.gamma(mpf(1) / 3)
        assert absdiff(gamma_real(Fraction(1, 3), ctx30),
                       want) < ctx30.target_tolerance()


class TestDigamma:
    def test_psi_one_is_minus_gamma(self, ctx60):
        # independent library value of Euler's constant as the oracle
        with mp.workprec(600):
            minus_gamma = -(+mpmath.euler)
        assert absdiff(digamma(1, ctx60), minus_gamma) < ctx60.target_tolerance()

    def test_psi_two(self, ctx60):
        with mp.workprec(600):
            want = 1 - mpmath.euler
        assert absdiff(digamma(2, ctx60), want) < ctx60.target_tolerance()

    def test_psi_half_duplication_value(self, ctx60):
        # psi(1/2) = -gamma - 2 ln 2, a genuinely different series argument
        with mp.workprec(600):
            want = -mpmath.euler - 2 * mpmath.log(2)
        assert absdiff(digamma(Fraction(1, 2), ctx60),
                       want) < ctx60.target_tolerance()

    def test_recurrence(self, ctx30):
        for u in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3),
                  Fraction(10)):
            lhs = digamma(u + 1, ctx30)
            with mp.workprec(600):
                rhs = mpf(digamma(u, ctx30)) + mpf(1) / to_bigfloat(u, ctx30)
            assert absdiff(lhs, rhs) < ctx30.target_tolerance()

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            digamma(0, ctx30)
        with pytest.raises(DomainError):
            digamma(Fraction(-1, 2), ctx30)


class TestEulerGamma:
    def test_ten_digit_value(self, ctx10):
        assert bigfloat_str(euler_gamma(ctx10), 10) == "0.5772156649"

    def test_escalation_consistency(self, ctx30, ctx60):
        assert absdiff(euler_gamma(ctx30), euler_gamma(ctx60)) < mpf(10) ** -30

    def test_definition(self, ctx30):
        with mp.workprec(600):
            total = mpf(euler_gamma(ctx30)) + digamma(1, ctx30)
        assert abs(total) < ctx30.target_tolerance()


class TestDeltaReference:
    def test_cross_validated_ten_digits(self, ctx10):
        got = delta_reference(ctx10, "cross_validated")
        assert bigfloat_str(got, 10) == "0.5963473623"

    # c = 1000 takes mpmath.e1's asymptotic branch, the others its series
    @pytest.mark.parametrize("c, digits", [
        *((c, d) for d in (30, 100)
          for c in ("1/64", "1/3", "1", "3/2", "64", "1000")),
        *((c, 300) for c in ("1/64", "1", "3/2", "64"))])
    def test_methods_agree(self, c, digits):
        ctx = PrecisionContext(digits)
        q = reference.exp_e1(Fraction(c), ctx, "quadrature")
        s = reference.exp_e1(Fraction(c), ctx, "e_times_E1")
        assert ctx.agrees(q, s)

    def test_sixty_digit_regression(self, ctx60):
        assert bigfloat_str(delta_reference(ctx60), 60) == DELTA_60

    def test_unknown_method(self, ctx10):
        with pytest.raises(ValueError):
            delta_reference(ctx10, "guess")

    def test_cross_check_trips_on_corruption(self, ctx10, monkeypatch):
        wrong = to_bigfloat(Fraction(1, 2), ctx10)
        monkeypatch.setattr(reference, "_g_series", lambda c, ctx: wrong)
        # an earlier test may already have cached the ctx10 value
        reference._g_by_method.cache_clear()
        with pytest.raises(CrossCheckFailure):
            delta_reference(ctx10, "cross_validated")

    def test_method_spellings_share_one_cache_entry(self, ctx10, monkeypatch):
        # default, positional and keyword method: one entry, so the
        # quadrature side of the cross-check runs once
        calls = []
        quadrature = reference._g_quadrature

        def counted(c, ctx):
            calls.append((c, ctx))
            return quadrature(c, ctx)

        monkeypatch.setattr(reference, "_g_quadrature", counted)
        reference._g_by_method.cache_clear()
        values = {delta_reference(ctx10),
                  delta_reference(ctx10, "cross_validated"),
                  delta_reference(ctx10, method="cross_validated"),
                  reference.exp_e1(1, ctx10)}
        assert calls == [(1, ctx10)]
        assert len(values) == 1
