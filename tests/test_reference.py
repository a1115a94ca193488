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
                      plan_quadrature, quad_semi_infinite,
                      series_partial_trend, to_bigfloat)
from gompertz import cli, reference
from gompertz.integrals import span_rows
from gompertz.reference import k0_log_moment
from integral_oracles import quadrature_log_moment


class TestPrecisionContext:
    def test_working_bits_formula(self):
        import math
        ctx = PrecisionContext(30)
        assert ctx.working_bits == math.ceil(45 * math.log2(10))

    def test_guard_floor(self):
        with pytest.raises(ValueError):
            PrecisionContext(30, guard_digits=2)

    def test_cap(self):
        # no context above the cap exists, so no evaluator can be handed one
        with pytest.raises(PrecisionUnreachable):
            PrecisionContext(1001)
        with pytest.raises(PrecisionUnreachable):
            PrecisionContext(30)._replace(decimal_digits=1001)
        assert PrecisionContext(1000).decimal_digits == 1000

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

    def test_plan_invariants(self):
        with pytest.raises(NonIntegrable):
            plan_quadrature(Integrand(Fraction(-1)))
        plan_quadrature(Integrand(Fraction(-1), log_scale=Fraction(1)))


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
        want = span_value(*span_rows(29, 2)[1][29], 1, Fraction(2),
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
        # span_rows holds b**n L_n at c = a/b
        want = span_value(*span_rows(n, c)[1][n], c.denominator ** n, c,
                          oracle_bits(ctx))
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
    def test_warm_equals_cold(self, ctx30, ctx60):
        # a quadrature's value does not depend on what ran before it at its
        # precision: cold after cache_clear() equals warm
        shapes = (Integrand(Fraction(0), denom_power=1),
                  Integrand(Fraction(-1), log_scale=Fraction(1)),
                  Integrand(Fraction(7), log_scale=Fraction(1, 100)),
                  Integrand(Fraction(-2, 3)))
        for ctx in (ctx30, ctx60):
            cold = []
            for integrand in shapes:
                reference.quad_semi_infinite.cache_clear()
                cold.append(quad_semi_infinite(integrand, ctx))
                reference.quad_semi_infinite.cache_clear()
                assert quad_semi_infinite(integrand, ctx) == cold[-1]
            # and warm from the walks of the other shapes
            reference.quad_semi_infinite.cache_clear()
            assert [quad_semi_infinite(i, ctx) for i in shapes] == cold


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
        c = Fraction(c)
        q = reference._g_quadrature(c, ctx)
        s = reference._g_series(c, ctx)
        # the quadrature's own bound: c G(c) < 1 to an absolute 10**-(D+g)
        with mp.workprec(ctx.working_bits):
            assert abs(q - s) * c < 1000 * ctx.internal_tolerance()

    def test_sixty_digit_regression(self, ctx60):
        assert bigfloat_str(delta_reference(ctx60), 60) == DELTA_60

    def test_unknown_method(self, ctx10):
        with pytest.raises(ValueError):
            delta_reference(ctx10, "guess")

    def test_cross_check_trips_on_corruption(self, ctx10, monkeypatch):
        wrong = to_bigfloat(Fraction(1, 2), ctx10)
        monkeypatch.setattr(reference, "_g_series", lambda c, ctx: wrong)
        # an earlier test may already have cached the ctx10 value
        reference.exp_e1.cache_clear()
        with pytest.raises(CrossCheckFailure):
            delta_reference(ctx10, "cross_validated")

    # a relative error of 10**-(D+6) in either evaluator never shows in the
    # D printed digits of G, but the theorem's cancelling sums amplify it
    # into wrong printed digits; the check's tolerance must catch it
    @pytest.mark.parametrize("evaluator", ["_g_series", "_g_check"])
    @pytest.mark.parametrize("entry", ["series_partial_trend",
                                       "delta_reference", "cli"])
    def test_cross_check_trips_below_the_printed_digits(
            self, evaluator, entry, ctx30, monkeypatch, capsys):
        honest = getattr(reference, evaluator)

        def corrupted(c, ctx):
            with mp.workprec(ctx.inner_bits):
                return ctx.round(honest(c, ctx)
                                 * (1 + mpf(10) ** -(ctx.decimal_digits + 6)))

        monkeypatch.setattr(reference, evaluator, corrupted)
        reference.exp_e1.cache_clear()
        if entry == "cli":
            assert cli.main(["theorem", "--u", "1/100", "--max-m", "60"]) == 1
            assert "verification failure" in capsys.readouterr().err
            return
        with pytest.raises(CrossCheckFailure):
            if entry == "delta_reference":
                delta_reference(ctx30)
            else:
                series_partial_trend(Fraction(1, 100), 0, 60, ctx30)

    def test_method_spellings_share_one_cache_entry(self, ctx10, monkeypatch):
        # default, positional and keyword method, and c as an int or a
        # Fraction: one entry, so the checking side of the cross-check runs
        # once
        calls = []
        check = reference._g_check

        def counted(c, ctx):
            calls.append((c, ctx))
            return check(c, ctx)

        monkeypatch.setattr(reference, "_g_check", counted)
        reference.exp_e1.cache_clear()
        values = {delta_reference(ctx10),
                  delta_reference(ctx10, "cross_validated"),
                  delta_reference(ctx10, method="cross_validated"),
                  reference.exp_e1(1, ctx10),
                  reference.exp_e1(Fraction(1), ctx10)}
        assert calls == [(1, ctx10)]
        assert len(values) == 1


#: The largest context any command builds: 1000 digits and the top guard
#: rung, the largest multiple of 15 within 1000
TOP_RUNG = PrecisionContext(1000, 990)


class TestGCheck:
    """The two evaluators that check mpmath.e1's G(c), neither of which
    runs the quadrature: the series anchored on the committed digits of
    delta up to moderate c, c = 1 included, and Laguerre's J-fraction at
    large c."""

    def test_committed_digits_match_the_quadrature(self):
        # the committed digits are data, so the quadrature re-derives the
        # first 300 places; scripts/delta_digits.py re-derives them all
        text = reference._delta_text()
        assert text.startswith("0.") and text[2:].isdigit()
        quadrature = reference._g_quadrature(Fraction(1), PrecisionContext(300))
        assert text[:302] == bigfloat_str(quadrature, 310)[:302]

    @pytest.mark.parametrize("ctx", (PrecisionContext(30),
                                     PrecisionContext(1000), TOP_RUNG),
                             ids=("30", "1000", "top-rung"))
    def test_g1_is_the_committed_digits(self, ctx):
        # at c = 1 every term of the anchored series is 0: the sum stops at
        # k = 2, and G(1) is delta's committed digits rounded once to ctx
        assert reference._g_check_route(Fraction(1), ctx) == "anchored series"
        with mp.workprec(ctx.inner_bits + 64):
            want = ctx.round(mpf(reference._delta_text()))
        assert reference._g_check(Fraction(1), ctx) == want

    def test_no_route_reads_past_the_committed_digits(self, monkeypatch):
        places = len(reference._delta_text()) - 2
        asked = []
        digits = reference._delta_digits

        def spy(n):
            asked.append(n)
            return digits(n)

        monkeypatch.setattr(reference, "_delta_digits", spy)
        routes = {}
        for c in (1, 64, 100, 1000, 10 ** 6):
            routes[c] = reference._g_check_route(Fraction(c), TOP_RUNG)
            reference._g_check(Fraction(c), TOP_RUNG)
        assert routes == {1: "anchored series", 64: "anchored series",
                          100: "anchored series", 1000: "J-fraction",
                          10 ** 6: "J-fraction"}
        assert len(asked) == 3 and max(asked) <= places

    def test_beyond_the_committed_digits(self):
        # only a library caller can ask for these guards: delta has no route
        # past the committed digits, and the anchored series yields to the
        # J-fraction where the digits run out
        places = len(reference._delta_text()) - 2
        with pytest.raises(PrecisionUnreachable):
            reference._g_check_route(Fraction(1),
                                     PrecisionContext(1000, places - 1000))
        ctx = PrecisionContext(1000, places - 1100)
        assert reference._anchor_places(Fraction(300), ctx) > places
        assert reference._g_check_route(Fraction(300), ctx) == "J-fraction"

    def test_c_beyond_float_range(self, ctx30):
        # the route compares c as a Fraction; float(c) would overflow here
        for c, route in ((Fraction(10 ** 400), "J-fraction"),
                         (Fraction(1, 10 ** 400), "anchored series")):
            assert reference._g_check_route(c, ctx30) == route
            reference.exp_e1(c, ctx30)  # checked, or CrossCheckFailure

    # the tolerance is 1000 units of 10**-(D+g) in c G(c), so the check
    # resolves c G(c) to D + g - 3 places; e1's value with the last of
    # D + g - 4 places of c G(c) changed by one unit must trip every route
    @pytest.mark.parametrize("digits", (30, 1000))
    @pytest.mark.parametrize("c", ("1", "1/1000", "3/2", "100", "1000"))
    def test_a_changed_last_digit_trips_every_route(self, c, digits,
                                                    monkeypatch):
        ctx = PrecisionContext(digits)
        c = Fraction(c)
        honest = reference._g_series

        def changed(c, ctx):
            with mp.workprec(ctx.inner_bits):
                return ctx.round(honest(c, ctx)
                                 + mpf(10) ** (4 - ctx.total_digits) / c)

        monkeypatch.setattr(reference, "_g_series", changed)
        reference.exp_e1.cache_clear()
        route = reference._g_check_route(c, ctx)
        with pytest.raises(CrossCheckFailure, match=route):
            reference.exp_e1(c, ctx)

    @pytest.mark.parametrize("c", (64, 100))
    def test_honest_values_pass_at_the_top_rung(self, c):
        # the anchored bracket is E1(c), about e**-c/c, while its terms reach
        # about e**c/c: summed at c log2(e) extra bits instead of 2 c log2(e),
        # it raised a false CrossCheckFailure on G(100) here
        c = Fraction(c)
        reference.exp_e1.cache_clear()
        assert reference._g_check_route(c, TOP_RUNG) == "anchored series"
        assert reference.exp_e1(c, TOP_RUNG) == reference._g_series(c,
                                                                   TOP_RUNG)


#: u of the k = 0 log-moment against its quadrature: both sides of u = 1,
#: the theorem's u = 1/64 and 1/100, and u far from 1 both ways
K0_U = (Fraction(1), Fraction(2), Fraction(2, 3), Fraction(3, 2),
        Fraction(1, 3), Fraction(1, 64), Fraction(1, 100), Fraction(1, 1000),
        Fraction(1, 10 ** 6), Fraction(1000))


class TestK0LogMoment:
    """F(u) = integral(0,inf) x**-1 e**-x ln(x*u+1) dx by its series in
    p = 1/u, against the quadrature that evaluated it before, bit for bit,
    and against mpmath's Meijer G."""

    @pytest.mark.parametrize("digits", (30, 100))
    @pytest.mark.parametrize("u", K0_U, ids=str)
    def test_equals_the_quadrature(self, u, digits):
        ctx = PrecisionContext(digits)
        assert k0_log_moment(u, ctx) == quadrature_log_moment(0, u, ctx)

    @pytest.mark.parametrize("u", (Fraction(1), Fraction(1, 1000)), ids=str)
    def test_equals_the_quadrature_at_300_digits(self, u):
        # at 300 digits the asymptotic series starts above p = 735.3, so
        # u = 1/1000 takes it
        ctx = PrecisionContext(300)
        assert k0_log_moment(u, ctx) == quadrature_log_moment(0, u, ctx)

    def test_both_sides_of_the_branch_switch(self, ctx30):
        # the asymptotic series takes p > (D+g) ln 10 + 10, at 30 digits
        # p > 113.6: u = 1/113 sums the convergent series, u = 1/114 the
        # asymptotic one
        assert 113 < ctx30.total_digits * math.log(10) + 10 < 114
        for u in (Fraction(1, 113), Fraction(1, 114)):
            assert k0_log_moment(u, ctx30) == \
                quadrature_log_moment(0, u, ctx30), u

    @pytest.mark.parametrize("u", (Fraction(1), Fraction(1, 3)), ids=str)
    def test_meijer_g(self, u, ctx30):
        # F = G^{3,1}_{2,3}(p | 0; 1 / 0, 0, 0), with p = 1/u
        with mp.workprec(oracle_bits(ctx30)):
            want = mpmath.meijerg([[0], [1]], [[0, 0, 0], []],
                                  mpf(u.denominator) / u.numerator)
        assert ctx30.agrees(k0_log_moment(u, ctx30), want)

    def test_domain(self, ctx30):
        for u in (0, Fraction(-1, 2)):
            with pytest.raises(DomainError):
                k0_log_moment(u, ctx30)
