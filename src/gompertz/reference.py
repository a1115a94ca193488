"""Arbitrary-precision reference evaluation: semi-infinite quadrature for the
exp(-x)-weighted integrand family, the Gamma and digamma functions, Euler's
constant, G(c) = e**c E1(c) = integral(0,inf) e**-x / (x + c) dx, whose
value at c = 1 is the Euler-Gompertz constant delta, and the k = 0
log-moment F(u) = integral(0,inf) x**-1 e**-x ln(x*u+1) dx, summed from its
own series (k0_log_moment).
Gamma, Euler's constant and E1 come from mpmath (mpmath.gamma, mpmath.euler,
mpmath.e1); digamma is summed here from the package's exact Bernoulli
numbers.

G(c) is mpmath.e1's value, checked by one of two evaluators independent of
it, chosen from c and the precision before anything is evaluated: up to
moderate c the series of E1(c) - E1(1) anchored on the committed digits of
delta (delta_digits.txt, which scripts/delta_digits.py regenerates from the
quadrature and mpmath.e1), which at c = 1 sums no term and returns those
digits; at large c Laguerre's J-fraction, in integers. Neither runs the
quadrature.

The quadrature evaluates delta only for `delta --method quadrature`; no
other value the package prints comes from it. The tests integrate other
members of the family with it, log integrands included, as oracles.

Quadrature is one double-exponential rule for the whole half-line: the map
x = exp(t - e**-t) absorbs the algebraic endpoint singularity at 0 and turns
the exp(-x) decay at infinity into double-exponential decay in t, so no
split point and no truncation point are needed. Its weights carry e**-x, so
an integrand evaluates only its own factor of e**-x.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from .errors import (CrossCheckFailure, DomainError, NonIntegrable, PoleError,
                     PrecisionUnreachable)
from .exactmath import bernoulli
from .precision import BigFloat, PrecisionContext, to_bigfloat

_DE_MAX_LEVEL = 12
_DE_T_CAP = 16.0
#: the early stop needs log10 d_n < _DE_QUADRATIC_RATIO * log10 d_(n-1) < 0
_DE_QUADRATIC_RATIO = 1.5
#: digits by which the predicted error must undercut the tolerance
_DE_STOP_MARGIN_DIGITS = 10
#: nodes between direct exp evaluations of the e**-t progression
_DE_REFRESH_STEPS = 200


class Integrand(namedtuple("Integrand",
                           "power log_scale denom_power denom_scale")):
    """Descriptor for integral(0, inf) of x**power * exp(-x) * F(x) dx where
    F is exactly one of: 1, ln(log_scale*x + 1), or (denom_scale*x + 1)**-denom_power.
    """

    __slots__ = ()

    def __new__(cls, power: Fraction, log_scale: Fraction | None = None,
                denom_power: int = 0, denom_scale: Fraction = Fraction(1)):
        if log_scale is not None:
            log_scale = Fraction(log_scale)
            if log_scale < 0:
                raise ValueError("log_scale must be nonnegative")
        denom_scale = Fraction(denom_scale)
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        if log_scale is not None and denom_power > 0:
            raise ValueError("at most one of log/denominator factors")
        if denom_power > 0 and denom_scale <= 0:
            raise ValueError("denom_scale must be positive")
        return super().__new__(cls, Fraction(power), log_scale, denom_power,
                               denom_scale)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks


def plan_quadrature(integrand: Integrand) -> None:
    """Check the integrability of the integrand at 0; the rule itself needs
    no sizing (its level budget is _DE_MAX_LEVEL), and the precision cap
    holds for every PrecisionContext by construction."""
    power = integrand.power
    # the log factor vanishes like x at 0, softening the power by one
    if integrand.log_scale is not None and integrand.log_scale > 0:
        if power <= -2:
            raise NonIntegrable(f"x**{power} * log diverges at 0")
    elif power <= -1:
        raise NonIntegrable(f"x**{power} diverges at 0")


def _make_eval(integrand: Integrand):
    """Pointwise evaluator of the integrand's factor of exp(-x), x**power
    times its log or denominator factor, at the ambient working precision;
    the rule's weights carry exp(-x)."""
    power = integrand.power
    a = (int(power) if power.denominator == 1
         else mpf(power.numerator) / power.denominator)
    b = None
    if integrand.log_scale is not None:
        b = mpf(integrand.log_scale.numerator) / integrand.log_scale.denominator
    s = mpf(integrand.denom_scale.numerator) / integrand.denom_scale.denominator
    p = integrand.denom_power

    def f(x: BigFloat) -> BigFloat:
        v = x ** a if a else mpf(1)
        if b is not None:
            v *= mpmath.log1p(b * x)
        if p:
            v /= (s * x + 1) ** p
        return v

    return f


def _log10(v: BigFloat) -> float:
    with mp.workprec(53):
        return float(mpmath.log10(v))


def _double_exponential(f, tol: BigFloat) -> BigFloat:
    """integral(0, inf) of f(x) e**-x via the double-exponential transform
    x = exp(t - e**-t) (Takahasi and Mori 1974, Mori 1985): as t -> -inf, x
    falls double exponentially to 0, which absorbs an algebraic endpoint
    singularity; as t -> +inf, x grows like e**t, so an exp(-x)-damped
    integrand decays double exponentially. The trapezoidal sum in t halves
    its step per level, for at most _DE_MAX_LEVEL levels.

    Level n stops the rule when its difference d_n = |I_n - I_(n-1)| is
    below tol * max(1, |I_n|), or earlier, on the error predicted from the
    last two differences (Bailey, Jeyabalan and Li, Experimental Math. 14,
    2005): once the levels converge quadratically, log10 d_n < 1.5 *
    log10 d_(n-1) < 0, the next difference is about 10**(l_n * r) with
    l_n = log10 d_n and r = min(2, l_n / l_(n-1)), and I_n is returned when
    that is _DE_STOP_MARGIN_DIGITS digits below the tolerance. The ratio is
    capped at 2, the quadratic order: the uncapped form D1**2 / D2 (D2 the
    log10 of |I_n - I_(n-2)|) predicts 1e-125 at level 3 for
    x**7 ln(x/100 + 1) e**-x at 30 digits, whose true error there is 1e-24.

    Level n walks t = k h, h = 2**-n: level 0 every k >= 0, a finer level
    only the odd k, the nodes it adds. The node at t has x = exp(t - e)
    and dx/dt = x (1 + e) with e = e**-t, and its weight carries e**-x.
    Along a level, e**-t is a geometric progression in e**-(step h), and
    the node at -t takes e**t = 1 / e**-t, so a node pair costs four exp
    calls; the progression restarts from a direct exp every
    _DE_REFRESH_STEPS nodes to bound its accumulated rounding."""

    def node(t, e):
        x = mpmath.exp(t - e)
        return x * (1 + e) * mpmath.exp(-x) * f(x)

    results: list[BigFloat] = []
    l_prev = None  # log10 of the previous level difference
    running = mpf(0)
    for n in range(_DE_MAX_LEVEL + 1):
        h = mpmath.ldexp(mpf(1), -n)
        step = 2 if n else 1
        ratio = mpmath.exp(-step * h)
        new = mpf(0)
        scale = max(mpf(1), abs(results[-1])) if results else mpf(1)
        cutoff = tol * scale / 100
        small_run = 0
        i, k = 0, step - 1
        while True:
            t = k * h
            e = mpmath.exp(-t) if i % _DE_REFRESH_STEPS == 0 else e * ratio
            contrib = node(t, e)
            if k:
                contrib += node(-t, 1 / e)
            new += contrib
            if math.ldexp(k, -n) > 3 and abs(contrib) < cutoff:
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
            i, k = i + 1, k + step
            if math.ldexp(k, -n) > _DE_T_CAP:
                raise PrecisionUnreachable(
                    "double-exponential window exhausted before terms decayed")
        running += new
        value = running * h
        results.append(value)
        if n > 0:
            diff = abs(value - results[-2])
            bound = tol * max(mpf(1), abs(value))
            if diff < bound:
                return value
            l_now = _log10(diff)
            if (l_prev is not None
                    and l_now < _DE_QUADRATIC_RATIO * l_prev < 0
                    and l_now * min(2.0, l_now / l_prev)
                    < _log10(bound) - _DE_STOP_MARGIN_DIGITS):
                return value
            l_prev = l_now
    raise PrecisionUnreachable(
        f"double-exponential rule did not converge within {_DE_MAX_LEVEL} "
        "refinement levels")


@lru_cache(maxsize=None)
def quad_semi_infinite(integrand: Integrand, ctx: PrecisionContext) -> BigFloat:
    """integral(0, inf) of the described integrand by one double-exponential
    rule, aiming at an error below 10**-(decimal_digits + guard_digits)
    relative to max(1, |value|): the rule halves its step until the sum
    changes by less than that, or until the error predicted from its last
    two changes, once they shrink quadratically, is ten digits below it
    (Bailey, Jeyabalan and Li 2005, with the convergence order capped at
    2; see _double_exponential). Results are cached by (integrand, ctx)."""
    if integrand.log_scale == 0:
        return ctx.round(mpf(0))  # ln(1) annihilates the integrand
    plan_quadrature(integrand)
    with mp.workprec(ctx.inner_bits):
        tol = ctx.internal_tolerance()
        value = _double_exponential(_make_eval(integrand), tol)
    return ctx.round(value)


def gamma_real(x: Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """Gamma(x) for rational non-pole x: mpmath.gamma at ctx.inner_bits,
    then rounded to the working precision."""
    if x == int(x) and x <= 0:
        raise PoleError(f"Gamma pole at {x}")
    x = to_bigfloat(Fraction(x), ctx)
    with mp.workprec(ctx.inner_bits):
        out = mpmath.gamma(x)
    return ctx.round(out)


# --- digamma via shift + Bernoulli asymptotic series --------------------------

@lru_cache(maxsize=None)
def digamma(u: Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """psi(u) for rational u > 0: raise the argument by unit steps until the
    first omitted asymptotic term is below tolerance, then sum the
    even-Bernoulli series psi(v) ~ ln v - 1/(2v) - sum B_2n / (2n v**2n) at
    ctx.inner_bits. Cached by (u, ctx): the digamma-series harness asks for
    one psi(u) per point."""
    if u <= 0:
        raise DomainError(f"digamma requires u > 0, got {u}")
    u = to_bigfloat(Fraction(u), ctx)
    with mp.workprec(ctx.inner_bits):
        tol = ctx.internal_tolerance() / 100
        # minimum shift so the asymptotic series can reach tol: its smallest
        # term is ~ exp(-2 pi v), so v >= (D+g) ln10 / (2 pi) with margin
        v_min = 0.4 * ctx.total_digits + 2
        shift_sum = mpf(0)
        v = u
        while v < v_min:
            shift_sum += 1 / v
            v += 1
        out = mpmath.log(v) - 1 / (2 * v) - shift_sum
        v2 = v * v
        vpow = v2
        n = 1
        while True:
            b = bernoulli(2 * n)
            term = (mpf(b.numerator) / b.denominator) / (2 * n) / vpow
            if abs(term) < tol:
                break
            out -= term
            vpow *= v2
            n += 1
            if n > 4 * ctx.total_digits:
                raise PrecisionUnreachable("digamma series failed to reach tolerance")
    return ctx.round(out)


def euler_gamma(ctx: PrecisionContext) -> BigFloat:
    """Euler's constant, mpmath.euler at working precision. mpmath keeps the
    constant at the highest precision computed so far, so repeated calls
    cost a rounding."""
    with mp.workprec(ctx.working_bits):
        value = +mpmath.euler
    return ctx.round(value)


# --- G(c) = e**c E1(c), and the Euler-Gompertz constant delta = G(1) --------

def _g_quadrature(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # G(c) = integral(0,inf) e**-x / (x + c) dx, and the rule integrates
    # e**-x / (x/c + 1), which is c G(c): no logarithm at the nodes. The
    # quotient is taken at inner_bits; a BigFloat over a Fraction outside
    # workprec would round to mpmath's default 53 bits
    integral = quad_semi_infinite(
        Integrand(Fraction(0), denom_power=1, denom_scale=1 / c), ctx)
    with mp.workprec(ctx.inner_bits):
        value = integral / (mpf(c.numerator) / c.denominator)
    return ctx.round(value)


def _g_series(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # mpmath.e1 sums the convergent series of E1 with 2c guard bits for its
    # cancellation, and takes the asymptotic expansion once c is large
    # against the precision
    with mp.workprec(ctx.inner_bits):
        x = mpf(c.numerator) / c.denominator
        value = mpmath.exp(x) * mpmath.e1(x)
    return ctx.round(value)


# --- the checks of mpmath.e1's G(c): none of them calls e1 or uses gamma ------

#: The committed decimal digits of delta, written by scripts/delta_digits.py
_DELTA_DIGITS_FILE = os.path.join(os.path.dirname(__file__), "delta_digits.txt")


@lru_cache(maxsize=None)
def _delta_text() -> str:
    """"0." and the committed decimal places of delta, truncated."""
    with open(_DELTA_DIGITS_FILE) as f:
        return f.read().strip()


def _delta_digits(places: int) -> BigFloat:
    """delta from its first `places` committed decimal places, at the
    ambient precision: the string is cut before the conversion, so the
    conversion costs what the caller needs."""
    return mpf(_delta_text()[:2 + places])


def _g_check_route(c: Fraction, ctx: PrecisionContext) -> str:
    """The check of G(c) at (c, ctx), chosen before anything is evaluated:
    "J-fraction" when its predicted term count, ((D+g) ln 10)**2 / (16 c),
    is below e c, the least count of terms the anchored series sums, that
    is when c > (D+g) ln 10 / (4 sqrt(e)), or when the committed digits do
    not cover the D + g + ceil(c log10 e) + 10 places the anchored series
    needs; "anchored series" otherwise. c is compared as a Fraction, so no
    c is too large for a float. G(1) has no route past the committed
    digits: there the J-fraction would sum about ((D+g) ln 10)**2 / 16
    terms."""
    places = len(_delta_text()) - 2
    if (c <= ctx.total_digits * math.log(10) / (4 * math.sqrt(math.e))
            and _anchor_places(c, ctx) <= places):
        return "anchored series"
    if c == 1:
        raise PrecisionUnreachable(
            f"G(1) is checked against {places} committed places of delta; "
            f"{ctx.total_digits} digits need {_anchor_places(c, ctx)} places")
    return "J-fraction"


def _anchor_places(c: Fraction, ctx: PrecisionContext) -> int:
    # the bracket's error in delta is multiplied by e**c in G(c)
    return ctx.total_digits + math.ceil(c * math.log10(math.e)) + 10


def _g_check_anchored(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # E1(c) - E1(1) = -ln c - sum_{k>=1} (-1)**k (c**k - 1)/(k k!), from
    # E1's series, whose gamma cancels; with E1(1) = delta/e,
    # G(c) = e**(c-1) (delta - e (ln c + sum)). The bracket equals e E1(c),
    # about e**(1-c)/c, while its terms reach about e**c/c, so it is summed
    # at 2c log2(e) + 20 bits past inner_bits; delta's error is multiplied
    # by e**c, so it takes ceil(c log10 e) places more than D + g + 10. At
    # c = 1 every term is 0, the sum stops at k = 2, and G(1) is delta's
    # committed digits
    bits = ctx.inner_bits + math.ceil(2 * c * math.log2(math.e)) + 20
    with mp.workprec(bits):
        x = mpf(c.numerator) / c.denominator
        eps = mpmath.ldexp(1, -bits)
        total = mpf(0)
        power, inverse = mpf(1), mpf(1)  # c**k/k! and 1/k!
        k = 0
        while True:
            k += 1
            power = power * x / k
            inverse = inverse / k
            term = (power - inverse) / k
            total += -term if k % 2 else term
            if k > x and abs(term) < eps:
                break
        delta = _delta_digits(_anchor_places(c, ctx))
        value = mpmath.exp(x - 1) * (delta
                                     - mpmath.e * (mpmath.log(x) + total))
    return ctx.round(value)


def _g_check_jfraction(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # Laguerre's J-fraction G(c) = 1/(c+1 - 1**2/(c+3 - 2**2/(c+5 - ...)))
    # (Cuyt et al., Handbook of Continued Fractions for Special Functions,
    # 2008, ch. 14), in integers: with c = a/b, the convergents A_n/B_n
    # have A_0 = 0, B_0 = 1, A_1 = b, B_1 = a + b and
    # y_n = (a + (2n-1) b) y_(n-1) - (b (n-1))**2 y_(n-2). Their Casoratian
    # K_n = A_n B_(n-1) - A_(n-1) B_n = (b (n-1))**2 K_(n-1) > 0, so the
    # convergents rise to G(c), and consecutive ones differ by
    # K_n/(B_n B_(n-1)). The fraction stops once that difference is below
    # 2**-(inner_bits + 10) relative to A_n/B_n, read off bit lengths; the
    # differences then fall by a factor of about exp(-2 sqrt(c/n)), so the
    # rest of the tail is smaller still
    a, b = c.numerator, c.denominator
    bits = ctx.inner_bits + 10
    p0, q0, p1, q1 = 0, 1, b, a + b
    casoratian = b
    n = 1
    while (casoratian.bit_length() + bits
           > p1.bit_length() + q0.bit_length() - 2):
        n += 1
        beta, alpha = a + (2 * n - 1) * b, (b * (n - 1)) ** 2
        p0, p1 = p1, beta * p1 - alpha * p0
        q0, q1 = q1, beta * q1 - alpha * q0
        casoratian *= alpha
    with mp.workprec(ctx.inner_bits):
        value = mpf(p1) / q1
    return ctx.round(value)


def _g_check(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    """G(c) by the route _g_check_route names, independent of mpmath.e1:
    the series anchored on delta, or Laguerre's J-fraction, each rounded
    once to ctx."""
    if _g_check_route(c, ctx) == "J-fraction":
        return _g_check_jfraction(c, ctx)
    return _g_check_anchored(c, ctx)


@lru_cache(maxsize=None)
def k0_log_moment(u: Fraction, ctx: PrecisionContext) -> BigFloat:
    """F(u) = integral(0,inf) x**-1 e**-x ln(x*u+1) dx for rational u > 0:
    the k = 0 log-moment, the one term of a theorem row outside the span of
    {1, G(1/u)}. In p = 1/u, F'(p) = -G(p)/p, and E1's series integrates to
    the two series summed here. Once p > (D+g) ln 10 + 10, the alternating
    asymptotic series sum_{k>=1} (-1)**(k+1) (k-1)!/(k p**k) at
    ctx.inner_bits, up to its smallest term, which e**-p bounds; F is a
    Stieltjes function, so the error is below the first omitted term.
    Otherwise the convergent series
    pi**2/4 + L**2/2 + sum_{n>=1} p**n/(n n!) (L - 1/n - H_n), with
    L = gamma + ln p and H_n the n-th harmonic number, whose terms grow to
    about e**p before they fall, at p log2(e) + 20 bits past inner_bits.
    Rounded once; cached by (u, ctx)."""
    u = Fraction(u)
    if u <= 0:
        raise DomainError(f"k0_log_moment requires u > 0, got {u}")
    p = 1 / u
    if p > ctx.total_digits * math.log(10) + 10:
        with mp.workprec(ctx.inner_bits):
            x = mpf(p.numerator) / p.denominator
            eps = mpmath.ldexp(1 / x, -ctx.inner_bits)
            total = mpf(0)
            a = 1 / x  # (k-1)!/p**k
            for k in range(1, math.ceil(p)):  # the terms fall while k < p
                term = a / k
                if term < eps:
                    break
                total += term if k % 2 else -term
                a *= k / x
        return ctx.round(total)
    with mp.workprec(ctx.inner_bits + math.ceil(p * math.log2(math.e)) + 20):
        x = mpf(p.numerator) / p.denominator
        ell = mpmath.euler + mpmath.log(x)  # L
        eps = mpmath.ldexp(1, -ctx.inner_bits - 20)
        total = mpmath.pi ** 2 / 4 + ell ** 2 / 2
        power, harmonic = mpf(1), mpf(0)  # p**n/n! and H_n
        n = 0
        while True:
            n += 1
            power = power * x / n
            harmonic += mpf(1) / n
            term = power / n * (ell - mpf(1) / n - harmonic)
            total += term
            if n > x and abs(term) < eps * abs(total):
                break
    return ctx.round(total)


@lru_cache(maxsize=None)
def exp_e1(c: Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """G(c) = e**c E1(c) = integral(0,inf) e**-x / (x + c) dx for rational
    c > 0: e**c times mpmath.e1(c), returned once an evaluator independent
    of it, the one _g_check_route names for (c, ctx), confirms it within
    c |check - e1| < 10**(3 - decimal_digits - guard_digits); raises
    CrossCheckFailure otherwise. No check runs the quadrature. Cached by
    (c, ctx), and 1 and Fraction(1) are one entry; G(1) is delta."""
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"exp_e1 requires c > 0, got {c}")
    # every check route carries c G(c) < 1 to well below an absolute
    # 10**-(D+g), and mpmath.e1's value is rounded at working_bits, so the
    # two agree within that, with a factor 1000 of margin
    check = _g_check(c, ctx)
    s = _g_series(c, ctx)
    with mp.workprec(ctx.working_bits):
        if abs(check - s) * c >= 1000 * ctx.internal_tolerance():
            raise CrossCheckFailure(
                f"G({c}) evaluators disagree: "
                f"{_g_check_route(c, ctx)}={check} e1={s}")
    return s


def delta_reference(ctx: PrecisionContext,
                    method: str = "cross_validated") -> BigFloat:
    """The Euler-Gompertz constant integral(0,inf) ln(x+1) e**-x dx = G(1):
    "quadrature" integrates e**-x / (x + 1), "e_times_E1" is e*E1(1) alone,
    and "cross_validated" is exp_e1(1), e*E1(1) checked against the
    committed digits of delta."""
    if method == "quadrature":
        return _g_quadrature(Fraction(1), ctx)
    if method == "e_times_E1":
        return _g_series(Fraction(1), ctx)
    if method == "cross_validated":
        return exp_e1(1, ctx)
    raise ValueError(f"unknown method {method!r}")
