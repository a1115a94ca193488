"""Arbitrary-precision reference evaluation: semi-infinite quadrature for the
exp(-x)-weighted integrand family, the Gamma and digamma functions, Euler's
constant, G(c) = e**c E1(c) = integral(0,inf) e**-x / (x + c) dx, whose
value at c = 1 is the Euler-Gompertz constant delta: mpmath.e1's value,
checked by an independent quadrature of that log-free integral, and the
k = 0 log-moment F(u) = integral(0,inf) x**-1 e**-x ln(x*u+1) dx, summed
from its own series (k0_log_moment).
Gamma, Euler's constant and E1 come from mpmath (mpmath.gamma, mpmath.euler,
mpmath.e1); digamma is summed here from the package's exact Bernoulli
numbers.

The quadrature only checks G(c), and evaluates delta itself for
`delta --method quadrature`; no other value the package prints comes from
it. The tests integrate other members of the family with it, log
integrands included, as oracles.

Quadrature is one double-exponential rule for the whole half-line: the map
x = exp(t - e**-t) absorbs the algebraic endpoint singularity at 0 and turns
the exp(-x) decay at infinity into double-exponential decay in t, so no
split point and no truncation point are needed. Its nodes, with e**-x folded
into their weights, form one table per working precision that every
quadrature at that precision reads and extends; an integrand evaluates only
its own factor of e**-x.
"""

from __future__ import annotations

import math
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

    def check_integrable(self) -> None:
        # the log factor vanishes like x at 0, softening the power by one
        if self.log_scale is not None and self.log_scale > 0:
            if self.power <= -2:
                raise NonIntegrable(f"x**{self.power} * log diverges at 0")
        elif self.power <= -1:
            raise NonIntegrable(f"x**{self.power} diverges at 0")


def plan_quadrature(integrand: Integrand) -> None:
    """Check the integrability of the integrand; the rule itself needs no
    sizing (its level budget is _DE_MAX_LEVEL), and the precision cap holds
    for every PrecisionContext by construction."""
    integrand.check_integrable()


def _make_eval(integrand: Integrand):
    """Pointwise evaluator of the integrand's factor of exp(-x), x**power
    times its log or denominator factor, at the ambient working precision;
    the rule's node table carries exp(-x) in the weights."""
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


#: The double-exponential nodes walked so far, per mp.prec; see _Level.
_NODE_TABLES: dict[int, list[_Level]] = {}


class _Level:
    """The nodes of one refinement level at one precision, in walk order:
    nodes[i] is ((x, w e**-x) at t, (x, w e**-x) at -t or None at t = 0) for
    the i-th t = k h of the walk, and e is e**-t at the last of them, from
    which the next walk extends the level. A node depends only on (mp.prec,
    level, i), so a node read back equals the one a cold walk computes."""

    __slots__ = ("h", "ratio", "nodes", "e")

    def __init__(self, h: BigFloat, ratio: BigFloat) -> None:
        self.h, self.ratio, self.nodes, self.e = h, ratio, [], None


def _k(n: int, i: int) -> int:
    """The i-th node of level n is at t = k 2**-n: level 0 walks every
    k >= 0, a finer level only the odd k, the nodes it adds."""
    return i if n == 0 else 2 * i + 1


def _level(n: int) -> _Level:
    """Level n of the node table at the ambient precision, created empty:
    step h = 2**-n, and e**-t steps by e**-(2 h) along it (e**-h on level
    0)."""
    levels = _NODE_TABLES.setdefault(mp.prec, [])
    while len(levels) <= n:
        h = mpmath.ldexp(mpf(1), -len(levels))
        step = 2 if levels else 1
        levels.append(_Level(h, mpmath.exp(-step * h)))
    return levels[n]


def _grow(level: _Level, n: int) -> None:
    """Append the level's next node pair: x = exp(t - e), dx/dt = x (1 + e)
    with e = e**-t, and at -t the same with e**t = 1 / e, each weight times
    e**-x."""
    i = len(level.nodes)
    t = _k(n, i) * level.h
    if i % _DE_REFRESH_STEPS == 0:
        e = mpmath.exp(-t)
    else:
        e = level.e * level.ratio
    level.e = e

    def node(t, e):
        x = mpmath.exp(t - e)
        return x, x * (1 + e) * mpmath.exp(-x)

    level.nodes.append((node(t, e), node(-t, 1 / e) if _k(n, i) else None))


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

    The nodes and their weights times e**-x come from the node table at the
    ambient precision, which every quadrature at that precision shares and
    which grows as far as a walk goes. Along a level, e**-t is a geometric
    progression in e**-(step h), and the node at -t takes e**t = 1 / e**-t,
    so a new node pair costs four exp calls; the progression restarts from
    a direct exp every _DE_REFRESH_STEPS nodes to bound its accumulated
    rounding."""
    results: list[BigFloat] = []
    l_prev = None  # log10 of the previous level difference
    running = mpf(0)
    for n in range(_DE_MAX_LEVEL + 1):
        level = _level(n)
        new = mpf(0)
        scale = max(mpf(1), abs(results[-1])) if results else mpf(1)
        cutoff = tol * scale / 100
        small_run = 0
        i = 0
        while True:
            if i == len(level.nodes):
                _grow(level, n)
            (x, w), minus = level.nodes[i]
            contrib = w * f(x)
            if minus is not None:
                xm, wm = minus
                contrib += wm * f(xm)
            new += contrib
            if math.ldexp(_k(n, i), -n) > 3 and abs(contrib) < cutoff:
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
            i += 1
            if math.ldexp(_k(n, i), -n) > _DE_T_CAP:
                raise PrecisionUnreachable(
                    "double-exponential window exhausted before terms decayed")
        running += new
        value = running * level.h
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
    2; see _double_exponential). That error bound is the tolerance of
    G(c)'s cross-check in exp_e1. Results are cached by (integrand, ctx)."""
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

#: Evaluators of G(c) and of delta: quadrature, e**c times mpmath.e1(c), or
#: both with a mandatory agreement check.
DELTA_METHODS = ("quadrature", "e_times_E1", "cross_validated")


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


def exp_e1(c: Fraction | int, ctx: PrecisionContext,
           method: str = "cross_validated") -> BigFloat:
    """G(c) = e**c E1(c) = integral(0,inf) e**-x / (x + c) dx for rational
    c > 0, by quadrature of that integral (as c G(c) = integral(0,inf)
    e**-x / (x/c + 1) dx, divided by c), by e**c times mpmath.e1(c), or by
    both: "cross_validated" returns mpmath.e1's value once the quadrature
    confirms it within the quadrature's own error bound, c |q - s| <
    10**(3 - decimal_digits - guard_digits), and raises CrossCheckFailure
    otherwise. Cached by (method, c, ctx); G(1) is delta."""
    if method not in DELTA_METHODS:
        raise ValueError(f"unknown method {method!r}")
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"exp_e1 requires c > 0, got {c}")
    return _g_by_method(method, c, ctx)


def delta_reference(ctx: PrecisionContext,
                    method: str = "cross_validated") -> BigFloat:
    """The Euler-Gompertz constant integral(0,inf) ln(x+1) e**-x dx = G(1),
    by direct quadrature, by e*E1(1), or by e*E1(1) checked by the
    quadrature, as exp_e1(1)."""
    return exp_e1(1, ctx, method)


@lru_cache(maxsize=None)
def _g_by_method(method: str, c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # one cache entry per (method, c, ctx), however the caller spelled them
    if method == "quadrature":
        return _g_quadrature(c, ctx)
    if method == "e_times_E1":
        return _g_series(c, ctx)
    # the rule integrates c G(c) < 1 to an absolute 10**-(D+g), so the two
    # evaluators of c G(c) agree within that, with a factor 1000 of margin
    q = _g_quadrature(c, ctx)
    s = _g_series(c, ctx)
    with mp.workprec(ctx.working_bits):
        if abs(q - s) * c >= 1000 * ctx.internal_tolerance():
            raise CrossCheckFailure(
                f"G({c}) evaluators disagree: quadrature={q} series={s}")
    return s
