"""Arbitrary-precision reference evaluation: semi-infinite quadrature for the
exp(-x)-weighted integrand family, the Gamma and digamma functions, Euler's
constant, and two independent evaluators of G(c) = e**c E1(c), whose value
at c = 1 is the Euler-Gompertz constant delta.
Gamma and Euler's constant come from mpmath (mpmath.gamma, mpmath.euler);
digamma is summed here from the package's exact Bernoulli numbers.

Quadrature splits at x = 1: a tanh-sinh (double-exponential) rule absorbs the
algebraic endpoint singularity on (0, 1], and composite Gauss-Legendre panels
cover [1, X] where the integrand is analytic and exp(-x)-damped. X carries an
explicit, audited tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from .errors import (CrossCheckFailure, DomainError, NonIntegrable, PoleError,
                     PrecisionUnreachable)
from .exactmath import bernoulli
from .precision import BigFloat, PrecisionContext, log1p, to_bigfloat

# extra bits carried inside evaluators before the final ctx rounding
_SLACK_BITS = 16

_TANH_SINH_MAX_LEVEL = 12
_TANH_SINH_T_CAP = 16.0


@dataclass(frozen=True)
class Integrand:
    """Descriptor for integral(0, inf) of x**power * exp(-x) * F(x) dx where
    F is exactly one of: 1, ln(log_scale*x + 1), or (denom_scale*x + 1)**-denom_power.
    """

    power: Fraction
    log_scale: Fraction | None = None
    denom_power: int = 0
    denom_scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "power", Fraction(self.power))
        if self.log_scale is not None:
            object.__setattr__(self, "log_scale", Fraction(self.log_scale))
            if self.log_scale < 0:
                raise ValueError("log_scale must be nonnegative")
        object.__setattr__(self, "denom_scale", Fraction(self.denom_scale))
        if self.denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        if self.log_scale is not None and self.denom_power > 0:
            raise ValueError("at most one of log/denominator factors")
        if self.denom_power > 0 and self.denom_scale <= 0:
            raise ValueError("denom_scale must be positive")

    def check_integrable(self) -> None:
        # the log factor vanishes like x at 0, softening the power by one
        if self.log_scale is not None and self.log_scale > 0:
            if self.power <= -2:
                raise NonIntegrable(f"x**{self.power} * log diverges at 0")
        elif self.power <= -1:
            raise NonIntegrable(f"x**{self.power} diverges at 0")


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolved plan for one semi-infinite integral."""

    tanh_sinh_max_level: int
    gl_nodes: int
    gl_panel_width: int
    truncation_x: int
    tail_bound: BigFloat

    def __post_init__(self) -> None:
        assert self.gl_nodes % 2 == 0


def plan_quadrature(integrand: Integrand, ctx: PrecisionContext) -> QuadratureSpec:
    """Choose truncation point and rule sizes, with the tail bound audited
    against the internal tolerance."""
    ctx.check_cap()
    integrand.check_integrable()
    # polynomial majorant degree of the prefactor on [1, inf): the log factor
    # costs at most one extra power, the denominator factor only helps
    c = max(0, math.ceil(integrand.power))
    scale = 1.0
    if integrand.log_scale is not None and integrand.log_scale > 0:
        c += 1
        scale = max(1.0, math.log1p(float(integrand.log_scale)) + 1.0)
    with mp.workprec(ctx.working_bits + _SLACK_BITS):
        tol = ctx.internal_tolerance()
        x = max(math.ceil(ctx.total_digits * math.log(10)), 2 * c + 1)
        while 2 * scale * mpf(x) ** c * mpmath.exp(-x) >= tol:
            x += 1
        tail = 2 * scale * mpf(x) ** c * mpmath.exp(-x)
    assert x >= 2 * c
    assert tail <= ctx.internal_tolerance()
    n = math.ceil(1.25 * ctx.total_digits) + 6
    n += n % 2  # even count: no root at the panel midpoint to special-case
    return QuadratureSpec(tanh_sinh_max_level=_TANH_SINH_MAX_LEVEL,
                          gl_nodes=n, gl_panel_width=4,
                          truncation_x=x, tail_bound=tail)


def _make_eval(integrand: Integrand):
    """Pointwise evaluator at the ambient working precision."""
    a = mpf(integrand.power.numerator) / integrand.power.denominator
    b = None
    if integrand.log_scale is not None:
        b = mpf(integrand.log_scale.numerator) / integrand.log_scale.denominator
    s = mpf(integrand.denom_scale.numerator) / integrand.denom_scale.denominator
    p = integrand.denom_power

    def f(x: BigFloat) -> BigFloat:
        v = x ** a * mpmath.exp(-x)
        if b is not None:
            v *= log1p(b * x)
        if p:
            v /= (s * x + 1) ** p
        return v

    return f


def _tanh_sinh_unit(f, tol: BigFloat, max_level: int) -> BigFloat:
    """integral(0,1) of f via the double-exponential transform
    x = (1 + tanh((pi/2) sinh t)) / 2, computed stably near x = 0."""
    pi2 = mpmath.pi / 2

    def node(t):
        s = pi2 * mpmath.sinh(t)
        e2s = mpmath.exp(2 * s)
        x = e2s / (1 + e2s)
        w = pi2 * mpmath.cosh(t) * (x / (1 + e2s)) * 2
        return x, w

    results: list[BigFloat] = []
    running = mpf(0)
    h = mpf(1)
    for level in range(max_level + 1):
        new = mpf(0)
        k = 0 if level == 0 else 1
        step = 1 if level == 0 else 2  # reuse all coarser-level nodes
        scale = max(mpf(1), abs(results[-1])) if results else mpf(1)
        cutoff = tol * scale / 100
        small_run = 0
        while True:
            t = k * h
            x, w = node(t)
            contrib = w * f(x)
            if k > 0:
                xm, wm = node(-t)
                contrib += wm * f(xm)
            new += contrib
            if float(t) > 3 and abs(contrib) < cutoff:
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
            k += step
            if float(k * h) > _TANH_SINH_T_CAP:
                raise PrecisionUnreachable(
                    "tanh-sinh tail window exhausted before terms decayed")
        running += new
        results.append(running * h)
        if level > 0 and abs(results[-1] - results[-2]) < tol * max(mpf(1), abs(results[-1])):
            return results[-1]
        h = h / 2
    raise PrecisionUnreachable(
        f"tanh-sinh did not converge within {max_level} refinement levels")


@lru_cache(maxsize=None)
def _legendre_nodes(n: int, prec: int) -> tuple:
    """Gauss-Legendre nodes/weights on [-1,1] (n even), accurate to about
    2**-(prec+20) and rounded to prec + 40 bits whatever the caller's
    precision. Each root is polished by float Newton steps from its cos
    guess, then by Newton in fixed point: Python ints holding
    frac_bits = prec + 40 + 2*bitlen(n) + 16 fraction bits, so the n-step
    Legendre recurrence and the division by 1 - x**2 near the ends stay
    far below the target."""
    assert n % 2 == 0
    frac_bits = prec + 40 + 2 * n.bit_length() + 16
    one = 1 << frac_bits
    stop_bits = frac_bits - (prec + 20)  # |dx| < 2**-(prec+20)

    def legendre(x: int) -> tuple[int, int]:
        # P_n(x) and n (x P_n(x) - P_{n-1}(x)) / (x**2 - 1) = P_n'(x)
        p0, p1 = one, x
        for j in range(2, n + 1):
            p0, p1 = p1, (((2 * j - 1) * x * p1 >> frac_bits)
                          - (j - 1) * p0) // j
        dp = (n * ((x * p1 >> frac_bits) - p0) << frac_bits) // (
            (x * x >> frac_bits) - one)
        return p1, dp

    half = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(3):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            x -= p1 * (x * x - 1) / (n * (x * p1 - p0))
        fx = int(math.ldexp(x, 53)) << (frac_bits - 53)
        for _ in range(100):
            p1, dp = legendre(fx)
            dx = (p1 << frac_bits) // dp
            fx -= dx
            if abs(dx) >> stop_bits == 0:
                break
        p1, dp = legendre(fx)
        # w = 2 / ((1 - x**2) P_n'(x)**2), with 2**frac_bits scaling
        fw = (2 << (4 * frac_bits)) // ((one - (fx * fx >> frac_bits)) * dp * dp)
        half.append((fx, fw))
    with mp.workprec(prec + 40):
        # negation inside the block: mpmath rounds even unary minus at the
        # ambient precision
        half = [(mpf((fx, -frac_bits)), mpf((fw, -frac_bits)))
                for fx, fw in half]
        return tuple(half + [(-x, w) for x, w in half])


def _gl_panels(f, lo: int, hi: int, n: int, width: int) -> BigFloat:
    nodes = _legendre_nodes(n, mp.prec)
    total = mpf(0)
    a = mpf(lo)
    end = mpf(hi)
    while a < end:
        b = min(a + width, end)
        half = (b - a) / 2
        mid = (b + a) / 2
        s = mpf(0)
        for x, w in nodes:
            s += w * f(mid + half * x)
        total += s * half
        a = b
    return total


@lru_cache(maxsize=None)
def quad_semi_infinite(integrand: Integrand, ctx: PrecisionContext) -> BigFloat:
    """integral(0, inf) of the described integrand, aiming at an error
    below 10**-(decimal_digits + guard_digits) relative to max(1, |value|):
    tanh-sinh stops on that relative change, the tail beyond X is bounded
    by it in absolute terms, and the Gauss-Legendre node count grows with
    the total digits. The guard digits leave room for the cross-check
    tolerance of PrecisionContext.agrees. Results are cached by (integrand,
    ctx)."""
    if integrand.log_scale == 0:
        return ctx.round(mpf(0))  # ln(1) annihilates the integrand
    spec = plan_quadrature(integrand, ctx)
    with mp.workprec(ctx.working_bits + _SLACK_BITS):
        tol = ctx.internal_tolerance()
        f = _make_eval(integrand)
        lower = _tanh_sinh_unit(f, tol, spec.tanh_sinh_max_level)
        upper = _gl_panels(f, 1, spec.truncation_x, spec.gl_nodes,
                           spec.gl_panel_width)
        value = lower + upper
    return ctx.round(value)


def gamma_real(x: BigFloat | Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """Gamma(x) for real non-pole x: mpmath.gamma 30 bits beyond the working
    precision, then rounded to it."""
    ctx.check_cap()
    if isinstance(x, (Fraction, int)):
        if x == int(x) and x <= 0:
            raise PoleError(f"Gamma pole at {x}")
        x = to_bigfloat(Fraction(x), ctx)
    with mp.workprec(ctx.working_bits + 30):
        x = mpf(x)
        if x <= 0 and x == mpmath.floor(x):
            raise PoleError(f"Gamma pole at {x}")
        out = mpmath.gamma(x)
    return ctx.round(out)


# --- digamma via shift + Bernoulli asymptotic series --------------------------

@lru_cache(maxsize=None)
def digamma(u: BigFloat | Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """psi(u) for u > 0: raise the argument by unit steps until the first
    omitted asymptotic term is below tolerance, then sum the even-Bernoulli
    series psi(v) ~ ln v - 1/(2v) - sum B_2n / (2n v**2n). Cached by
    (u, ctx): the digamma-series harness asks for one psi(u) per point."""
    ctx.check_cap()
    if isinstance(u, (Fraction, int)):
        if u <= 0:
            raise DomainError(f"digamma requires u > 0, got {u}")
        u = to_bigfloat(Fraction(u), ctx)
    with mp.workprec(ctx.working_bits + 30):
        u = mpf(u)
        if u <= 0:
            raise DomainError(f"digamma requires u > 0, got {u}")
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
    ctx.check_cap()
    with mp.workprec(ctx.working_bits):
        value = +mpmath.euler
    return ctx.round(value)


# --- G(c) = e**c E1(c), and the Euler-Gompertz constant delta = G(1) --------

#: Evaluators of G(c) and of delta: quadrature, the e**c E1(c) series, or both
#: with a mandatory agreement check.
DELTA_METHODS = ("quadrature", "e_times_E1", "cross_validated")

_EULER_GAMMA = 0.5772156649015329


def _g_quadrature(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # G(c) = integral(0,inf) ln(x/c + 1) e**-x dx, by parts
    return quad_semi_infinite(Integrand(Fraction(0), log_scale=1 / c), ctx)


def _series_extra_bits(c: Fraction) -> int:
    """Bits that -gamma - ln c + S cancels away in _g_series: the parts are
    below gamma + |ln c| + ln(1 + 1/c) and E1(c) > e**-c / (c + 1)
    (Abramowitz and Stegun 5.1.19), so the loss is about c log2(e) bits for
    large c and 3 bits at c = 1."""
    log_c = math.log(c.numerator) - math.log(c.denominator)
    parts = _EULER_GAMMA + abs(log_c) + math.log1p(1 / float(c))
    return max(0, math.ceil(math.log2(parts * (float(c) + 1))
                            + float(c) * math.log2(math.e)))


def _g_series(c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # E1(c) = -gamma - ln c + sum_{k>=1} (-1)**(k+1) c**k / (k * k!): the sum
    # is exact and alternating, so it stops at its first term below the
    # limit; the cancellation bits are carried by the limit and the rounding
    extra = _series_extra_bits(c)
    limit = Fraction(1, 10 ** (ctx.total_digits + 5) << extra)
    total = Fraction(0)
    num = den = 1  # c**k / k! = num / den
    k = 0
    while True:
        k += 1
        num *= c.numerator
        den *= k * c.denominator
        term = Fraction(num if k % 2 else -num, k * den)
        total += term
        if abs(term) < limit:
            break
    with mp.workprec(ctx.working_bits + _SLACK_BITS + extra):
        x = mpf(c.numerator) / c.denominator
        e1 = (mpf(total.numerator) / total.denominator - mpmath.euler
              - mpmath.log(x))
        value = mpmath.exp(x) * e1
    return ctx.round(value)


def exp_e1(c: Fraction | int, ctx: PrecisionContext,
           method: str = "cross_validated") -> BigFloat:
    """G(c) = e**c E1(c) = integral(0,inf) e**-x / (x + c) dx for rational
    c > 0, by quadrature of integral(0,inf) ln(x/c + 1) e**-x dx, by the
    series of E1, or by both with a mandatory agreement check (their mean is
    returned). Cached by (method, c, ctx); G(1) is delta."""
    if method not in DELTA_METHODS:
        raise ValueError(f"unknown method {method!r}")
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"exp_e1 requires c > 0, got {c}")
    return _g_by_method(method, c, ctx)


def delta_reference(ctx: PrecisionContext,
                    method: str = "cross_validated") -> BigFloat:
    """The Euler-Gompertz constant integral(0,inf) ln(x+1) e**-x dx = G(1),
    by direct quadrature, by e*E1(1), or by both with a mandatory agreement
    check."""
    return exp_e1(1, ctx, method)


@lru_cache(maxsize=None)
def _g_by_method(method: str, c: Fraction, ctx: PrecisionContext) -> BigFloat:
    # one cache entry per (method, c, ctx), however the caller spelled them
    if method == "quadrature":
        return _g_quadrature(c, ctx)
    if method == "e_times_E1":
        return _g_series(c, ctx)
    q = _g_quadrature(c, ctx)
    s = _g_series(c, ctx)
    if not ctx.agrees(q, s):
        raise CrossCheckFailure(
            f"G({c}) evaluators disagree: quadrature={q} series={s}")
    with mp.workprec(ctx.working_bits + _SLACK_BITS):
        value = (q + s) / 2
    return ctx.round(value)
