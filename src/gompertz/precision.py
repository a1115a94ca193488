"""Working-precision bookkeeping for arbitrary-precision floats.

BigFloat values are mpmath.mpf numbers; every evaluator takes an explicit
PrecisionContext and rounds its result to the context's working precision,
so results are pure functions of (inputs, context).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .errors import PrecisionUnreachable

BigFloat = mpmath.mpf

#: Largest supported target precision, in decimal digits.
MAX_DECIMAL_DIGITS = 1000


class PrecisionContext(namedtuple("PrecisionContext",
                                  "decimal_digits guard_digits")):
    """Target output digits plus guard digits absorbed before final rounding.

    working_bits = ceil((decimal_digits + guard_digits) * log2(10)); all
    internal tolerances are 10**-(decimal_digits + guard_digits). The one
    slack rule: an intermediate value is carried at inner_bits, 16 bits past
    working_bits, and rounded once to working_bits at the end.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int, guard_digits: int = 15):
        if decimal_digits < 1:
            raise ValueError("decimal_digits must be positive")
        if guard_digits < 5:
            raise ValueError("guard_digits must be at least 5")
        return super().__new__(cls, decimal_digits, guard_digits)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    @property
    def total_digits(self) -> int:
        return self.decimal_digits + self.guard_digits

    @property
    def working_bits(self) -> int:
        bits = math.ceil(self.total_digits * math.log2(10))
        # invariant: at least 16 bits beyond the bare target digits
        assert bits >= math.ceil(self.decimal_digits * math.log2(10)) + 16
        return bits

    @property
    def inner_bits(self) -> int:
        """working_bits + 16: the precision of intermediates inside an
        evaluator, before its one rounding to working_bits."""
        return self.working_bits + 16

    def check_cap(self) -> None:
        if self.decimal_digits > MAX_DECIMAL_DIGITS:
            raise PrecisionUnreachable(
                f"requested {self.decimal_digits} digits exceeds the "
                f"{MAX_DECIMAL_DIGITS}-digit cap")

    def internal_tolerance(self) -> BigFloat:
        """10**-(decimal_digits + guard_digits), at working precision."""
        with mp.workprec(self.working_bits):
            return mpf(10) ** (-self.total_digits)

    def target_tolerance(self, slack_digits: int = 0) -> BigFloat:
        """10**-(decimal_digits - slack_digits)."""
        with mp.workprec(self.working_bits):
            return mpf(10) ** (-(self.decimal_digits - slack_digits))

    def agrees(self, a: BigFloat, b: BigFloat) -> bool:
        """|a - b| < 10**-decimal_digits * max(1, |a|): agreement to the
        target digits, relative once |a| exceeds 1. The one tolerance of the
        package's cross-checks; an absolute 10**-D would false-fail on large
        values that agree to the last working bit."""
        with mp.workprec(self.working_bits):
            a = mpf(a)
            return abs(a - b) < self.target_tolerance() * max(1, abs(a))

    def round(self, x: BigFloat) -> BigFloat:
        """Round x to nearest at working_bits."""
        with mp.workprec(self.working_bits):
            return +mpf(x)


def to_bigfloat(q: Fraction | int, ctx: PrecisionContext) -> BigFloat:
    """Exact rational -> BigFloat with one rounding at working precision."""
    q = Fraction(q)
    with mp.workprec(ctx.working_bits):
        return mpf(q.numerator) / q.denominator


def bigfloat_str(x: BigFloat, digits: int) -> str:
    """Decimal string with exactly `digits` significant digits.

    Operates on the value's own mantissa; wrapping through mpf() here would
    re-round at the global default precision and corrupt digits beyond ~16.
    """
    return mpmath.nstr(x, digits, strip_zeros=False)


def log1p(y: BigFloat) -> BigFloat:
    """ln(1+y) at full relative precision, y >= 0 possibly far below eps.

    Kept over mpmath.log1p, which was slower on the quadrature rule's own
    nodes x = exp(t - e**-t), |t| <= 6.25 (2 vCPUs, Python 3.11.7, mpmath
    1.3.0 pure-Python backend): 21 against 13 us per call at 166 bits, 31
    against 19 us at 570 bits, and faster only at 1730 bits, 181 against
    213 us."""
    if y == 0:
        return mpf(0)
    mag = mpmath.mag(y)  # ceil(log2 |y|)
    if mag >= -10:
        return mpmath.log(1 + y)
    if mag < -(mp.prec // 2):
        # |y**3/3| < 2**(-1.5*prec): two series terms suffice
        return y * (1 - y / 2)
    with mp.workprec(mp.prec - mag + 10):
        v = mpmath.log(1 + y)
    return +v
