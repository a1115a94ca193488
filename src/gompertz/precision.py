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
    working_bits, and rounded once to working_bits at the end. A context
    above MAX_DECIMAL_DIGITS cannot be built, by the constructor or by
    _replace, so no evaluator checks the cap itself.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int, guard_digits: int = 15):
        if decimal_digits < 1:
            raise ValueError("decimal_digits must be positive")
        if guard_digits < 5:
            raise ValueError("guard_digits must be at least 5")
        if decimal_digits > MAX_DECIMAL_DIGITS:
            raise PrecisionUnreachable(
                f"requested {decimal_digits} digits exceeds the "
                f"{MAX_DECIMAL_DIGITS}-digit cap")
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

    def internal_tolerance(self) -> BigFloat:
        """10**-(decimal_digits + guard_digits), at working precision."""
        with mp.workprec(self.working_bits):
            return mpf(10) ** (-self.total_digits)

    def target_tolerance(self) -> BigFloat:
        """10**-decimal_digits, at working precision."""
        with mp.workprec(self.working_bits):
            return mpf(10) ** (-self.decimal_digits)

    def agrees(self, a: BigFloat, b: BigFloat) -> bool:
        """|a - b| < 10**-decimal_digits * max(1, |a|): agreement to the
        target digits, relative once |a| exceeds 1, as the tests compare
        evaluators; an absolute 10**-D would false-fail on large values that
        agree to the last working bit. G(c)'s own cross-check in reference
        is tighter: 1000 units of 10**-(D+g) in c G(c), not the printed
        digits."""
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

