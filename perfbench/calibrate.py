"""A fixed piece of work that does not touch the package under test.

The benchmark times this script in a fresh interpreter between invocations
to follow how fast the machine runs at that moment; see `speed_factor` in
run.py. It does the kinds of work gompertz does: interpreter start, the
mpmath import, exact Fraction sums and multi-precision arithmetic.
"""

from fractions import Fraction

import mpmath


def kernel() -> None:
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction((-1) ** k, k * k)
    with mpmath.workdps(60):
        x = mpmath.mpf(0)
        for k in range(1, 1500):
            x += mpmath.exp(-mpmath.mpf(k) / 7) * mpmath.log(k)


if __name__ == "__main__":
    kernel()
