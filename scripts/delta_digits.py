#!/usr/bin/env python3
"""Regenerate src/gompertz/delta_digits.txt, the committed decimal digits of
the Euler-Gompertz constant delta = G(1) against which `reference` checks
mpmath.e1's value of G(1), and on which it anchors the series that checks
G(c) at moderate c.

delta is evaluated twice at PLACES + GUARD digits, by the package's
double-exponential quadrature of integral(0,inf) e**-x / (x + 1) dx and by
e times mpmath.e1(1), under mp.workprec (a PrecisionContext stops at 1000
digits). The two must agree within the quadrature's error bound, 1000 units
of 10**-(PLACES + GUARD); the file then holds "0." and the first PLACES
decimal places of delta, truncated, and a newline. The script refuses to
write when the guard digits cannot decide the truncation (a run of nines or
zeros past the last place). The file must come out byte for byte as
committed: run the script and `git diff` the file. The quadrature at these
digits takes about 100 s and 70 MB (2 vCPUs, Python 3.11.7, mpmath 1.3.0
with its pure-Python backend).

Usage: PYTHONPATH=src python3 scripts/delta_digits.py [--out FILE]
"""

import argparse
import math
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from gompertz import Integrand, reference

#: decimal places written; a command asks for at most 1990 total digits
#: (1000 printed plus the largest guard rung), and the series anchored on
#: delta needs ceil(c log10 e) + 10 more, so 2500 places serve c <= 1151 at
#: the largest guard and every smaller c below it
PLACES = 2500
GUARD = 20
OUT = Path(__file__).resolve().parents[1] / "src" / "gompertz" / "delta_digits.txt"


def delta_digits() -> str:
    bits = math.ceil((PLACES + GUARD) * math.log2(10)) + 16
    with mp.workprec(bits):
        tol = mpf(10) ** -(PLACES + GUARD)
        quadrature = reference._double_exponential(
            reference._make_eval(Integrand(Fraction(0), denom_power=1)), tol)
        series = mpmath.e * mpmath.e1(1)
        if abs(quadrature - series) >= 1000 * tol:
            raise SystemExit(f"delta evaluators disagree by "
                             f"{mpmath.nstr(abs(quadrature - series), 5)}")
        scaled = series * mpf(10) ** PLACES
        places = int(mpmath.floor(scaled))
        rest = scaled - places
        if not mpf(10) ** (10 - GUARD) < rest < 1 - mpf(10) ** (10 - GUARD):
            raise SystemExit("the guard digits do not decide the last place")
    return f"0.{places:0{PLACES}d}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT,
                        help=f"where to write the digits (default {OUT})")
    args = parser.parse_args()
    args.out.write_text(delta_digits())


if __name__ == "__main__":
    main()
