#!/usr/bin/env python3
"""Scan the digamma series over u and m under both Bernoulli conventions and
report residuals; the series is an open claim, so only the observed residuals
are printed, with the convention that calibrates better at the final m.

Usage: python scripts/digamma_series_scan.py [max_m] [digits]
"""

import sys
from fractions import Fraction

from gompertz import (B1_MINUS_HALF, B1_PLUS_HALF, PrecisionContext,
                      bigfloat_str, calibrated_convention,
                      digamma_series_scan)


def main():
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    digits = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    ctx = PrecisionContext(digits)
    conventions = (B1_MINUS_HALF, B1_PLUS_HALF)
    checkpoints = sorted({1, 2, 5, 10, max_m} & set(range(1, max_m + 1)))
    for u in (Fraction(1, 2), Fraction(1), Fraction(2)):
        print(f"\nu = {u}:")
        points = digamma_series_scan(u, checkpoints, conventions, ctx)
        for p in points:
            print(f"  {p.convention:14s} m={p.m:3d}  rhs={bigfloat_str(p.rhs, 12)}"
                  f"  psi={bigfloat_str(p.psi, 12)}"
                  f"  residual={bigfloat_str(p.residual, 5)}")
        best = calibrated_convention(p for p in points if p.m == max_m)
        print(f"  smaller residual at m={max_m}: {best}")


if __name__ == "__main__":
    main()
