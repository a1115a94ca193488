#!/usr/bin/env python3
"""Time the two integer kernels of the precision layer against their mpmath
equivalents, at the sizes the `delta` command uses, and write the medians as
JSON. A hand-written kernel is worth keeping only while it is the faster one.

- Bernoulli numbers: `bernoulli(j)` for every j <= N, from an empty table,
  against `mpmath.bernfrac(j)` with mpmath's Bernoulli cache emptied.
- Gauss-Legendre nodes: `_legendre_nodes(n, prec)` for the node sets that
  `delta` plans at 30, 100 and 150 digits, and both it and mpmath's
  `GaussLegendre.calc_nodes` at mpmath's own sizes n = 96 and 192.

Every case is cold (caches emptied first), as in a fresh CLI process, and is
timed RUNS times; the median and the extremes are reported.

Usage: PYTHONPATH=src python3 scripts/bench_layers.py [--out FILE]
"""

import argparse
import json
import os
import platform
import statistics
import time
from fractions import Fraction

import mpmath
import mpmath.libmp.gammazeta as mp_gammazeta
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

from gompertz import Integrand, PrecisionContext, exactmath, plan_quadrature
from gompertz import reference

RUNS = 5
BERNOULLI_MAX = (794, 1600)
NODE_DIGITS = (30, 100, 150)
MPMATH_DEGREES = ((6, 96), (7, 192))
#: the working precision of the mpmath comparison: delta at 100 digits
COMPARE_DIGITS = 100


def timed(setup, work) -> dict:
    samples = []
    for _ in range(RUNS):
        setup()
        start = time.perf_counter()
        work()
        samples.append(time.perf_counter() - start)
    return {"median_s": round(statistics.median(samples), 4),
            "min_s": round(min(samples), 4), "max_s": round(max(samples), 4),
            "runs": RUNS}


def ratio(theirs: dict, ours: dict) -> float:
    return round(theirs["median_s"] / ours["median_s"], 2)


def reset_bernoulli() -> None:
    exactmath._bernoulli_even = [Fraction(1), Fraction(1, 6)]
    exactmath._tangent_column = [1]


def reset_bernfrac() -> None:
    mp_gammazeta.bernoulli_cache.clear()


def node_prec(ctx: PrecisionContext) -> int:
    # _gl_panels asks for nodes at the quadrature's working precision
    return ctx.working_bits + reference._SLACK_BITS


def bench_bernoulli() -> list:
    rows = []
    for top in BERNOULLI_MAX:
        ours = timed(reset_bernoulli,
                     lambda: [exactmath.bernoulli(j) for j in range(top + 1)])
        theirs = timed(reset_bernfrac,
                       lambda: [mpmath.bernfrac(j) for j in range(top + 1)])
        rows.append({"case": f"B_0..B_{top}", "tangent_numbers": ours,
                     "mpmath_bernfrac": theirs,
                     "mpmath_over_ours": ratio(theirs, ours)})
    return rows


def bench_nodes() -> list:
    rows = []
    delta_integrand = Integrand(Fraction(0), log_scale=Fraction(1))
    for digits in NODE_DIGITS:
        ctx = PrecisionContext(digits)
        n, prec = plan_quadrature(delta_integrand, ctx).gl_nodes, node_prec(ctx)
        ours = timed(reference._legendre_nodes.cache_clear,
                     lambda: reference._legendre_nodes(n, prec))
        rows.append({"case": f"n={n} prec={prec} (delta --digits {digits})",
                     "fixed_point_newton": ours})
    prec = node_prec(PrecisionContext(COMPARE_DIGITS))
    for degree, n in MPMATH_DEGREES:
        ours = timed(reference._legendre_nodes.cache_clear,
                     lambda: reference._legendre_nodes(n, prec))
        theirs = timed(lambda: None,
                       lambda: GaussLegendre(mp).calc_nodes(degree, prec))
        rows.append({"case": f"n={n} prec={prec}", "fixed_point_newton": ours,
                     "mpmath_calc_nodes": theirs,
                     "mpmath_over_ours": ratio(theirs, ours)})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args()
    result = {
        "environment": {"python": platform.python_version(),
                        "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "nproc": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
        "bernoulli": bench_bernoulli(),
        "legendre_nodes": bench_nodes(),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
