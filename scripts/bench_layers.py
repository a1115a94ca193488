#!/usr/bin/env python3
"""Time the integer kernels of the precision layer against their mpmath
equivalents, the quadrature, and the routes of the exact and assembly
layers, and write the medians as JSON. A hand-written kernel is worth
keeping only while it is the faster one. Every case times code the package
runs; to compare two trees, run this script on each.

- Bernoulli numbers: `bernoulli(j)` for every j <= N, from an empty table,
  against `mpmath.bernfrac(j)` with mpmath's Bernoulli cache emptied.
- Digamma: `reference.digamma(u)` (shift plus Bernoulli series) against
  `mpmath.digamma` at the same working precision, at 30, 300 and 1000
  digits for u in {1, 2/3}, with both Bernoulli caches emptied; records
  whether the printed digits are equal.
- Quadrature: `quad_semi_infinite` for delta at 30, 100, 150, 300 and 1000
  digits, as the log-free integral e**-x / (x+1) that the quadrature side
  of `delta` integrates, the package's only quadrature, with the integrand
  evaluations the rule made (a counting wrapper around its factor
  evaluator, in a separate untimed run).
- Log-moments: `log_moment(k, u)` for k = 1..20 at 30 digits, u in
  {2, 2/3, 3/2} (the `series` workload's u), each u on one cross-checked
  G(1/u); and `log_moment(0, u)`, the k = 0 moment's series, at 30, 300
  and 1000 digits for u in {1, 1/100, 1/1000}.
- Digamma-series coefficients: every `digamma_series_coeff(k, m)` that
  `conjecture --max-m 20` uses, in both conventions (an integer Horner from
  an empty Stirling table).
- Exact layer: the family-2 r = 1 pairs from `corollary2_pair` (weighted
  span rows, emptied first) for m <= 100 and m <= 200 (the `--max-m` cap).
- Identity grids: `gauss_grid`, `gen_binomial_grid` and `int_binomial_grid`
  at m <= 25 (the `tables` workload's `identities --max-m 25`) and m <= 40,
  each read row by row from integer tables built once per row, with, for
  `gauss_grid`, the distinct instances and the 2F1 sums it made.
- Theorem: `series_partial_trend(2/3, 0, 200)` at 30 digits, the whole of
  `theorem --u 2/3 --max-m 200` but for printing.
- Small u: `series_partial_trend(1/100, 0, 60)` at 30 digits, the whole of
  `theorem --u 1/100 --max-m 60` but for printing (the span at c = 100),
  and `series_partial_trend(1/10000, 1, 100)` (`theorem --u 1/10000 --r 1
  --max-m 100`, the span at c = 10**4), each with how many of its rows
  print the same digits as the 60-digit run and the guard digits of every
  G(c) it asked for (a wrapper around the `integrals.exp_e1` that
  `g_span_eval` calls, in a separate untimed run).
- Start-up: fresh processes of `python -c "import gompertz"` and
  `python -m gompertz.cli identities --max-m 1`, timed from outside
  STARTUP_RUNS times, and the `-X importtime` self and cumulative times of
  every gompertz module and of mpmath, fractions and argparse (and of
  dataclasses, json and csv where they are imported) in
  `import gompertz.cli`, medians over STARTUP_RUNS processes. The
  processes import the gompertz this script imported and inherit its
  environment; the environment block records whether bytecode caching was
  off (sys.flags.dont_write_bytecode), in which case every process
  compiles the package again.

Every case is cold (caches and the quadrature's node table emptied first),
as in a fresh CLI process, and is timed RUNS times; the median and the
extremes are reported.

Usage: PYTHONPATH=src python3 scripts/bench_layers.py [--out FILE]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import mpmath.libmp.gammazeta as mp_gammazeta

import gompertz
from gompertz import Integrand, PrecisionContext, bigfloat_str, exactmath
from gompertz import approximants, integrals, reference, verify
from gompertz.exactmath import BERNOULLI_CONVENTIONS

RUNS = 5
BERNOULLI_MAX = (794, 1600)
DIGAMMA_DIGITS = (30, 300, 1000)
DIGAMMA_U = (Fraction(1), Fraction(2, 3))
QUADRATURE_DIGITS = (30, 100, 150, 300, 1000)
LOG_MOMENT_U = (Fraction(2), Fraction(2, 3), Fraction(3, 2))
LOG_MOMENT_K = 20
LOG_MOMENT_DIGITS = 30
K0_DIGITS = (30, 300, 1000)
K0_U = (Fraction(1), Fraction(1, 100), Fraction(1, 1000))
#: `conjecture --max-m M` uses the coefficients (k, m + 1) for k <= m <= M
CONJECTURE_MAX_M = 20
FAMILY2_R = 1
FAMILY2_MAX_M = (100, approximants.DEFAULT_M_MAX_CAP)
GRID_MAX_M = (25, 40)
#: `theorem --u 2/3 --max-m 200`: r = 0, c = 1/u = 3/2
THEOREM_U = Fraction(2, 3)
THEOREM_MAX_M = 200
THEOREM_DIGITS = 30
#: (u, r, m_max) of `theorem --u U --r R --max-m M`: c = 1/u = 100 and
#: c = 10**4
SMALL_U_CASES = ((Fraction(1, 100), 0, 60), (Fraction(1, 10000), 1, 100))
STARTUP_RUNS = 21
STARTUP_COMMANDS = (("-c", "import gompertz"),
                    ("-m", "gompertz.cli", "identities", "--max-m", "1"))
#: besides every gompertz module; dataclasses, json and csv appear only
#: where a tree still imports them at start-up
STARTUP_IMPORTS = ("mpmath", "fractions", "argparse", "dataclasses", "json",
                   "csv")


def summary(samples: list) -> dict:
    return {"median_s": round(statistics.median(samples), 4),
            "min_s": round(min(samples), 4), "max_s": round(max(samples), 4),
            "runs": len(samples)}


def timed(setup, work) -> dict:
    samples = []
    for _ in range(RUNS):
        setup()
        start = time.perf_counter()
        work()
        samples.append(time.perf_counter() - start)
    return summary(samples)


def ratio(theirs: dict, ours: dict) -> float:
    return round(theirs["median_s"] / ours["median_s"], 2)


def reset_bernoulli() -> None:
    exactmath._bernoulli_even = [Fraction(1), Fraction(1, 6)]
    exactmath._tangent_column = [1]


def reset_bernfrac() -> None:
    mp_gammazeta.bernoulli_cache.clear()


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


def reset_digamma() -> None:
    reset_bernoulli()
    reset_bernfrac()
    reference.digamma.cache_clear()


def mpmath_digamma(u: Fraction, ctx: PrecisionContext):
    with mpmath.mp.workprec(ctx.working_bits + 30):
        value = mpmath.digamma(mpmath.mpf(u.numerator) / u.denominator)
    return ctx.round(value)


def bench_digamma() -> list:
    rows = []
    for digits in DIGAMMA_DIGITS:
        ctx = PrecisionContext(digits)
        for u in DIGAMMA_U:
            ours = timed(reset_digamma, lambda: reference.digamma(u, ctx))
            theirs = timed(reset_digamma, lambda: mpmath_digamma(u, ctx))
            same = (bigfloat_str(reference.digamma(u, ctx), digits)
                    == bigfloat_str(mpmath_digamma(u, ctx), digits))
            rows.append({"case": f"psi({u}) digits={digits}",
                         "shift_bernoulli": ours, "mpmath_digamma": theirs,
                         "mpmath_over_ours": ratio(theirs, ours),
                         "printed_digits_equal": same})
    return rows


def count_evaluations(integrand: Integrand, ctx: PrecisionContext) -> int:
    """Integrand evaluations of one `quad_semi_infinite(integrand, ctx)`:
    the rule run as it runs there, on a counting wrapper around the
    integrand's factor evaluator."""
    f = reference._make_eval(integrand)
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    with mpmath.mp.workprec(ctx.inner_bits):
        reference._double_exponential(counted, ctx.internal_tolerance())
    return calls


def reset_quadrature() -> None:
    reference.quad_semi_infinite.cache_clear()
    reference._NODE_TABLES.clear()


def bench_quadrature() -> list:
    integrand = Integrand(Fraction(0), denom_power=1)
    rows = []
    for digits in QUADRATURE_DIGITS:
        ctx = PrecisionContext(digits)
        rows.append({"case": f"delta digits={digits}",
                     "log_free": timed(reset_quadrature,
                                       lambda: reference.quad_semi_infinite(
                                           integrand, ctx)),
                     "evaluations": count_evaluations(integrand, ctx)})
    return rows


def reset_log_moments() -> None:
    reset_quadrature()
    reference._g_by_method.cache_clear()
    reference.k0_log_moment.cache_clear()
    integrals._span_tables.clear()


def bench_log_moments() -> list:
    ctx = PrecisionContext(LOG_MOMENT_DIGITS)
    rows = []
    for u in LOG_MOMENT_U:
        exact = timed(reset_log_moments,
                      lambda: [integrals.log_moment(k, u, ctx)
                               for k in range(1, LOG_MOMENT_K + 1)])
        rows.append({"case": f"u={u} k=1..{LOG_MOMENT_K} "
                             f"digits={LOG_MOMENT_DIGITS}",
                     "exact": exact})
    for digits in K0_DIGITS:
        ctx = PrecisionContext(digits)
        for u in K0_U:
            rows.append({"case": f"u={u} k=0 digits={digits}",
                         "series": timed(reset_log_moments,
                                         lambda: integrals.log_moment(
                                             0, u, ctx))})
    return rows


def reset_digamma_coeffs() -> None:
    del exactmath._stirling2_rows[1:]


def bench_digamma_coeffs() -> list:
    points = [(k, m + 1, conv) for conv in BERNOULLI_CONVENTIONS
              for m in range(1, CONJECTURE_MAX_M + 1)
              for k in range(1, m + 1)]
    horner = timed(reset_digamma_coeffs,
                   lambda: [verify.digamma_series_coeff(*p) for p in points])
    return [{"case": f"{len(points)} coefficients "
                     f"(conjecture --max-m {CONJECTURE_MAX_M})",
             "horner": horner}]


def bench_exact_layer() -> list:
    # the span rows are emptied before each run, so every run is cold
    rows = []
    for m_max in FAMILY2_MAX_M:
        ms = range(FAMILY2_R, m_max + 1)
        pairs = timed(integrals._span_tables.clear, lambda: [
            approximants.corollary2_pair(m, FAMILY2_R) for m in ms])
        rows.append({"case": f"family 2 r={FAMILY2_R} pairs m<={m_max}",
                     "span_weighted": pairs})
    return rows


def count_hypergeom_sums(m_max: int) -> int:
    """The 2F1 sums one `gauss_grid(m_max)` makes, by a counting wrapper
    around `verify._hypergeom_pair` in a separate untimed run."""
    hypergeom_pair = verify._hypergeom_pair
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return hypergeom_pair(*args)

    verify._hypergeom_pair = counted
    try:
        verify.gauss_grid(m_max)
    finally:
        verify._hypergeom_pair = hypergeom_pair
    return calls


def bench_identity_grids() -> list:
    rows = []
    for grid in (verify.gauss_grid, verify.gen_binomial_grid,
                 verify.int_binomial_grid):
        for m_max in GRID_MAX_M:
            reports = grid(m_max)
            row = {"case": f"{grid.__name__}(m_max={m_max})",
                   "points": len(reports),
                   "row_kernels": timed(lambda: None, lambda: grid(m_max))}
            if grid is verify.gauss_grid:
                row["distinct_instances"] = len(
                    {tuple(rep.parameters.items()) for rep in reports})
                row["hypergeom_sums"] = count_hypergeom_sums(m_max)
            rows.append(row)
    return rows


def bench_theorem() -> list:
    ctx = PrecisionContext(THEOREM_DIGITS)
    cold = timed(reset_log_moments, lambda: verify.series_partial_trend(
        THEOREM_U, 0, THEOREM_MAX_M, ctx))
    return [{"case": f"series_partial_trend(u={THEOREM_U}, r=0, "
                     f"m_max={THEOREM_MAX_M}) digits={THEOREM_DIGITS}",
             "cold": cold}]


def guard_rungs(u: Fraction, r: int, m_max: int,
                ctx: PrecisionContext) -> list:
    """The guard digits of every G(c) that `g_span_eval` asks for in one
    `series_partial_trend(u, r, m_max, ctx)`, by a wrapper around the
    `integrals.exp_e1` it calls, in a separate untimed run."""
    exp_e1 = integrals.exp_e1
    rungs = set()

    def spied(c, gctx):
        rungs.add(gctx.guard_digits)
        return exp_e1(c, gctx)

    integrals.exp_e1 = spied
    try:
        verify.series_partial_trend(u, r, m_max, ctx)
    finally:
        integrals.exp_e1 = exp_e1
    return sorted(rungs)


def bench_small_u() -> list:
    ctx = PrecisionContext(THEOREM_DIGITS)
    rows = []
    for u, r, m_max in SMALL_U_CASES:
        def printed(ctx, u=u, r=r, m_max=m_max):
            return [bigfloat_str(s, THEOREM_DIGITS) for _, s in
                    verify.series_partial_trend(u, r, m_max, ctx)]

        want = printed(PrecisionContext(2 * THEOREM_DIGITS))
        rows.append({"case": f"series_partial_trend(u={u}, r={r}, "
                             f"m_max={m_max}) digits={THEOREM_DIGITS}",
                     "rows": len(want),
                     "guard_rungs": guard_rungs(u, r, m_max, ctx),
                     "exact": timed(reset_log_moments, lambda: printed(ctx)),
                     "exact_rows_equal_to_2d": sum(
                         a == b for a, b in zip(printed(ctx), want))})
    return rows


def python_process(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the gompertz this script imported."""
    src = Path(gompertz.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *argv], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))


def import_times() -> dict:
    """-X importtime of one `import gompertz.cli`: module -> (self,
    cumulative) microseconds, for the gompertz modules and STARTUP_IMPORTS.
    Its lines read `import time: SELF | CUMULATIVE | NAME`."""
    times = {}
    for line in python_process("-X", "importtime", "-c",
                               "import gompertz.cli").stderr.splitlines()[1:]:
        self_us, cumulative_us, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        if name in STARTUP_IMPORTS or name.split(".")[0] == "gompertz":
            times[name] = (int(self_us), int(cumulative_us))
    return times


def bench_startup() -> dict:
    processes = []
    for argv in STARTUP_COMMANDS:
        samples = []
        for _ in range(STARTUP_RUNS):
            start = time.perf_counter()
            python_process(*argv)
            samples.append(time.perf_counter() - start)
        processes.append({"case": "python " + " ".join(argv),
                          "fresh_process": summary(samples)})
    runs = [import_times() for _ in range(STARTUP_RUNS)]

    def median_ms(name: str, column: int) -> float:
        return round(statistics.median(run[name][column] for run in runs)
                     / 1000, 2)

    imports = {name: {"self_ms": median_ms(name, 0),
                      "cumulative_ms": median_ms(name, 1)}
               for name in sorted(runs[0])}
    return {"processes": processes,
            "import_gompertz_cli": {"runs": STARTUP_RUNS, "modules": imports}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args()
    result = {
        "environment": {"python": platform.python_version(),
                        "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND,
                        "nproc": len(os.sched_getaffinity(0)),
                        "machine": platform.machine(),
                        "cpu": cpu_model(),
                        "dont_write_bytecode": sys.flags.dont_write_bytecode},
        "bernoulli": bench_bernoulli(),
        "digamma": bench_digamma(),
        "quadrature": bench_quadrature(),
        "log_moments": bench_log_moments(),
        "digamma_series_coeff": bench_digamma_coeffs(),
        "exact_layer": bench_exact_layer(),
        "identity_grids": bench_identity_grids(),
        "theorem": bench_theorem(),
        "small_u": bench_small_u(),
        "startup": bench_startup(),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
