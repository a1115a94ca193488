#!/usr/bin/env python3
"""Run a pinned corpus of `gompertz` CLI invocations and write what each
one printed, so that two checkouts can be compared with `diff -r`.

Each invocation runs in a fresh `python -m gompertz.cli` process, with
PYTHONPATH set to the given source tree, in a new temporary directory that
holds only an empty subdirectory `taken`. Invocation NN (counted from 01,
in corpus order) leaves four files in OUTDIR:
- NN.cmd: the arguments, space-separated;
- NN.out and NN.err: its stdout and stderr, as bytes;
- NN.code: its exit code.

The corpus is every distinct `perfbench.workloads.invocations(w, s)` for
the three workloads and seeds 1-5, in first-seen order, then EXTRA: cases
the benchmark does not reach (the 1000-digit cap, the theorem and
conjecture cases of earlier output checks, of which #27, `theorem
--path quadrature`, now pins that the theorem refuses the option of its
former second route with exit 2, the exact span sums at m = 200 for
u = 2/3 and at m = 60 for the digamma series, the theorem at u = 1/100
and at u = 1/1000, where the guard climbs to the 480-digit rung, the
digamma series at u = 1000, two family-2 tables beyond the workloads' r
and m, the csv rows of every identity point at m <= 25, the json reports
and summary counts of the identity grids at m <= 40, one exit-1 and one
exit-2 case, three `--out` targets that cannot be written, the theorem at
r = 1, u = 1/10000 and at r = 3, u = 1/1000000, and the theorem at u = 1
and 1000 digits, whose k = 0 log-moment is the r = 0 rows' one term
outside the span). The list is
read from this checkout's perfbench/, whichever tree --src names, so two
runs compare the same invocations.

Usage: python3 scripts/output_corpus.py --src TREE/src OUTDIR
Compare: diff -r OUTDIR_A OUTDIR_B
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, invocations  # noqa: E402

SEEDS = range(1, 6)
EXTRA = (
    ["delta", "--digits", "1000"],
    ["theorem", "--u", "1/100", "--r", "2", "--max-m", "15", "--digits", "40"],
    # exit 2: the theorem has one route, and no option to choose another
    ["theorem", "--u", "2/3", "--max-m", "12", "--path", "quadrature"],
    ["conjecture", "--u", "1", "--max-m", "29", "--digits", "90"],
    # the exact span sums at large m: the theorem's blocks at u != 1, and
    # the digamma series at u = 1
    ["theorem", "--u", "2/3", "--max-m", "200"],
    ["conjecture", "--u", "1", "--max-m", "60"],
    # the span far from c = 1: c = 100 for the theorem, and c = 1000 for
    # the digamma series
    ["theorem", "--u", "1/100", "--max-m", "60"],
    ["conjecture", "--u", "1000", "--max-m", "40"],
    # c = 1000: the theorem's blocks cancel far enough that the guard
    # reaches the 480-digit rung
    ["theorem", "--u", "1/1000", "--max-m", "200"],
    # the approximant integers beyond the workloads' r and m: family 2 at
    # the --max-m cap, and at r = 4
    ["approx", "--corollary", "2", "--r", "1", "--max-m", "200"],
    ["approx", "--corollary", "2", "--r", "4", "--max-m", "60"],
    # every identity point's params, verdict and residual; and larger
    # grids than the workloads', with the summary counts
    ["identities", "--max-m", "25", "--format", "csv"],
    ["identities", "--max-m", "40", "--format", "json"],
    # exit 1: the injected negative control fails
    ["identities", "--inject-fault", "--max-m", "6", "--format", "json"],
    # exit 2: an option the parser does not know
    ["approx", "--corollary", "1", "--r", "0", "--max-m", "5",
     "--threads", "2"],
    # exit 2: --out into a missing directory, onto a directory, and onto
    # the working directory itself
    ["delta", "--digits", "10", "--out", "missing/report.txt"],
    ["delta", "--digits", "10", "--out", "taken"],
    ["delta", "--digits", "10", "--out", "."],
    # r >= 1 at small u: c = 10**4, and c = 10**6 at the --max-m cap,
    # where a row cancels up to 825 digits and the guard climbs to 960
    ["theorem", "--u", "1/10000", "--r", "1", "--max-m", "100"],
    ["theorem", "--u", "1/1000000", "--r", "3", "--max-m", "200"],
    # the k = 0 log-moment's series at the digit cap
    ["theorem", "--u", "1", "--max-m", "60", "--digits", "1000"],
)


def corpus() -> list[list[str]]:
    seen = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for argv in invocations(workload, seed):
                if argv not in seen:
                    seen.append(argv)
    return seen + list(EXTRA)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory of the checkout to run")
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    args.outdir.mkdir(parents=True, exist_ok=True)
    for number, argv in enumerate(corpus(), start=1):
        with tempfile.TemporaryDirectory() as cwd:
            os.mkdir(os.path.join(cwd, "taken"))
            done = subprocess.run(
                [sys.executable, "-m", "gompertz.cli", *argv], cwd=cwd,
                env=env, capture_output=True)
        stem = args.outdir / f"{number:02d}"
        stem.with_suffix(".cmd").write_text(" ".join(argv) + "\n")
        stem.with_suffix(".out").write_bytes(done.stdout)
        stem.with_suffix(".err").write_bytes(done.stderr)
        stem.with_suffix(".code").write_text(f"{done.returncode}\n")
        print(f"{number:02d} exit {done.returncode}: {' '.join(argv)}",
              flush=True)


if __name__ == "__main__":
    main()
