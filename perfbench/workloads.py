"""The benchmark's workloads: each is a fixed list of `gompertz` CLI
invocations, drawn from a seed.

The seed picks the free parameters from small pools and fixes the order of
the invocations; one run repeats that same list pass after pass. Each pool
holds members of about equal cost, so the seed changes what is computed but
not how long a pass takes. README.md gives the reason for each workload.

`delta --digits 1000` (the default cross method) is not in any workload: at
the seed commit it does not finish within 600 s. `constant` is the workload
that takes it once it can finish.
"""

from __future__ import annotations

import random

#: R values of the family-2 (`--corollary 2`) table at m <= 100.
FAMILY2_R = (1, 2, 3)
#: R values of the family-1 (`--corollary 1`) table at m <= 200.
FAMILY1_R = (0, 1, 2)
#: u values of `theorem` and `conjecture` away from the exact u = 1 route.
#: u = 3 (the slowest `theorem`) and u = 1/2 (the fastest `conjecture`)
#: were left out so that the seed does not move the pass time.
SERIES_U = ("2", "2/3", "3/2")


def _constant(rng: random.Random) -> list[list[str]]:
    # delta at high precision by both independent routes, then cross-checked
    def digits(base: int) -> str:
        return str(base + rng.randint(-2, 2))
    return [["delta", "--digits", digits(500), "--method", "e1"],
            ["delta", "--digits", digits(150), "--method", "quadrature"],
            ["delta", "--digits", digits(100)]]


def _tables(rng: random.Random) -> list[list[str]]:
    # exact integer and Fraction work; no invocation passes --threads
    return [["approx", "--corollary", "2", "--r", str(rng.choice(FAMILY2_R)),
             "--max-m", "100"],
            ["approx", "--corollary", "1", "--r", str(rng.choice(FAMILY1_R)),
             "--max-m", "200"],
            ["identities", "--max-m", "25"]]


def _series(rng: random.Random) -> list[list[str]]:
    # many distinct quadrature integrands at 30 digits, plus the exact
    # u = 1 route of `theorem`
    return [["theorem", "--u", rng.choice(SERIES_U), "--max-m", "20"],
            ["conjecture", "--u", rng.choice(SERIES_U), "--max-m", "20"],
            ["theorem", "--u", "1", "--max-m", "20"]]


WORKLOADS = {"constant": _constant, "tables": _tables, "series": _series}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass of `workload`, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    argvs = WORKLOADS[workload](rng)
    rng.shuffle(argvs)
    return argvs
