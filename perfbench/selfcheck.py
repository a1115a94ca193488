"""Negative controls for the benchmark's failure counting.

    python3 perfbench/selfcheck.py

Runs a few real invocations, corrupts their outputs, and shows that each
corruption, a nonzero exit and a timeout count toward failed_frac through
the same `failure()` the benchmark uses. Exits 0 when every control behaves
as expected.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from run import INVOCATION_TIMEOUT_S, Invocation, failure, spawn

CLI = [sys.executable, "-m", "gompertz.cli"]


def invoke(argv: list[str], timeout: float = INVOCATION_TIMEOUT_S) -> Invocation:
    result = spawn(CLI + argv, timeout)
    result.argv = argv
    return result


def bump_digit(text: str, at: int) -> str:
    """`text` with its digit at index `at` changed to another digit."""
    digit = int(text[at])
    return text[:at] + str((digit + 1) % 10) + text[at + 1:]


def corrupt_delta(result: Invocation) -> Invocation:
    # a digit in the middle: the oracle allows an error in the last digit
    line = result.stdout.rstrip("\n")
    at = len("delta = 0.") + (len(line) - len("delta = 0.")) // 2
    return replace(result, stdout=bump_digit(line, at) + "\n")


def corrupt_approx(result: Invocation) -> Invocation:
    # a low-order digit of the last row's a: far below what the printed
    # ratio can show, so only the exact check of the integers sees it
    lines = result.stdout.splitlines()
    row = lines[-1].split()
    row[1] = bump_digit(row[1], len(row[1]) - 3)
    lines[-1] = " ".join(row)
    return replace(result, stdout="\n".join(lines) + "\n")


def main() -> int:
    delta = invoke(["delta", "--digits", "60", "--method", "e1"])
    approx = invoke(["approx", "--corollary", "2", "--r", "2", "--max-m", "40"])
    controls = [
        ("real delta output", delta, False),
        ("delta with one digit changed", corrupt_delta(delta), True),
        ("real approx output", approx, False),
        ("approx with one digit of an integer changed", corrupt_approx(approx), True),
        ("identities with a corrupted closed form (exit 1)",
         invoke(["identities", "--max-m", "3", "--inject-fault"]), True),
        # killed long before its 600+ s; the benchmark's own limit is
        # INVOCATION_TIMEOUT_S
        ("delta --digits 1000 under a 2 s timeout",
         invoke(["delta", "--digits", "1000"], timeout=2.0), True),
    ]
    failed = 0
    ok = True
    for name, result, should_fail in controls:
        why = failure(result)
        failed += why is not None
        verdict = "counted as failed" if why else "passed"
        expected = (why is not None) == should_fail
        ok &= expected
        print(f"{'ok ' if expected else 'BAD'} {name}: {verdict}"
              + (f" ({why})" if why else ""))
    print(f"failed_frac = {failed}/{len(controls)}; expected "
          f"{sum(c[2] for c in controls)}/{len(controls)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
