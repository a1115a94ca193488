"""Command-line surface: reference constants, approximant tables, partial-sum
trends, the exact identity suite, and the digamma-series harness, with text,
CSV, and JSON output. Output is canonical and byte-identical across runs
(no timestamps; emission order sorted by m / parameters).

Exit codes: 0 success / all-pass, 1 verification failure or cross-check trip,
2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
import tempfile
from fractions import Fraction

from mpmath import mp

from .approximants import approx_table
from .errors import CrossCheckFailure, DomainError, GompertzError
from .exactmath import B1_MINUS_HALF, B1_PLUS_HALF
from .precision import (MAX_DECIMAL_DIGITS, PrecisionContext, bigfloat_str,
                        to_bigfloat)
from .reference import delta_reference
from .verify import (FAIL, IDENTITY_M_MAX_CAP, SKIPPED, HyperGeomParams,
                     calibrated_convention, check_gauss_terminating,
                     digamma_series_scan, gauss_grid, gen_binomial_grid,
                     int_binomial_grid, series_partial_trend)

_METHODS = {"quadrature": "quadrature", "e1": "e_times_E1",
            "cross": "cross_validated"}
_CONVENTIONS = {"minus": B1_MINUS_HALF, "plus": B1_PLUS_HALF}

#: Interpretation choices surfaced in every digamma-series report.
CONJECTURE_NOTES = (
    "coefficient index: the order-m partial sum uses coefficient table "
    "entries (k, m+1)",
    "log-kernel integral taken with measure dx",
)


def _rational(text: str) -> Fraction:
    # exact parse; never goes through binary floating point
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _digits(text: str) -> int:
    value = _integer(text)
    if not 10 <= value <= MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"digits must be in 10..{MAX_DECIMAL_DIGITS}, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gompertz",
        description="Euler-Gompertz constant: approximant sequences, "
                    "identity verification, reference values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=_digits, default=30)
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write report atomically to FILE")

    p = sub.add_parser("delta", help="evaluate the constant")
    p.add_argument("--method", choices=sorted(_METHODS), default="cross")
    common(p)

    p = sub.add_parser("approx", help="approximant ratio/error table")
    p.add_argument("--corollary", type=int, choices=(1, 2), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-m", dest="m_max", type=_positive_int, required=True)
    common(p)

    p = sub.add_parser("theorem", help="partial sums of the double series")
    p.add_argument("--u", type=_rational, default=Fraction(1))
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max-m", dest="m_max", type=_positive_int, default=20)
    p.add_argument("--path", choices=("exact", "quadrature"), default="exact",
                   help="exact: the k >= 1 log-moments from exact "
                        "coefficients on one cross-checked G(1/u) per u, "
                        "for every u > 0; quadrature: one quadrature per "
                        "log-moment, the oracle")
    common(p)

    p = sub.add_parser("identities", help="exact identity suite")
    p.add_argument("--max-m", dest="m_max", type=_positive_int, default=None,
                   help="cap every grid at this m, at most "
                        f"{IDENTITY_M_MAX_CAP} (default: each grid's own)")
    p.add_argument("--inject-fault", action="store_true",
                   help="internal: add a corrupted closed form as a "
                        "negative control")
    common(p)

    p = sub.add_parser("conjecture", help="digamma-series harness")
    p.add_argument("--u", type=_rational, default=Fraction(1))
    p.add_argument("--max-m", dest="m_max", type=_positive_int, default=20)
    p.add_argument("--convention", choices=("minus", "plus", "both"),
                   default="both")
    common(p)

    return parser


def _write_output(text: str, out_path: str) -> None:
    # a directory is refused before mkstemp: for "." the directory below
    # is the working directory's parent, outside the target
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                out_path)
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gompertz-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_lines(header, rows) -> list[str]:
    return [" ".join(header)] + [" ".join(map(str, row)) for row in rows]


def _report(args: argparse.Namespace, payload: dict, header, rows, lines,
            code: int = 0) -> tuple[str, int]:
    """One command's output in args.format, with its exit code. JSON is the
    payload, whose "rows" entry becomes one object per row, without the
    columns the payload already carries at top level (these come last in
    header, so zip stops before them); CSV is the header and rows as they
    are; text is the lines."""
    if args.format == "json":
        import json  # here, so that no other format pays for the import
        if "rows" in payload:
            names = [k for k in header if k not in payload]
            payload = dict(payload,
                           rows=[dict(zip(names, row)) for row in rows])
        return json.dumps(payload, indent=2) + "\n", code
    if args.format == "csv":
        import csv
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue(), code
    return "\n".join(lines) + "\n", code


# --- command implementations ---------------------------------------------------

def _run_delta(args: argparse.Namespace) -> tuple[str, int]:
    method = _METHODS[args.method]
    value = bigfloat_str(delta_reference(PrecisionContext(args.digits), method),
                         args.digits)
    payload = {"command": "delta", "digits": args.digits, "method": method,
               "value": value}
    return _report(args, payload, ["method", "digits", "value"],
                   [[method, args.digits, value]], [f"delta = {value}"])


def _run_approx(args: argparse.Namespace) -> tuple[str, int]:
    ctx = PrecisionContext(args.digits)
    table = approx_table(args.corollary, args.r, args.m_max, ctx)
    sign = table[0].target_sign

    def fmt(x):
        return "undefined" if x is None else bigfloat_str(x, args.digits)

    header = ["m", "a", "b", "ratio", "abs_error", "target_sign"]
    rows = [[row.m, str(row.a), str(row.b), fmt(row.ratio),
             fmt(row.abs_error), sign] for row in table]
    payload = {"command": "approx", "corollary": args.corollary, "r": args.r,
               "digits": args.digits, "target_sign": sign, "rows": rows}
    # Family-1 ratios approach +delta even though the sequences are usually
    # quoted with limit -delta; the table reports |ratio - (+delta)|.
    lines = [f"# family {args.corollary} empirical target sign: {sign} "
             f"(ratios approach {sign}delta)"] + _table_lines(header, rows)
    return _report(args, payload, header, rows, lines)


def _run_theorem(args: argparse.Namespace) -> tuple[str, int]:
    ctx = PrecisionContext(args.digits)
    if args.m_max < args.r:
        raise DomainError(
            f"--max-m must be >= --r, got {args.m_max} < {args.r}")
    trend = series_partial_trend(args.u, args.r, args.m_max, ctx,
                                 path=args.path)
    with mp.workprec(ctx.working_bits):
        target = to_bigfloat(args.u, ctx)
        rows = [[m, bigfloat_str(s, args.digits),
                 bigfloat_str(abs(s - target), args.digits)]
                for m, s in trend]
    header = ["m", "value", "abs_error"]
    payload = {"command": "theorem", "u": str(args.u), "r": args.r,
               "digits": args.digits, "path": args.path, "rows": rows}
    lines = ([f"# partial sums at u = {args.u}, r = {args.r} (limit: u)"]
             + _table_lines(header, rows))
    return _report(args, payload, header, rows, lines)


def _identity_rows(args: argparse.Namespace):
    # without --max-m each grid keeps its own default cap
    cap = {} if args.m_max is None else {"m_max": args.m_max}
    if args.m_max is not None and args.m_max > IDENTITY_M_MAX_CAP:
        raise DomainError(f"--max-m capped at {IDENTITY_M_MAX_CAP}")
    reports = [*gen_binomial_grid(**cap), *int_binomial_grid(**cap),
               *gauss_grid(**cap)]
    if args.inject_fault:
        # negative control: a deliberately wrong closed form must Fail
        p = HyperGeomParams(Fraction(1), Fraction(-1), Fraction(2), Fraction(1))
        bad = check_gauss_terminating(p, Fraction(3, 2))  # true value is 1/2
        reports.append(bad._replace(
            parameters=dict(bad.parameters, fault="injected")))
    return reports


def _run_identities(args: argparse.Namespace) -> tuple[str, int]:
    reports = _identity_rows(args)
    counts: dict[str, dict[str, int]] = {}
    for rep in reports:
        bucket = counts.setdefault(rep.identity_name,
                                   {"points": 0, "pass": 0, "fail": 0,
                                    "skipped": 0})
        bucket["points"] += 1
        bucket[{FAIL: "fail", SKIPPED: "skipped"}.get(rep.verdict, "pass")] += 1
    failures = sum(c["fail"] for c in counts.values())
    if args.format == "text":  # prints the counts and the failing rows only
        reports = [rep for rep in reports if rep.verdict == FAIL]
    rows = [[rep.identity_name,
             " ".join(f"{k}={v}" for k, v in rep.parameters.items()),
             rep.verdict, str(rep.residual)] for rep in reports]
    lines = [f"{name}: {c['points']} points, {c['pass']} pass, "
             f"{c['fail']} fail, {c['skipped']} skipped"
             for name, c in sorted(counts.items())]
    lines += [f"FAIL {r[0]} [{r[1]}] residual={r[3]}"
              for r in rows if r[2] == FAIL]
    lines.append("all passed" if failures == 0 else f"{failures} failure(s)")
    payload = {"command": "identities", "summary": counts,
               "failures": failures, "rows": rows}
    return _report(args, payload, ["identity", "params", "verdict", "residual"],
                   rows, lines, 1 if failures else 0)


def _run_conjecture(args: argparse.Namespace) -> tuple[str, int]:
    ctx = PrecisionContext(args.digits)
    conventions = ([_CONVENTIONS[args.convention]]
                   if args.convention != "both"
                   else [B1_MINUS_HALF, B1_PLUS_HALF])
    points = digamma_series_scan(args.u, range(1, args.m_max + 1), conventions,
                                 ctx)
    header = ["convention", "m", "rhs", "digamma", "residual"]
    rows = [[pt.convention, pt.m, bigfloat_str(pt.rhs, args.digits),
             bigfloat_str(pt.psi, args.digits),
             bigfloat_str(pt.residual, args.digits)] for pt in points]
    calibrated = (calibrated_convention(pt for pt in points
                                        if pt.m == args.m_max)
                  if len(conventions) == 2 else None)
    payload = {"command": "conjecture", "u": str(args.u),
               "digits": args.digits, "max_m": args.m_max,
               "notes": list(CONJECTURE_NOTES), "conventions": conventions,
               "calibrated_convention": calibrated, "rows": rows}
    lines = [f"# {note}" for note in CONJECTURE_NOTES]
    lines += [f"# u = {args.u}"] + _table_lines(header, rows)
    if calibrated is not None:
        lines.append(f"# calibrated convention (smaller residual at "
                     f"m={args.m_max}): {calibrated}")
    return _report(args, payload, header, rows, lines)


_RUNNERS = {"delta": _run_delta, "approx": _run_approx,
            "theorem": _run_theorem, "identities": _run_identities,
            "conjecture": _run_conjecture}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        text, code = _RUNNERS[args.command](args)
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CrossCheckFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except GompertzError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.out_path is None:
        sys.stdout.write(text)
        return code
    try:
        _write_output(text, args.out_path)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out_path}: "
                         f"{exc.strerror or exc}\n")
        return 2
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
