"""Command-line surface: reference constants, approximant tables, partial-sum
trends, the exact identity suite, and the digamma-series harness, with text,
CSV, and JSON output. Output is canonical and byte-identical across runs
(no timestamps; emission order sorted by m / parameters).

Exit codes: 0 success / all-pass, 1 verification failure or cross-check trip,
2 usage error. Exit 1 also covers any other GompertzError, such as a value
past the 1000-digit cap (`theorem --u 1e-400 --max-m 3`): stdout is then
empty, and stderr holds "error: " and the reason.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain

from mpmath import mp

from .approximants import DEFAULT_M_MAX_CAP, approx_table
from .errors import CrossCheckFailure, DomainError, GompertzError
from .precision import (MAX_DECIMAL_DIGITS, PrecisionContext, bigfloat_str,
                        to_bigfloat)
from .reference import delta_reference
from .verify import (BERNOULLI_CONVENTIONS, EXACT_PASS, FAIL,
                     IDENTITY_M_MAX_CAP, SKIPPED, calibrated_convention,
                     digamma_series_scan, gauss_grid, gen_binomial_grid,
                     int_binomial_grid, point_residual, point_verdict,
                     series_partial_trend)

_METHODS = {"quadrature": "quadrature", "e1": "e_times_E1",
            "cross": "cross_validated"}

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
    common(p)

    return parser


def _write_output(write, out_path: str) -> int:
    """write(fh) into a temporary file beside out_path, moved onto it once
    complete; returns write's exit code."""
    # a directory is refused before mkstemp: for "." the directory below
    # is the working directory's parent, outside the target
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                out_path)
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gompertz-")
    try:
        with os.fdopen(fd, "w") as fh:
            code = write(fh)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return code


def _table_lines(header, rows) -> list[str]:
    return [" ".join(header)] + [" ".join(map(str, row)) for row in rows]


def _report(args: argparse.Namespace, payload: dict, header, rows, lines):
    """The function that writes one command's output in args.format to a
    stream, row by row, so that rows may be a one-pass iterable, and
    returns exit code 0. JSON is the bytes of json.dumps(payload,
    indent=2), whose last entry "rows" stands for the rows, one object
    each, without the columns the payload already carries at top level
    (these come last in header); CSV is the header and rows as they are;
    text is the lines."""
    def write(out) -> int:
        if args.format == "text":
            out.writelines(line + "\n" for line in lines)
        elif args.format == "csv":
            import csv  # here, so that no other format pays for the import
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        elif "rows" not in payload:
            import json
            out.write(json.dumps(payload, indent=2) + "\n")
        else:
            import json
            encode = json.JSONEncoder().encode  # json.dumps, less its checks
            names = [k for k in header if k not in payload]
            obj = "    {\n%s\n    }" % ",\n".join(f"      {encode(k)}: %s"
                                                   for k in names)
            head = json.dumps(dict(payload, rows=[]), indent=2)
            out.write(head[:-len("[]\n}")])
            sep = "[\n"
            for row in rows:
                out.write(sep + obj % tuple(map(encode, row[:len(names)])))
                sep = ",\n"
            out.write("[]\n}\n" if sep == "[\n" else "\n  ]\n}\n")
        return 0
    return write


# --- command implementations ---------------------------------------------------

def _run_delta(args: argparse.Namespace):
    method = _METHODS[args.method]
    value = bigfloat_str(delta_reference(PrecisionContext(args.digits), method),
                         args.digits)
    payload = {"command": "delta", "digits": args.digits, "method": method,
               "value": value}
    return _report(args, payload, ["method", "digits", "value"],
                   [[method, args.digits, value]], [f"delta = {value}"])


def _run_approx(args: argparse.Namespace):
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


def _run_theorem(args: argparse.Namespace):
    ctx = PrecisionContext(args.digits)
    if args.m_max < args.r:
        raise DomainError(
            f"--max-m must be >= --r, got {args.m_max} < {args.r}")
    if args.m_max > DEFAULT_M_MAX_CAP:
        raise DomainError(f"--max-m capped at {DEFAULT_M_MAX_CAP}")
    trend = series_partial_trend(args.u, args.r, args.m_max, ctx)
    with mp.workprec(ctx.working_bits):
        target = to_bigfloat(args.u, ctx)
        rows = [[m, bigfloat_str(s, args.digits),
                 bigfloat_str(abs(s - target), args.digits)]
                for m, s in trend]
    header = ["m", "value", "abs_error"]
    # the one route the rows take; the key keeps the JSON's schema
    payload = {"command": "theorem", "u": str(args.u), "r": args.r,
               "digits": args.digits, "path": "exact", "rows": rows}
    lines = ([f"# partial sums at u = {args.u}, r = {args.r} (limit: u)"]
             + _table_lines(header, rows))
    return _report(args, payload, header, rows, lines)


_TALLY = {EXACT_PASS: "pass", FAIL: "fail", SKIPPED: "skipped"}


def _identity_rows(points, counts: dict, keep=tuple(_TALLY)):
    """The row [identity, params, verdict, residual] of each point whose
    verdict is in keep, as every point is counted into counts by identity.
    A pass has residual 0: only a fail or a skip reduces its sides."""
    name = None
    for point in points:
        verdict = point_verdict(point)
        if point[0] != name:  # each grid's points come together
            name = point[0]
            bucket = counts.setdefault(name, {"points": 0, "pass": 0,
                                              "fail": 0, "skipped": 0})
        bucket["points"] += 1
        bucket[_TALLY[verdict]] += 1
        if verdict in keep:
            yield [name, " ".join(map("=".join, point[1].items())), verdict,
                   "0" if verdict == EXACT_PASS
                   else str(point_residual(point))]


def _run_identities(args: argparse.Namespace):
    if args.m_max is not None and args.m_max > IDENTITY_M_MAX_CAP:
        raise DomainError(f"--max-m capped at {IDENTITY_M_MAX_CAP}")
    # without --max-m each grid keeps its own default cap
    cap = {} if args.m_max is None else {"m_max": args.m_max}
    # negative control: the Gauss grid's F(1, -1; 2; 1) = 1/2, its one
    # b = -1 point at m <= 3, against a deliberately wrong closed form 3/2
    faults = [(name, dict(params, fault="injected"), lhs, (3, 2))
              for name, params, lhs, _ in gauss_grid(3)
              if params["b"] == "-1"] if args.inject_fault else []

    def walk(counts, *keep):
        return _identity_rows(chain(gen_binomial_grid(**cap),
                                    int_binomial_grid(**cap),
                                    gauss_grid(**cap), faults), counts, *keep)

    def write(out) -> int:
        counts: dict[str, dict[str, int]] = {}
        payload = lines = None
        if args.format == "csv":  # counted as the rows are written
            rows = walk(counts)
        else:  # the counts come first: a counting walk, keeping the fails
            rows = fails = list(walk(counts, (FAIL,)))
            lines = [f"{name}: {c['points']} points, {c['pass']} pass, "
                     f"{c['fail']} fail, {c['skipped']} skipped"
                     for name, c in sorted(counts.items())]
            lines += [f"FAIL {r[0]} [{r[1]}] residual={r[3]}" for r in fails]
            lines.append(f"{len(fails)} failure(s)" if fails else "all passed")
            if args.format == "json":
                rows = walk({})
            payload = {"command": "identities", "summary": counts,
                       "failures": len(fails), "rows": rows}
        _report(args, payload, ["identity", "params", "verdict", "residual"],
                rows, lines)(out)
        return 1 if any(c["fail"] for c in counts.values()) else 0
    return write


def _run_conjecture(args: argparse.Namespace):
    if args.m_max > DEFAULT_M_MAX_CAP:
        raise DomainError(f"--max-m capped at {DEFAULT_M_MAX_CAP}")
    ctx = PrecisionContext(args.digits)
    points = digamma_series_scan(args.u, range(1, args.m_max + 1), ctx)
    header = ["convention", "m", "rhs", "digamma", "residual"]
    rows = [[pt.convention, pt.m, bigfloat_str(pt.rhs, args.digits),
             bigfloat_str(pt.psi, args.digits),
             bigfloat_str(pt.residual, args.digits)] for pt in points]
    calibrated = calibrated_convention(pt for pt in points
                                       if pt.m == args.m_max)
    payload = {"command": "conjecture", "u": str(args.u),
               "digits": args.digits, "max_m": args.m_max,
               "notes": list(CONJECTURE_NOTES),
               "conventions": list(BERNOULLI_CONVENTIONS),
               "calibrated_convention": calibrated, "rows": rows}
    lines = [f"# {note}" for note in CONJECTURE_NOTES]
    lines += [f"# u = {args.u}"] + _table_lines(header, rows)
    lines.append(f"# calibrated convention (smaller residual at "
                 f"m={args.m_max}): {calibrated}")
    return _report(args, payload, header, rows, lines)


#: Each runner checks its arguments and returns its output's writer.
_RUNNERS = {"delta": _run_delta, "approx": _run_approx,
            "theorem": _run_theorem, "identities": _run_identities,
            "conjecture": _run_conjecture}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        write = _RUNNERS[args.command](args)
        try:
            if args.out_path is not None:
                return _write_output(write, args.out_path)
            code = write(sys.stdout)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
            return code
        except OSError as exc:
            if args.out_path is None:  # so that exit flushes nothing into it
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.stderr.write(f"error: cannot write "
                             f"{args.out_path or sys.stdout.name}: "
                             f"{exc.strerror or exc}\n")
            return 2
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CrossCheckFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except GompertzError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
