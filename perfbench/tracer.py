"""Per-module tracing of one `gompertz` invocation, and the span accounting.

`python tracer.py <gompertz arguments>`, with the package importable, wraps
each function in TRACED on every gompertz module that binds its name (so that
`quad_semi_infinite` is caught when `integrals` calls it, not only inside
`reference`), runs the CLI, and writes its spans to stderr as one JSON line
after SPAN_MARK. A span is [function index, start, end, parent span or -1,
raised]. Times are `time.perf_counter()`, which the benchmark reads from the
same system-wide monotonic clock, so spans and invocation times compare.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: The public functions traced, by package module.
TRACED = {
    "cli": ("run",),
    "approximants": ("approx_table", "corollary1_pair", "corollary2_pair"),
    "verify": ("gen_binomial_grid", "int_binomial_grid", "gauss_grid",
               "series_partial_trend", "digamma_series_scan",
               "digamma_series_coeff"),
    "integrals": ("log_moment", "shifted_log_moment", "log_integral_closed"),
    "reference": ("quad_semi_infinite", "plan_quadrature", "digamma",
                  "euler_gamma", "gamma_real", "delta_reference"),
    "exactmath": ("bernoulli", "stirling1_unsigned", "stirling2", "binom_gen",
                  "binom_int", "alt_factorial_sum"),
    "precision": ("bigfloat_str", "to_bigfloat"),
}
MODULES = tuple(TRACED)
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
#: Functions whose distinct argument tuples are counted: the work a perfect
#: per-process cache would still have to do.
DISTINCT = ("reference.quad_semi_infinite", "verify.digamma_series_coeff")

SPAN_MARK = "perfbench-spans: "


class Recorder:
    """Spans of one process, kept in memory until it exits."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}

    def wrap(self, index: int, fn):
        spans, stack = self.spans, self.stack
        seen = self.distinct.get(FUNCTIONS[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[me] = [index, start, end, parent, raised]

        return traced

    def install(self) -> None:
        import gompertz.cli  # noqa: F401  (imports every package module)
        modules = [module for name, module in list(sys.modules.items())
                   if name == "gompertz" or name.startswith("gompertz.")]
        for index, qualified in enumerate(FUNCTIONS):
            module_name, fn_name = qualified.split(".")
            original = getattr(importlib.import_module(f"gompertz.{module_name}"),
                               fn_name)
            traced = self.wrap(index, original)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, traced)

    def dump(self) -> str:
        return SPAN_MARK + json.dumps({
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class PassTotals:
    """Per-function and per-module numbers summed over the traced
    invocations of one pass."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.distinct = dict.fromkeys(DISTINCT, 0)
        self.errors = dict.fromkeys(MODULES, 0)
        self.roots: list[tuple[float, float]] = []
        self.outside: list[str] = []

    def add(self, record: dict, started: float, ended: float) -> None:
        """Add one invocation's spans; `started`/`ended` bound the child
        process as the benchmark saw it."""
        spans = record["spans"]
        children = defaultdict(list)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent].append((start, end))
        for me, (index, start, end, parent, raised) in enumerate(spans):
            name = FUNCTIONS[index]
            module = name.split(".")[0]
            # self time: the duration minus the part its children cover
            self.self_s[name] += end - start - _covered(children[me], start, end)
            self.calls[name] += 1
            # an exception leaves a module when the caller is elsewhere
            if raised and (parent < 0
                           or FUNCTIONS[spans[parent][0]].split(".")[0] != module):
                self.errors[module] += 1
            if parent < 0:
                self.roots.append((start, end))
                if start < started or end > ended:
                    self.outside.append(name)
        for name, count in record["distinct"].items():
            self.distinct[name] += count

    def module_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def attributed_s(self) -> float:
        """Wall time inside at least one traced call."""
        return _covered(self.roots, float("-inf"), float("inf"))


def main(argv: list[str]) -> int:
    recorder = Recorder()
    recorder.install()
    from gompertz import cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(recorder.dump() + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
