"""Benchmark of the gompertz command-line tool.

    python3 perfbench/run.py --workload constant --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. One closed-loop client runs the workload's
invocations one after another, each in a fresh interpreter
(`python -m gompertz.cli ...` with PYTHONPATH=src), because every CLI user
pays for cold caches and imports. A pass is one run over the list; passes
repeat until another would end after `--seconds`. A run of
perfbench/calibrate.py precedes every invocation, to follow the machine's
speed. Every output is checked by perfbench/oracles.py after the run,
outside the timed region.

--trace 0 prints the end-to-end metrics, each the median over the run's
passes, with times divided by the run's speed factor. --trace 1 alternates
untraced passes with traced ones (through perfbench/tracer.py) and prints
the per-layer metrics. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. perfbench/README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath

import oracles
import tracer
from workloads import WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: An invocation that runs longer counts as failed and is killed. The
#: slowest invocation of any workload takes 4 to 8 s on the reference
#: machine.
#: `delta --digits 1000` (cross), which takes more than 600 s at the seed
#: commit, would be killed here too; it joins `constant` once it finishes.
INVOCATION_TIMEOUT_S = 60.0
#: No invocation runs past this point of a run, so a run ends within 180 s
#: even when invocations hang.
RUN_LIMIT_S = 150.0
#: Fresh interpreters timed for setup_s before each pass, so that the
#: samples spread over the run; one untimed start first writes the bytecode
#: caches.
SETUP_SAMPLES_PER_PASS = 4
#: Wall time of perfbench/calibrate.py on the reference machine (2 vCPUs,
#: Intel Xeon at 2.0 GHz, Python 3.11.7, mpmath 1.3.0 on its pure-Python
#: backend) while nothing else slows it down. See `speed_factor`.
REFERENCE_CALIBRATION_S = 0.13


@dataclass
class Invocation:
    argv: list[str]
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def spawn(command: list[str], timeout: float) -> Invocation:
    """Run one child to completion; its CPU time and peak RSS come from its
    own rusage (wait4), not from the cumulative RUSAGE_CHILDREN."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:  # never signal a pid that may have been reaped and reused
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    stderr: list[bytes] = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        # wait for the exit without reaping, so kill() cannot hit another pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Invocation(argv=command, start=start, end=end,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB
                      exit_code=proc.returncode, timed_out=state["killed"],
                      stdout=stdout.decode(errors="replace"),
                      stderr=b"".join(stderr).decode(errors="replace"))


def calibrate() -> float:
    """Wall time of one run of perfbench/calibrate.py."""
    result = spawn([sys.executable, str(HERE / "calibrate.py")],
                   INVOCATION_TIMEOUT_S)
    if result.exit_code != 0 or result.timed_out:
        raise RuntimeError(f"calibration failed: {result.stderr}")
    return result.wall_s


def run_pass(argvs: list[list[str]], prefix: list[str], run_deadline: float,
             calibration: list[float]) -> list[Invocation]:
    """One pass over the invocations, each preceded by a calibration run."""
    results = []
    for argv in argvs:
        calibration.append(calibrate())
        left = run_deadline - time.perf_counter()
        result = spawn(prefix + argv, max(1.0, min(INVOCATION_TIMEOUT_S, left)))
        result.argv = argv
        results.append(result)
    return results


def failure(result: Invocation) -> str | None:
    """Why an invocation failed, or None."""
    if result.timed_out:
        return "timed out"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.stderr.strip()[-200:]}"
    return oracles.check(result.argv, result.stdout)


def pass_wall_s(results: list[Invocation]) -> float:
    """The pass's time: its invocations' wall times, without the
    calibration runs between them."""
    return sum(r.wall_s for r in results)


def speed_factor(calibration: list[float]) -> float:
    """How much slower than the reference machine this run went.

    On a shared machine the same code switches, for seconds at a time,
    between its normal speed and about 1.5 times slower, and interpreter
    start, `import gompertz` and every workload slow down together. Timed
    metrics are therefore divided by this factor, the run's mean
    calibration time over the reference one. The mean, unlike the median,
    follows the share of slow samples smoothly. The calibration does not
    touch the package, so a change to the package cannot move it.
    """
    return statistics.fmean(calibration) / REFERENCE_CALIBRATION_S


def measure_setup(count: int, calibration: list[float]) -> list[float]:
    """Wall times of `count` fresh interpreters running `import gompertz`,
    each after a calibration run."""
    samples = []
    for _ in range(count):
        calibration.append(calibrate())
        result = spawn([sys.executable, "-c", "import gompertz"],
                       INVOCATION_TIMEOUT_S)
        if result.exit_code != 0 or result.timed_out:
            raise RuntimeError(f"import gompertz failed: {result.stderr}")
        samples.append(result.wall_s)
    return samples


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repo
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "load_1min": os.getloadavg()[0],
            "git_commit": commit,
            "seed": seed}


def summary(name: str, samples: list[float], unit: str) -> dict:
    """Median of the samples, printed with the sample count and quartiles."""
    value = statistics.median(samples)
    quartiles = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [value, value, value])
    print(f"{name} = {value:.6g} {unit}  (median of {len(samples)}; "
          f"quartiles {quartiles[0]:.6g}..{quartiles[2]:.6g})")
    return {"value": value, "unit": unit}


def end_to_end(passes: list[list[Invocation]], setup: list[float],
               calibration: list[float]) -> dict:
    factor = speed_factor(calibration)
    print(f"speed_factor = {factor:.4f}  (mean calibration "
          f"{statistics.fmean(calibration):.4f} s of {len(calibration)} / "
          f"reference {REFERENCE_CALIBRATION_S} s); timed metrics below are "
          "divided by it, raw medians in brackets")
    print("calibration_s = " + json.dumps([round(x, 4) for x in calibration]))

    # each invocation's median over the passes, then the largest of those:
    # steadier than the median of per-pass maxima when two invocations of a
    # pass take about as long
    by_invocation = zip(*([r.wall_s for r in p] for p in passes))
    slowest = [max(statistics.median(walls) for walls in by_invocation)]

    def timed(name: str, samples: list[float]) -> dict:
        print(f"[raw {name} = {statistics.median(samples):.6g} s; samples "
              f"{json.dumps([round(x, 4) for x in samples])}]")
        return summary(name, [x / factor for x in samples], "s")

    return {
        "run_s": timed("run_s", [pass_wall_s(p) for p in passes]),
        "slowest_cmd_s": timed("slowest_cmd_s", slowest),
        "cpu_s": timed("cpu_s", [sum(r.cpu_s for r in p) for p in passes]),
        "peak_rss_mb": summary(
            "peak_rss_mb", [max(r.rss_mb for r in p) for p in passes], "MB"),
        "setup_s": timed("setup_s", setup),
    }


def spans_of(result: Invocation) -> dict | None:
    for line in reversed(result.stderr.splitlines()):
        if line.startswith(tracer.SPAN_MARK):
            return json.loads(line[len(tracer.SPAN_MARK):])
    return None


def account(results: list[Invocation]) -> tuple[tracer.PassTotals, float, list[str]]:
    """Per-layer totals of one traced pass, its unattributed time, and any
    breach of the accounting identity."""
    totals = tracer.PassTotals()
    for result in results:
        record = spans_of(result)
        if record is not None:
            totals.add(record, result.start, result.end)
    wall = pass_wall_s(results)
    unattributed = wall - totals.attributed_s()
    problems = [f"span of {name} outside its process" for name in totals.outside]
    attributed = sum(totals.module_self_s().values())
    if abs(attributed + unattributed - wall) > 1e-6:
        problems.append(f"module self times {attributed:.6f} s + unattributed "
                        f"{unattributed:.6f} s != traced pass {wall:.6f} s")
    return totals, unattributed, problems


def per_layer(plain: list[list[Invocation]],
              traced: list[list[Invocation]]) -> tuple[dict, list[str]]:
    """The per-layer metrics, and every breach of the accounting identity."""
    accounted = [account(p) for p in traced]
    problems = [breach for _, _, breaches in accounted for breach in breaches]
    samples: dict[str, tuple[list[float], str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        samples.setdefault(name, ([], unit))[0].append(value)

    for totals, unattributed, _ in accounted:
        for name in tracer.FUNCTIONS:
            add(f"{name}.calls", totals.calls[name], "count")
            add(f"{name}.self_s", totals.self_s[name], "s")
        for name in tracer.DISTINCT:
            add(f"{name}.distinct", totals.distinct[name], "count")
        calls = totals.calls["reference.quad_semi_infinite"]
        distinct = totals.distinct["reference.quad_semi_infinite"]
        add("reference.quad_semi_infinite.repeat_ratio",
            1 - distinct / calls if calls else 0.0, "ratio")
        module_self = totals.module_self_s()
        for module in tracer.MODULES:
            add(f"{module}.self_s", module_self[module], "s")
            add(f"{module}.errors", totals.errors[module], "count")
        add("unattributed_s", unattributed, "s")
    metrics = {name: summary(name, values, unit)
               for name, (values, unit) in samples.items()}
    overhead = (statistics.median(pass_wall_s(p) for p in traced)
                / statistics.median(pass_wall_s(p) for p in plain))
    print(f"trace_overhead = {overhead:.4f}  (median traced pass / median "
          f"untraced pass, {len(traced)} and {len(plain)} passes)")
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gompertz" / "__init__.py").is_file():
        print(f"error: no gompertz package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args.seed)}))
    run_start = time.perf_counter()
    run_deadline = run_start + RUN_LIMIT_S
    argvs = invocations(args.workload, args.seed)
    print("invocations: " + " | ".join(" ".join(argv) for argv in argvs))
    setup: list[float] = []
    if not args.trace:
        measure_setup(1, [])

    plain_cmd = [sys.executable, "-m", "gompertz.cli"]
    kinds = {"plain": plain_cmd}
    if args.trace:
        kinds["traced"] = [sys.executable, str(Path(__file__).with_name("tracer.py"))]
    passes = {kind: [] for kind in kinds}
    calibration: list[float] = []
    measure_end = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        if not args.trace:
            setup.extend(measure_setup(SETUP_SAMPLES_PER_PASS, calibration))
        for kind, prefix in kinds.items():
            passes[kind].append(run_pass(argvs, prefix, run_deadline,
                                         calibration))
        now = time.perf_counter()
        # stop when another round like this one would overrun --seconds
        if 2 * now - round_start > measure_end or now > run_deadline:
            break

    everything = [r for done in passes.values() for p in done for r in p]
    failures = [(r.argv, why) for r in everything
                if (why := failure(r)) is not None]
    for argv, why in failures:
        print(f"FAILED gompertz {' '.join(argv)}: {why}")
    problems: list[str] = []
    if args.trace:
        metrics, problems = per_layer(passes["plain"], passes["traced"])
    else:
        metrics = end_to_end(passes["plain"], setup, calibration)
    for problem in problems:
        print(f"ACCOUNTING: {problem}")
    print(f"failed_frac = {len(failures) / len(everything):.4g}  "
          f"({len(failures)} of {len(everything)} invocations)")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": len(everything), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
