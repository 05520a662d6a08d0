"""lcscalc benchmark: time to a certified report on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lcscalc is imported from ``src/``.
One process, one client, a closed loop: each report starts when the last
one has been checked.  A report is ``lcscalc.cli.main`` on generated input
files with stdout captured, or a library call where the CLI cannot reach.
Every report is checked against an answer the benchmark derives itself.

With ``--trace 0`` the loop runs whole cycles of the workload for about
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it runs
a fixed list of reports once untraced and twice traced, checks that the
exact counts repeat, and prints the per-layer metrics.  The last stdout
line is the result object; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from fractions import Fraction

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MODULES = ("cli", "cohomology", "lcs", "specfile", "scalar", "exterior", "hodge",
           "cecomplex", "linalg")
SETUP_REPEATS = 3
POOL_CYCLES = 24  # distinct generated cycles; longer runs reuse them in order
TRACE_CYCLES = {"dense_cohomology": 1, "lcs_chain": 2, "symbolic_lcs": 1, "paper_scale": 6}
TIME_LIMIT_S = 120  # stop starting cycles after this, so a run ends within 180 s


class SetupError(Exception):
    pass


def import_lcscalc() -> types.SimpleNamespace:
    """Fresh import of lcscalc from the checkout, so set-up time includes it."""
    for name in [m for m in sys.modules if m == "lcscalc" or m.startswith("lcscalc.")]:
        del sys.modules[name]
    try:
        lib = types.SimpleNamespace(
            **{m: importlib.import_module(f"lcscalc.{m}") for m in MODULES}
        )
    except ImportError as exc:
        raise SetupError(f"cannot import lcscalc from {SRC}: {exc}") from exc
    if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"lcscalc was imported from {lib.cli.__file__}, not {SRC}")
    return lib


def setup(name: str, seed: int, workdir: str, repeats: int, ncycles: int):
    """Import plus input generation, repeated; the last result and the median time."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        lib = import_lcscalc()
        work = workloads.build(name, seed, workdir, ncycles)
        times.append(time.perf_counter() - t0)
    return lib, work, statistics.median(times)


def run_job(lib, job) -> tuple[int, str]:
    if job.call is not None:
        return 0, job.call(lib)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(job.argv)
    return code, out.getvalue()


def gauge_s() -> float:
    """Time of a fixed loop of Fraction arithmetic (a few ms): the machine's speed."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 400):
        table[i % 7, i % 3] = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i + 2)
    return time.perf_counter() - t0


class Loop:
    """Closed-loop client: runs jobs one at a time and checks every answer."""

    def __init__(self, lib):
        self.lib = lib
        self.gauges = [gauge_s()]
        self.times: list[float] = []
        self.ref_times: list[float] = []  # report time over the gauge around it
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, job):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code, out = run_job(self.lib, job)
        except Exception:  # a crash is a failed report; keep measuring
            dt = time.perf_counter() - t0
            self._fail(job, traceback.format_exc())
        else:
            dt = time.perf_counter() - t0
            try:
                problems = job.check(code, out)
            except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(job, "; ".join(problems))
        # a shared machine's speed can drift within seconds: bracket every report
        self.gauges.append(gauge_s())
        self.times.append(dt)
        self.ref_times.append(dt / ((self.gauges[-2] + self.gauges[-1]) / 2))
        self.by_label.setdefault(job.label, []).append(dt)

    def _fail(self, job, detail: str):
        self.failed += 1
        print(f"FAILED {job.label} {job.argv or ''}: {detail}", file=sys.stderr)


def timed_run(lib, work, seconds: float) -> tuple[Loop, dict]:
    """Whole cycles until about `seconds` have passed (at least one cycle)."""
    loop = Loop(lib)
    start = time.perf_counter()
    done = 0
    while True:
        for job in work.cycles[done % len(work.cycles)]:
            loop.run(job)
        done += 1
        elapsed = time.perf_counter() - start
        # stop at the cycle boundary nearest to the deadline
        if elapsed + elapsed / done / 2 >= seconds or elapsed >= TIME_LIMIT_S:
            break
    metrics = {
        "report_ref.p50": (statistics.median(loop.ref_times), "ref"),
        "reports_per_ref": (len(loop.ref_times) / sum(loop.ref_times), "1/ref"),
    }
    seconds_view = {
        "report_s.p50": statistics.median(loop.times),
        "reports_per_s": len(loop.times) / sum(loop.times),
        "gauge_s.p50": statistics.median(loop.gauges),
    }
    return loop, {"cycles": done, "wall_s": elapsed, "seconds": seconds_view,
                  "metrics": metrics}


def traced_run(lib, work) -> tuple[Loop, dict]:
    """One untraced and two traced passes over the same fixed reports."""
    jobs = [j for cycle in work.cycles[: TRACE_CYCLES[work.name]] for j in cycle]
    loop = Loop(lib)

    def one_pass():
        t0 = time.perf_counter()
        for job in jobs:
            loop.run(job)
        return time.perf_counter() - t0

    untraced = one_pass()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = one_pass()
        counts, self_times = tr.counts(len(jobs)), tr.self_times()
        tr.reset()
        one_pass()
        repeat = tr.counts(len(jobs))
    finally:
        tr.uninstall()
    mismatched = sorted(k for k in counts if counts[k] != repeat[k])
    if mismatched:
        print(f"counts differ between traced passes: {mismatched}", file=sys.stderr)
    metrics = {k: (v, "count/report" if k.endswith("_per_report") else "count")
               for k, v in counts.items()}
    metrics.update({k: (v, "s") for k, v in self_times.items()})
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return loop, {"reports_per_pass": len(jobs), "metrics": metrics}


def metadata() -> dict:
    sources = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS, ncycles: int = POOL_CYCLES) -> dict:
    """One benchmark run; returns the result object and its metadata."""
    if not os.path.isdir(os.path.join(SRC, "lcscalc")):
        raise SetupError(f"no lcscalc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        lib, work, setup_s = setup(name, seed, workdir, setup_repeats, ncycles)
        if trace:
            loop, info = traced_run(lib, work)
        else:
            loop, info = timed_run(lib, work, seconds)
            info["metrics"]["setup_s"] = (setup_s, "s")
            info["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    meta = dict(metadata(), workload=name, seed=seed, trace=int(trace),
                reports=loop.attempted, setup_s=setup_s,
                median_s_by_report={k: statistics.median(v) for k, v in loop.by_label.items()},
                **{k: v for k, v in info.items() if k != "metrics"})
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in info["metrics"].items()},
    }
    return {"meta": meta, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
