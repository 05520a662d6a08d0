"""Smoke self-test of the benchmark harness.

    python3 bench/smoke.py

Runs one cycle of every workload in BENCHMARK.json, untraced and traced,
with one set-up and the answer checks on.  It fails if a report is wrong,
the metrics printed differ from those BENCHMARK.json names (or their
units), or the traced counts do not repeat.  It has no timing bounds.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload["name"], seed=0, seconds=0, trace=trace,
                                 setup_repeats=1, ncycles=1)["result"]
            where = f"{workload['name']} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                wrong = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
                problems.append(f"{where}: metrics missing, extra or in other units: {wrong}")
            if trace and result["metrics"]["trace.count_mismatches"]["value"]:
                problems.append(f"{where}: traced counts differ between passes")
            print(f"{where}: {result['attempted']} reports checked", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
