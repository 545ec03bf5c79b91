"""Measure the baseline of every workload and write bench/baseline.json.

    python3 bench/baseline.py

Each workload gets SETS sets of RUNS untraced runs, the first with seeds
0 to RUNS - 1, the next with the following seeds, and one traced run with
seed 0, each in its own process, one after another, for run_seconds from
BENCHMARK.json. For every end-to-end metric the file keeps, per set, the
values, their median and quartiles, and the spread: the distance between
the quartiles as a share of the median. `drift` is how much larger the last
set's median is than the first's, as a share of the first; the bounds in
BENCHMARK.json are meant to hold both spread and drift. The traced run adds
the per-layer metrics and the result of every search it made, up to
MAX_SEARCHES.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from source import ROOT
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUTPUT = BENCH / "baseline.json"
MAX_SEARCHES = 10
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def searches(workload: str, seed: int) -> list[dict]:
    """Searches of the traced run; class_minimum is the characteristic-square
    minimum of the class, 4 * min_norm, for searches under max_char_square."""
    trace = json.loads((BENCH / "traces" / f"{workload}-seed{seed}.json").read_text())
    spans = trace["spans"]
    out = []
    for index, nodes, minimizers, min_norm in trace["searches"][:MAX_SEARCHES]:
        parent = spans[index][3]
        caller = None if parent is None else spans[parent][0]
        entry = {"caller": caller, "nodes_visited": nodes, "minimizers": minimizers, "min_norm": min_norm}
        if caller == "defects.max_char_square":
            entry["class_minimum"] = str(4 * Fraction(min_norm))
        out.append(entry)
    return out


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "runs": RUNS,
        "sets": SETS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        sets = [
            [run(workload, seed, seconds, 0) for seed in range(k * RUNS, (k + 1) * RUNS)]
            for k in range(SETS)
        ]
        traced = run(workload, 0, seconds, 1)
        results = [r for runs in sets for r in runs]
        end_to_end = {}
        for name, metric in results[0]["metrics"].items():
            summaries = [
                summary([r["metrics"][name]["value"] for r in runs], metric["unit"]) for runs in sets
            ]
            drift = summaries[-1]["median"] / summaries[0]["median"] - 1
            end_to_end[name] = {"drift": drift, "sets": summaries}
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "traced": {
                "seed": 0,
                "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
                "searches": searches(workload, 0),
            },
        }
        print(f"{workload}: done", file=sys.stderr)
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
