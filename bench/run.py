"""Run one benchmark workload against the library in this checkout.

    python3 bench/run.py --workload seifert-main --seed 0 --seconds 10 --trace 0

The run is a closed loop: one process, one thread, one job at a time. It sets
the library up SETUP_REPEATS times (a fresh import of the package, its command
line and their third-party dependencies, then the workload's inputs drawn
from the seed and parsed), then runs the job list again and again for
--seconds, at least once, starting a pass only if a pass of average length
still ends within them. Every output is checked; a job that
raises or returns a wrong value counts as failed.

With --trace 0 the run reports the end-to-end metrics: the median set-up,
the mean time of one pass over the job list, the largest of the jobs' mean
times, and the peak resident memory. A host probe (see hostspeed.py) runs
throughout, and every time reported is put on its reference scale, so that
the host's slow spells do not read as the library's. Pass and job times are
means, not medians: those spells last seconds to minutes, longer than a
pass, so they are not outliers a median could reject, and the mean over the
whole run averages over the most time. The measured times are printed
before the result line. With --trace 1 it sets up once
with the tracer installed, alternates untraced and traced passes for
--seconds, at least one of each, and reports the per-layer metrics of that
set-up plus one traced pass, with the difference of the mean pass times
as the tracing overhead; the spans go to bench/traces/. The last line of
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostProbe
from source import MissingLibraryError, forget_library, import_library
from tracer import Tracer, metric_names, wrapper_cost_s
from workloads import WORKLOADS

SETUP_REPEATS = 15
# fewer probe samples than this in a job (under 50 ms) give a noisy median
MIN_JOB_PROBES = 5
TRACES = Path(__file__).resolve().parent / "traces"


def setup(workload: str, seed: int, tracer: Tracer | None = None):
    """Import the library and build the job list; returns (seconds, jobs).

    The modules of an earlier set-up are collected before the clock starts,
    so repeated set-ups neither slow the next one nor raise peak memory.
    A tracer given is installed while the job list is built.
    """
    forget_library()
    gc.collect()
    start = perf_counter()
    lib = import_library()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        jobs = WORKLOADS[workload](lib, seed)
    return perf_counter() - start, jobs


def run_pass(
    jobs, tracer: Tracer | None = None, pass_index: int = 0, probe: HostProbe | None = None
) -> dict:
    """Run every job once; checks run outside the timed calls. With a probe,
    `job_probes` holds the slice of its samples taken during each job."""
    seconds = []
    windows = []
    failed = 0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = [pass_index, index]
        first = len(probe.samples) if probe is not None else 0
        start = perf_counter()
        try:
            output = job.call()
        except Exception:  # a failing job is counted and the run goes on
            seconds.append(perf_counter() - start)
            windows.append((first, len(probe.samples) if probe is not None else 0))
            failed += 1
            print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        seconds.append(perf_counter() - start)
        windows.append((first, len(probe.samples) if probe is not None else 0))
        try:
            ok = bool(job.check(output))
        except Exception:
            ok = False
        if not ok:
            failed += 1
            print(f"job {job.name} returned a wrong value: {output!r}", file=sys.stderr)
    return {
        "wall_s": sum(seconds),
        "job_s": seconds,
        "job_probes": windows,
        "attempted": len(jobs),
        "failed": failed,
    }


def fits(start: float, seconds: float, pass_s: list[float]) -> bool:
    """Whether one more pass, as long as the mean one so far, ends within
    `seconds` of `start`."""
    return perf_counter() - start + statistics.fmean(pass_s) <= seconds


def measure(jobs, seconds: float, probe: HostProbe) -> tuple[dict, list[dict]]:
    """Passes for `seconds` with the installed probe; each job's time is put
    on the reference scale by the probe samples taken during that job, or,
    for a job too short for MIN_JOB_PROBES of them, by those of the run."""
    passes = []
    first = len(probe.samples)
    start = perf_counter()
    while not passes or fits(start, seconds, [p["wall_s"] for p in passes]):
        passes.append(run_pass(jobs, probe=probe))
    run_scale = probe.scale(first)
    scaled = [
        [
            t * (probe.scale(a, b) if b - a >= MIN_JOB_PROBES else run_scale)
            for t, (a, b) in zip(p["job_s"], p["job_probes"])
        ]
        for p in passes
    ]
    job_means = [statistics.fmean(times) for times in zip(*scaled)]
    metrics = {
        "wall_s": (statistics.fmean(sum(times) for times in scaled), "s"),
        "slowest_job_s": (max(job_means), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Set up traced, then alternate untraced and traced passes; layer metrics
    are those of the set-up plus one traced pass."""
    setup_tracer = Tracer()
    setup_tracer.job = "setup"
    _, jobs = setup(workload, seed, setup_tracer)
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or fits(
        start, seconds, [u["wall_s"] + t["wall_s"] for u, t in zip(untraced, traced)]
    ):
        untraced.append(run_pass(jobs))
        with tracer.installed():
            traced.append(run_pass(jobs, tracer, len(traced)))
    values = tracer.layer_metrics(len(traced), setup=setup_tracer)
    values["tracing.traced_wall_s"] = statistics.fmean(p["wall_s"] for p in traced)
    values["tracing.untraced_wall_s"] = statistics.fmean(p["wall_s"] for p in untraced)
    values["tracing.overhead_s"] = values["tracing.traced_wall_s"] - values["tracing.untraced_wall_s"]
    values["tracing.spans"] = len(tracer.spans) // len(traced)
    values["tracing.wrapper_s"] = values["tracing.spans"] * wrapper_cost_s()
    setup_tracer.write(TRACES / f"{workload}-seed{seed}-setup.json", workload=workload, seed=seed)
    tracer.write(TRACES / f"{workload}-seed{seed}.json", workload=workload, seed=seed)
    return {name: (values[name], unit) for name, unit in metric_names()}, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            metrics, passes = trace(args.workload, args.seed, args.seconds)
        else:
            probe = HostProbe()
            with probe.installed():
                setup_s = []
                for _ in range(SETUP_REPEATS):
                    seconds, jobs = setup(args.workload, args.seed)
                    setup_s.append(seconds)
                setup_scale = probe.scale()
                metrics, passes = measure(jobs, args.seconds, probe)
            metrics = {"setup_s": (statistics.median(setup_s) * setup_scale, "s"), **metrics}
    except MissingLibraryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"set-up, measured: {statistics.median(setup_s):.6g} s")
        print(f"host probe median: {statistics.median(probe.samples) * 1e6:.4g} us")
    print("pass wall_s, measured: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
