"""localagg benchmark runner.

    python3 perfbench/run.py --workload blind-community --seconds 30 [--seed 1] [--trace 0]

Runs one workload as a closed loop: one process, one trial after another,
BLAS pinned to one thread.  With ``--trace 0`` it sets up several times and
reports the median set-up time, then runs trials for ``--seconds`` and prints
the end-to-end metrics.  ``--seconds`` has no default: the run length is
``run_seconds`` in BENCHMARK.json, passed in by whoever runs the benchmark.
With ``--trace 1`` it sets up once with every layer call timed, runs the
workload's fixed number of trials plain and then traced, and prints the
per-layer metrics and the tracing overhead.  Every output is checked; the
last line of stdout is one JSON object, and the exit status is 1 when any
check failed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import env

DEFAULT_SEED = 1
# Kept out of tuning: confirm a claimed gain on this seed as well (choosing-metrics 6.3).
CONFIRM_SEED = 20180417
WORKLOAD_NAMES = ("blind-community", "sampling-rgg2000", "wsn-field")
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
MIN_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; confirm claims on "
                         f"{CONFIRM_SEED} too)")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured trial time of an untraced run (run_seconds in "
                         "BENCHMARK.json); a traced run makes a fixed trial count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


class Loop:
    """Runs trials, counting attempts and failures; keeps the first failure's report."""

    def __init__(self, workload, lib, state):
        self.workload, self.lib, self.state = workload, lib, state
        self.attempted = self.failed = self.solves = self.recovered = 0
        self.spans: list[tuple[float, float, bool]] = []   # start, end, passed
        self.digests: list[str | None] = []
        self.first_failure: str | None = None

    def run_one(self, i: int) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = self.workload.trial(self.lib, self.state, i)
        except Exception:  # a failed trial is counted and reported, the run goes on
            self.spans.append((t0, time.perf_counter(), False))
            self.failed += 1
            self.digests.append(None)
            if self.first_failure is None:
                self.first_failure = f"trial {i}:\n{traceback.format_exc()}"
            return
        self.spans.append((t0, time.perf_counter(), True))
        self.solves += res.solves
        self.recovered += res.recovered
        self.digests.append(res.digest)


def tail(ms: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least MIN_BEYOND samples above it."""
    for q in TAIL_PERCENTILES:
        if len(ms) * (1 - q / 100) >= MIN_BEYOND:
            return q, statistics.quantiles(ms, n=1000, method="inclusive")[round(q * 10) - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, args) -> tuple[Loop, dict, list[str]]:
    from gauge import Gauge
    from tracing import plain_layers

    lib = plain_layers()
    gauge = Gauge(workload.probe_sizes)
    setups = []
    for _ in range(workload.setup_repeats):
        state = None    # one set-up's inputs alive at a time, so peak RSS counts one
        gauge.probe()
        t0 = time.perf_counter()
        state = workload.setup(lib, args.seed)
        t1 = time.perf_counter()
        gauge.probe()
        setups.append(gauge.reference(t0, t1))
    workload.prepare(state)
    loop = Loop(workload, lib, state)
    limit = workload.trials_available(state)
    wall = 0.0
    while loop.attempted < limit and wall < args.seconds:
        loop.run_one(loop.attempted)
        start, end, _ = loop.spans[-1]
        wall += end - start
        gauge.maybe_probe()
    gauge.probe()
    ref = [(gauge.reference(start, end), ok) for start, end, ok in loop.spans]
    elapsed = sum(r for r, _ in ref)
    done = loop.attempted - loop.failed
    ms = [1e3 * r for r, ok in ref if ok]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (done / elapsed, "1/s"),
        # 0 only when every trial failed, and then the run reports correct: false
        "trial_ms_p50": (statistics.median(ms) if ms else 0.0, "ms"),
        "recovered_frac": (loop.recovered / loop.solves if loop.solves else 0.0, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"setup_s is the median of {len(setups)} set-ups",
             f"trials_per_s: {done} trials in {elapsed:.2f} reference s, {wall:.2f} wall s",
             f"recovered_frac: {loop.recovered} of {loop.solves} recoveries under -40 dB"]
    # printed, not in the JSON line: the tail needs more trials than wsn-field
    # makes in a run, and failures already show in "failed"
    t = tail(ms)
    if t:
        beyond = int(len(ms) * (1 - t[0] / 100))
        notes.append(f"trial_ms_tail {t[1]:.6g} ms: p{t[0]:g} of {len(ms)} trials, "
                     f"{beyond} beyond it")
    else:
        notes.append(f"trial_ms_tail omitted: {len(ms)} trials leave no percentile "
                     f"with {MIN_BEYOND} beyond it")
    notes.append(f"failed_frac {loop.failed / loop.attempted:.6g} frac: "
                 f"{loop.failed} of {loop.attempted} trials")
    return loop, metrics, notes


def run_traced(workload, args) -> tuple[Loop, dict, list[str]]:
    from contextlib import nullcontext

    from tracing import Tracer, layer_metrics, plain_layers

    tracer = Tracer()
    traced = tracer.layers()
    state = workload.setup(traced, args.seed)
    workload.prepare(state)
    count = min(workload.trials_available(state), workload.traced_trials)
    # Each trial runs plain and traced back to back, alternating which goes
    # first, so drift and warm caches favour neither side; outputs must agree.
    plain = Loop(workload, plain_layers(), state)
    loop = Loop(workload, traced, state)
    patch = tracer.harness_patched if workload.calls_harness else nullcontext
    plain_s = traced_s = 0.0
    for i in range(count):
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_pass:
                with patch(), tracer.span("trial"):
                    loop.run_one(i)
                traced_s += time.perf_counter() - t0
            else:
                plain.run_one(i)
                plain_s += time.perf_counter() - t0

    mismatched = [i for i, (a, b) in enumerate(zip(plain.digests, loop.digests))
                  if a is None or a != b]
    if mismatched:
        loop.first_failure = (loop.first_failure or plain.first_failure
                              or f"traced outputs differ from plain ones at trials {mismatched}")
    loop.failed = len(mismatched)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.trials"] = (count, "count")
    metrics["trace.untraced_trials_per_s"] = (count / plain_s, "1/s")
    metrics["trace.traced_trials_per_s"] = (count / traced_s, "1/s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    notes = [f"{count} trials plain in {plain_s:.2f} s, traced in {traced_s:.2f} s"]
    return loop, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_blas_threads()
    env.use_checkout_library()
    # modules that import numpy or localagg load only after the two calls above
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    loop, metrics, notes = (run_traced if args.trace else run_untraced)(workload, args)
    correct = loop.failed == 0 and loop.attempted > 0
    if loop.first_failure:
        print(f"FAILED {loop.first_failure}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env.describe(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:>14.6g} {unit}")
    for note in notes:
        print("# " + note)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
