"""Self-test of the benchmark runner.

    python3 perfbench/selftest.py [--seed 1]

1. blind-community's trial loop, run for a few trials per cell, gives the
   recovery counts harness.run_unknown_support gives for the same config and
   master seed, so the benchmark measures what users run.
2. Traced and plain trials of every workload give identical outputs, the
   traced wsn-field trial records spans inside harness.wsn_experiment, and
   localagg.harness is left as it was found.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import env

TRIALS_PER_CELL = 3
PLAIN_VS_TRACED_TRIALS = {"blind-community": 12, "sampling-rgg2000": 2, "wsn-field": 1}


def blind_matches_harness(seed: int) -> tuple[bool, str]:
    from localagg import ExperimentConfig, run_unknown_support
    from tracing import plain_layers
    from workloads import WORKLOADS

    wl = WORKLOADS["blind-community"]
    lib = plain_layers()
    state = wl.setup(lib, seed)
    wl.prepare(state)
    hits = Counter()
    for i in range(TRIALS_PER_CELL * len(wl.cells)):
        hits[wl.cells[i % len(wl.cells)]] += wl.trial(lib, state, i).recovered
    cfg = ExperimentConfig(graph=wl.graph_spec, k=wl.k, samplers=wl.samplers,
                           sweep_values=wl.budgets, trials=TRIALS_PER_CELL,
                           master_seed=seed, signal_model="random-support",
                           solver=wl.solver)
    want = {(r["sampler"], r["sweep_value"]): round(r["recovery_prob"] * TRIALS_PER_CELL)
            for r in run_unknown_support(cfg)}
    return want == dict(hits), f"benchmark {dict(hits)} vs harness {want}"


def traced_matches_plain(name: str, seed: int) -> tuple[bool, str]:
    from contextlib import nullcontext

    from localagg import harness
    from tracing import HARNESS_IMPORTS, Tracer, plain_layers
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    before = {attr: getattr(harness, attr) for attr in HARNESS_IMPORTS}
    lib = plain_layers()
    state = wl.setup(lib, seed)
    wl.prepare(state)
    tracer = Tracer()
    traced = tracer.layers()
    patch = tracer.harness_patched if wl.calls_harness else nullcontext
    same = True
    for i in range(PLAIN_VS_TRACED_TRIALS[name]):
        plain = wl.trial(lib, state, i).digest
        with patch():
            same &= wl.trial(traced, state, i).digest == plain
    restored = all(getattr(harness, a) is fn for a, fn in before.items())
    layers = sorted({s[0] for s in tracer.spans})
    inner = not wl.calls_harness or "recon.bp_l1" in layers
    return (same and restored and inner,
            f"outputs equal: {same}, harness restored: {restored}, layers seen: {layers}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    env.pin_blas_threads()
    env.use_checkout_library()

    checks = [("blind-community loop matches run_unknown_support",
               lambda: blind_matches_harness(args.seed))]
    for name in PLAIN_VS_TRACED_TRIALS:
        checks.append((f"{name}: traced outputs equal plain outputs",
                       lambda name=name: traced_matches_plain(name, args.seed)))
    failed = 0
    for title, check in checks:
        ok, detail = check()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {title}: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
