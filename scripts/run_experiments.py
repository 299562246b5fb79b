#!/usr/bin/env python3
"""Regenerate the result tables under results/ from their committed configs.

    python3 scripts/run_experiments.py                     # all five tables
    python3 scripts/run_experiments.py wsn_tradeoff        # one table
    python3 scripts/run_experiments.py known_support --trials 20

Each stem runs ``localagg experiment <kind> --config results/<stem>.config.json
--out results/<stem>.csv``; options after the stems (--trials, --seed) pass
through to every run, and are refused unless stems are named, so that a
reduced run never rewrites every committed table.
"""

import itertools
import os
import pathlib
import sys

# one BLAS thread, set before numpy loads: threaded BLAS reorders float sums
# and changes the last digits of the results
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from localagg.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

# result stem -> experiment kind
KINDS = {
    "known_support": "known-support",        # noise sweep, known support
    "unknown_support": "unknown-support",    # community phase transition
    "condition_table": "condition-table",    # conditioning vs successive powers
    "dominating_curve": "dominating-curve",  # dominating-set size vs hop radius
    "wsn_tradeoff": "wsn",                   # sensor-field power/error tradeoff
}

if __name__ == "__main__":
    stems = list(itertools.takewhile(lambda a: not a.startswith("-"), sys.argv[1:]))
    overrides = sys.argv[1 + len(stems):]
    unknown = [s for s in stems if s not in KINDS]
    if unknown:
        sys.exit(f"unknown result stem(s) {', '.join(unknown)}; expected: {', '.join(KINDS)}")
    if overrides and not stems:
        sys.exit(f"{' '.join(overrides)} would rewrite every table under results/; "
                 f"name the stems to run")
    for stem in stems or KINDS:
        main(["experiment", KINDS[stem], "--config", str(RESULTS / f"{stem}.config.json"),
              "--out", str(RESULTS / f"{stem}.csv")] + overrides)
