#!/usr/bin/env python3
"""Mean reconstruction error versus measurement noise, support known.

Writes results/known_support.csv.  Doubling sigma should raise the error
floor by about 6 dB per step; pass --trials to tighten the averages.
"""

import json
import os
import pathlib
import sys

# one BLAS thread, set before numpy loads: threaded BLAS reorders float sums
# and changes the last digits of the results
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from localagg.cli import main

HERE = pathlib.Path(__file__).resolve().parent.parent
OUT = HERE / "results"

CONFIG = {
    "graph": {"kind": "erdos-renyi", "params": {"n": 40, "p_e": 0.3}, "seed": 5},
    "k": 5,
    "samplers": ["proposed-insert"],
    "signal_model": "random-support",
    "sweep": {"variable": "sigma", "values": [0.01, 0.02, 0.04, 0.08]},
    "fixed_m": 15,
    "trials": 200,
    "master_seed": 3,
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "known_support.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "known-support", "--config", str(cfg),
          "--out", str(OUT / "known_support.csv")] + sys.argv[1:])
