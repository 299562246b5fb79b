#!/usr/bin/env python3
# Greedy dominating-set size of the p-hop graph as p grows.  Larger hop
# radii merge neighborhoods, so the curve is nonincreasing.

import json
import os
import pathlib
import sys

# one BLAS thread, set before numpy loads: threaded BLAS reorders float sums
# and changes the last digits of the results
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from localagg.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

CONFIG = {
    "graph": {"kind": "random-geometric", "params": {"n": 100, "radius": 0.15},
              "seed": 4},
    "p_max": 6,
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "dominating_curve.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "dominating-curve", "--config", str(cfg),
          "--out", str(OUT / "dominating_curve.csv")] + sys.argv[1:])
