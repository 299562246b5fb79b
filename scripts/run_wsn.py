#!/usr/bin/env python3
"""Sensor-field gathering cost versus reconstruction error.

Compares in-network aggregation against cluster-head gathering for several
head counts.  Power is split into intra-network forwarding and base-station
uplink; the uplink term is identical across methods at equal m, so the gap
lives entirely in the forwarding term and the recovery transition.
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
    "n": 250,
    "k": 50,
    "radius": 0.2,
    "bs_distance_factor": 5.0,
    "cluster_head_counts": [5, 15, 30],
    "m_values": [60, 90, 120, 150, 180],
    "trials": 10,
    "master_seed": 0,
    "solver": {"tol_abs": 1e-7, "tol_rel": 1e-7, "max_iter": 6000},
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "wsn_tradeoff.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "wsn", "--config", str(cfg),
          "--out", str(OUT / "wsn_tradeoff.csv")] + sys.argv[1:])
