#!/usr/bin/env python3
"""Perfect-recovery probability versus budget on a community graph.

Aggregation sampling transitions well before uniform point sampling here
because the community structure localizes the basis atoms.  500 trials per
point takes under a minute; the default below is lighter.
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
    "graph": {"kind": "community",
              "params": {"n": 100, "n_communities": 5,
                         "p_intra": 0.1, "p_inter": 0.001},
              "seed": 7},
    "k": 10,
    "samplers": ["proposed-insert", "uniform"],
    "signal_model": "random-support",
    "sweep": {"variable": "m", "values": [50, 60, 70, 80, 90]},
    "trials": 200,
    "master_seed": 1,
    "solver": {"tol_abs": 1e-7, "tol_rel": 1e-7, "max_iter": 4000},
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "unknown_support.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "unknown-support", "--config", str(cfg),
          "--out", str(OUT / "unknown_support.csv")] + sys.argv[1:])
