#!/usr/bin/env python3
# Median condition number of the support-restricted system: one random
# aggregation per sampled node versus successive powers of one aggregation.
# The successive variant blows up because repeated application concentrates
# energy on the dominant eigenvector.

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
    "graph": {"kind": "erdos-renyi", "params": {"n": 100, "p_e": 0.2}, "seed": 0},
    "k": 10,
    "m_values": [10, 20],
    "trials": 100,
    "master_seed": 21,
    "methods": ["proposed-insert", "successive"],
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "condition_table.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "condition-table", "--config", str(cfg),
          "--out", str(OUT / "condition_table.csv")] + sys.argv[1:])
