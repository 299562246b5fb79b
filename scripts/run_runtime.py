#!/usr/bin/env python3
# Wall-clock cost of plan construction plus one operator draw per sampler.
# Pass --repetitions N for steadier timings.

import json
import pathlib
import sys

from localagg.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

CONFIG = {
    "graph": {"kind": "random-geometric", "params": {"n": 300, "radius": 0.12},
              "seed": 2},
    "k": 30,
    "samplers": ["proposed-insert", "uniform", "weighted", "minpinv"],
    "sweep": {"variable": "m", "values": [60, 120]},
    "master_seed": 9,
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "runtime.config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2))
    main(["experiment", "runtime", "--config", str(cfg),
          "--out", str(OUT / "runtime.csv")] + sys.argv[1:])
