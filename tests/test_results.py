"""Seeded determinism: the committed result tables regenerate byte for byte.

Each case reruns one committed experiment config through the command line
into a temporary file and compares it with the CSV under results/.  Only the
experiments that finish in about a second are rerun here.
"""

import pathlib

import pytest

from localagg.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("kind, stem", [
    ("dominating-curve", "dominating_curve"),
    ("condition-table", "condition_table"),
    ("known-support", "known_support"),
])
def test_committed_results_regenerate_byte_identical(tmp_path, kind, stem):
    out = tmp_path / f"{stem}.csv"
    main(["experiment", kind, "--config", str(RESULTS / f"{stem}.config.json"),
          "--out", str(out)])
    assert out.read_bytes() == (RESULTS / f"{stem}.csv").read_bytes()
