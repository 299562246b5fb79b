"""Seeded determinism: the committed result tables regenerate byte for byte.

Each case reruns one committed experiment config through the command line
into a temporary file and compares it with a committed CSV.  Only the
experiments that finish in a few seconds are rerun here.  The runner script
that regenerates all of them is checked against the committed configs.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from localagg.cli import main
from localagg.harness import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
FIXTURES = ROOT / "tests" / "fixtures"
RUNNER = ROOT / "scripts" / "run_experiments.py"


def _child_env(**extra):
    """This process's environment with the source tree on the import path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_runner_covers_every_committed_config():
    # the stem -> kind table is read from the source: running the script would
    # regenerate every table and pin BLAS threads in this process
    tree = ast.parse(RUNNER.read_text())
    kinds = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", None) == "KINDS")
    stems = {p.name.removesuffix(".config.json") for p in RESULTS.glob("*.config.json")}
    assert set(kinds) == stems
    assert set(kinds.values()) <= set(EXPERIMENTS)


def test_runner_refuses_an_unknown_stem():
    done = subprocess.run([sys.executable, str(RUNNER), "known_support", "nope", "--trials", "1"],
                          env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.strip() == ("unknown result stem(s) nope; expected: known_support, "
                                   "unknown_support, condition_table, dominating_curve, "
                                   "wsn_tradeoff")


def test_runner_refuses_overrides_without_stems(tmp_path):
    # a copy of the script and the configs: a run that got past the refusal
    # would rewrite the tables next to the script, not the committed ones
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / RUNNER.name).write_text(RUNNER.read_text())
    (tmp_path / "results").mkdir()
    for config in RESULTS.glob("*.config.json"):
        (tmp_path / "results" / config.name).write_text(config.read_text())
    done = subprocess.run([sys.executable, str(tmp_path / "scripts" / RUNNER.name),
                           "--trials", "2"], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.strip() == ("--trials 2 would rewrite every table under results/; "
                                   "name the stems to run")
    assert not list((tmp_path / "results").glob("*.csv"))


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


def test_unknown_support_short_run_matches_fixture(tmp_path):
    # the committed blind sweep at 20 trials per point; the fixture's rows were
    # written by the two-loop harness that preceded the shared sweep loop
    out = tmp_path / "unknown_support.csv"
    main(["experiment", "unknown-support",
          "--config", str(RESULTS / "unknown_support.config.json"),
          "--trials", "20", "--out", str(out)])
    assert out.read_bytes() == (FIXTURES / "unknown_support_trials20.csv").read_bytes()


def test_wsn_short_run_matches_fixture(tmp_path):
    # the committed sensor-field run at 2 trials; the fixture's rows were last
    # written when bp_l1 began to take its pseudoinverse from a Cholesky factor
    # of psi psi^T, which moved only mean_mse_db.  A child process pins BLAS to one
    # thread before numpy loads: threaded BLAS changes the last digits of
    # mean_mse_db.
    out = tmp_path / "wsn_tradeoff.csv"
    env = _child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "localagg.cli", "experiment", "wsn",
                    "--config", str(RESULTS / "wsn_tradeoff.config.json"),
                    "--trials", "2", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    assert out.read_bytes() == (FIXTURES / "wsn_tradeoff_trials2.csv").read_bytes()
