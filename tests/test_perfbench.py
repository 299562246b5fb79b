"""The benchmark's workloads still run against the library.

perfbench/ is loaded from its files, as they are, and two workloads run
their set-up and first trial with the plain library layers.  A library change
that breaks a call the benchmark makes, such as a dropped keyword, fails here
instead of only as a failed benchmark run.  sampling-rgg2000 is left out: its
set-up alone takes about 2 s.  The self-test's checks that blind-community's
loop matches the harness, and that each of the two workloads gives the same
outputs traced as plain, run too, from perfbench/ on the import path.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their class's module there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("tracing"), _load("workloads")


@pytest.mark.parametrize("name", ["blind-community", "wsn-field"])
def test_workload_set_up_and_first_trial_run(perfbench, name):
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    lib = tracing.plain_layers()
    state = workload.setup(lib, 1)
    workload.prepare(state)
    result = workload.trial(lib, state, 0)
    assert isinstance(result, workloads.TrialResult)
    assert result.solves >= 1


def test_benchmark_blind_loop_matches_the_harness(monkeypatch):
    # the first check of perfbench/selftest.py: blind-community's trial loop
    # gives the recovery counts run_unknown_support gives for the config the
    # self-test builds, so a change to its ExperimentConfig keywords, or a drift
    # between the two loops, fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    ok, detail = selftest.blind_matches_harness(1)
    assert ok, detail


@pytest.mark.parametrize("name", ["blind-community", "wsn-field"])
def test_traced_trials_match_plain_ones(monkeypatch, name):
    # the tracer rebinds the harness names in tracing.HARNESS_IMPORTS, so a
    # harness edit that drops or renames one of them fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    ok, detail = selftest.traced_matches_plain(name, 1)
    assert ok, detail
