"""The benchmark's workloads still run against the library.

perfbench/ is loaded from its files, as they are, and two workloads run
their set-up and first trial with the plain library layers.  A library change
that breaks a call the benchmark makes, such as a dropped keyword, fails here
instead of only as a failed benchmark run.  sampling-rgg2000 is left out: its
set-up alone takes about 2 s.
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
