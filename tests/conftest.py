import os

# one BLAS thread, set before numpy loads, as scripts/run_experiments.py sets it:
# harness._map_in_order then forks its workers, and the tables get the runner's bits
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

import localagg as la

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_graph(seed: int, n_max: int = 24) -> la.Graph:
    """Small random graph of a random kind, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(["erdos-renyi", "random-geometric", "community", "cycle"])
    n = int(rng.integers(4, n_max + 1))
    if kind == "erdos-renyi":
        params = {"n": n, "p_e": float(rng.uniform(0.1, 0.6))}
    elif kind == "random-geometric":
        params = {"n": n, "radius": float(rng.uniform(0.25, 0.7))}
    elif kind == "community":
        params = {"n": n, "n_communities": int(rng.integers(1, max(2, n // 3) + 1)),
                  "p_intra": 0.6, "p_inter": 0.05}
    else:
        params = {"n": n}
    return la.generate(kind, params, seed=int(rng.integers(2 ** 31)))


@pytest.fixture
def path4() -> la.Graph:
    return la.Graph(4, [[0, 1], [1, 2], [2, 3]])


@pytest.fixture
def path10() -> la.Graph:
    return la.Graph(10, np.column_stack([np.arange(9), np.arange(1, 10)]))


# ---------------------------------------------------------------------------
# acceptance reporting: every entry becomes one line in the terminal summary

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
