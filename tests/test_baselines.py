"""Reference samplers: uniform node sampling and successive aggregations."""

import numpy as np
import pytest

import localagg as la


# ---------------------------------------------------------------------------
# uniform

def test_uniform_full_budget_is_permutation():
    op = la.uniform_node_sampling(8, 8, seed=0)
    assert np.array_equal(np.sort(np.argmax(op.phi, axis=1)), np.arange(8))
    assert np.array_equal(op.phi @ op.phi.T, np.eye(8))


def test_uniform_rows_are_unit_indicators():
    op = la.uniform_node_sampling(12, 5, seed=3)
    assert ((op.phi == 0) | (op.phi == 1)).all()
    assert (op.phi.sum(axis=1) == 1).all()
    sel = np.argmax(op.phi, axis=1)
    assert np.unique(sel).size == 5  # without replacement


def test_uniform_selection_frequencies():
    n, m, trials = 10, 3, 100_000
    counts = np.zeros(n)
    for t in range(trials):
        op = la.uniform_node_sampling(n, m, seed=t)
        counts[np.argmax(op.phi, axis=1)] += 1
    # each node is included with probability m/n per trial
    q = m / n
    sigma = np.sqrt(trials * q * (1 - q))
    assert np.abs(counts - trials * q).max() < 3 * sigma


def test_uniform_rejects_oversampling():
    with pytest.raises(ValueError):
        la.uniform_node_sampling(5, 6, seed=0)
    with pytest.raises(ValueError):
        la.uniform_node_sampling(5, 0, seed=0)
    # a budget that is not an integer is refused by name, not in numpy's TypeError
    for m in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m}$"):
            la.uniform_node_sampling(8, m, seed=0)
    assert la.uniform_node_sampling(8, np.int64(3), seed=0).m == 3
    # so is a node count that is not an integer
    for n in (8.5, True, 8.0):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n}$"):
            la.uniform_node_sampling(n, 1, seed=0)
    assert la.uniform_node_sampling(np.int64(8), 3, seed=0).n == 8


# ---------------------------------------------------------------------------
# successive aggregations

def test_successive_single_row():
    # node 1 has the highest degree on the path 0-1-2
    g = la.Graph(3, [[0, 1], [1, 2]])
    op = la.successive_aggregations(g, 1)
    assert op.phi.tolist() == [[0.0, 1.0, 0.0]]


def test_successive_path_two_rows():
    g = la.Graph(3, [[0, 1], [1, 2]])
    op = la.successive_aggregations(g, 2)
    assert op.phi.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def test_successive_rows_are_adjacency_powers():
    g = la.generate("erdos-renyi", {"n": 15, "p_e": 0.3}, seed=3)
    assert np.argmax(g.degrees) == 4  # the observation node checked below
    a = np.zeros((15, 15))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a += a.T
    op = la.successive_aggregations(g, 5)
    power = np.eye(15)
    for ell in range(5):
        assert np.array_equal(op.phi[ell], power[4])
        power = power @ a


def test_successive_default_node_is_max_degree():
    g = la.Graph(5, [[0, 1], [0, 2], [0, 3], [3, 4]])
    op = la.successive_aggregations(g, 2)
    assert op.phi[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_successive_validates_arguments():
    g = la.generate("cycle", {"n": 5}, seed=0)
    with pytest.raises(ValueError, match="^need m >= 1$"):
        la.successive_aggregations(g, 0)
    # a budget that is not an integer is refused by name, not in numpy's TypeError
    for m in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m}$"):
            la.successive_aggregations(g, m)
    assert la.successive_aggregations(g, np.int64(3)).m == 3


def test_successive_conditioning_degrades_with_depth():
    # extreme singular-value ratio of the restricted system grows with m
    ratios = {}
    for m in (20, 100):
        vals = []
        for t in range(10):
            g = la.generate("erdos-renyi", {"n": 100, "p_e": 0.2}, seed=t)
            basis = la.gft_basis(g)
            support = np.sort(np.random.default_rng(t).choice(100, 10, replace=False))
            op = la.successive_aggregations(g, m)
            s = np.linalg.svd(op.phi @ basis.u[:, support], compute_uv=False)
            vals.append(s[0] / s[-1])
        ratios[m] = float(np.median(vals))
    assert ratios[100] >= ratios[20]
    assert ratios[20] >= 1e10


# ---------------------------------------------------------------------------
# interchangeability

def test_all_baselines_feed_the_same_pipeline():
    g = la.generate("erdos-renyi", {"n": 20, "p_e": 0.3}, seed=7)
    basis = la.gft_basis(g)
    support = np.arange(4)
    spec = la.SparseSignalSpec(support=support, seed=0)
    x = la.synthesize(basis, spec)
    ops = [
        la.uniform_node_sampling(20, 10, seed=1),
        la.successive_aggregations(g, 10),
    ]
    for op in ops:
        res = la.ls_known_support(op, basis, support, la.measure(op, x))
        assert res.x_star.shape == (20,)
