"""Reference samplers: uniform, weighted, pseudoinverse-greedy, successive."""

import numpy as np
import pytest

import localagg as la
from localagg.spectral import OrthoBasis


def _hadamard_basis(n: int) -> OrthoBasis:
    # orthonormal basis with uniform entry magnitude 1/sqrt(n)
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return OrthoBasis(u=h / np.sqrt(n))


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


# ---------------------------------------------------------------------------
# weighted

def test_weighted_identity_basis_localizes_draws():
    eye = OrthoBasis(u=np.eye(6))
    op = la.weighted_node_sampling(eye, [3], 20, seed=1)
    assert set(np.flatnonzero(op.phi.sum(axis=0))) == {3}


def test_weighted_uniform_magnitude_basis_scales_rows():
    basis = _hadamard_basis(8)
    m = 4
    op = la.weighted_node_sampling(basis, [0, 1], m, seed=2)
    nz = op.phi[op.phi != 0]
    assert np.allclose(np.abs(nz), np.sqrt(8 / m))


def test_weighted_gram_isotropic_on_support():
    g = la.generate("erdos-renyi", {"n": 30, "p_e": 0.25}, seed=6)
    basis = la.gft_basis(g)
    support = np.array([0, 3, 7, 11, 19])
    m = 12
    diag = np.zeros(g.n)
    draws = 20_000
    for t in range(draws):
        op = la.weighted_node_sampling(basis, support, m, seed=t)
        sel = np.argmax(np.abs(op.phi), axis=1)
        w = op.phi[np.arange(m), sel]
        np.add.at(diag, sel, w ** 2)
    u_s = basis.u[:, support]
    gram = u_s.T @ (diag[:, None] / draws * u_s)
    assert np.abs(gram - np.eye(5)).max() < 0.05


def test_weighted_rejects_zero_energy():
    dead = OrthoBasis(u=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        la.weighted_node_sampling(dead, [0], 3, seed=0)


# ---------------------------------------------------------------------------
# pseudoinverse-greedy selection

def test_minpinv_identity_basis_recovers_support():
    eye = OrthoBasis(u=np.eye(7))
    op = la.minpinv_greedy(eye, [1, 4, 6], 3)
    assert sorted(np.argmax(op.phi, axis=1).tolist()) == [1, 4, 6]


def test_minpinv_reaches_full_column_rank():
    g = la.generate("random-geometric", {"n": 40, "radius": 0.35}, seed=4)
    basis = la.gft_basis(g)
    support = np.arange(6)
    for m in (6, 9):
        op = la.minpinv_greedy(basis, support, m)
        assert la.numerical_rank(op.phi @ basis.u[:, support]) == 6


def test_minpinv_deterministic():
    g = la.generate("erdos-renyi", {"n": 25, "p_e": 0.3}, seed=9)
    basis = la.gft_basis(g)
    a = la.minpinv_greedy(basis, np.arange(5), 10)
    b = la.minpinv_greedy(basis, np.arange(5), 10)
    assert np.array_equal(a.phi, b.phi)


def test_minpinv_beats_random_selection_known_support():
    # deterministic optimized selection should track or beat random node picks
    g = la.generate("random-geometric", {"n": 100, "radius": 0.2}, seed=31)
    basis = la.gft_basis(g)
    k, m, trials = 20, 40, 20
    support = np.arange(k)
    op_min = la.minpinv_greedy(basis, support, m)
    err_min = 0.0
    err_unif = 0.0
    for t in range(trials):
        spec = la.SparseSignalSpec(support=support, model="bandlimited", seed=t)
        x = la.synthesize(basis, spec)
        noise = np.random.default_rng(1000 + t).standard_normal(g.n) * 1e-3
        res = la.ls_known_support(op_min, basis, support, op_min.phi @ (x + noise))
        err_min += float(np.mean((res.x_star - x) ** 2))
        op_u = la.uniform_node_sampling(g.n, m, seed=2000 + t)
        res = la.ls_known_support(op_u, basis, support, op_u.phi @ (x + noise))
        err_unif += float(np.mean((res.x_star - x) ** 2))
    assert err_min <= err_unif


def test_minpinv_rejects_oversampling():
    eye = OrthoBasis(u=np.eye(5))
    with pytest.raises(ValueError):
        la.minpinv_greedy(eye, [0, 1], 6)


# ---------------------------------------------------------------------------
# successive aggregations

def test_successive_single_row():
    g = la.Graph(3, [[0, 1], [1, 2]])
    op = la.successive_aggregations(g, 1, 1)
    assert op.phi.tolist() == [[0.0, 1.0, 0.0]]


def test_successive_path_two_rows():
    g = la.Graph(3, [[0, 1], [1, 2]])
    op = la.successive_aggregations(g, 1, 2)
    assert op.phi.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def test_successive_rows_are_adjacency_powers():
    g = la.generate("erdos-renyi", {"n": 15, "p_e": 0.3}, seed=5)
    a = np.zeros((15, 15))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a += a.T
    op = la.successive_aggregations(g, 4, 5)
    power = np.eye(15)
    for ell in range(5):
        assert np.array_equal(op.phi[ell], power[4])
        power = power @ a
    assert la.successive_aggregations(g, None, 1).phi[0, np.argmax(g.degrees)] == 1.0


def test_successive_default_node_is_max_degree():
    g = la.Graph(5, [[0, 1], [0, 2], [0, 3], [3, 4]])
    op = la.successive_aggregations(g, None, 2)
    assert op.phi[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_successive_validates_arguments():
    g = la.generate("cycle", {"n": 5}, seed=0)
    with pytest.raises(ValueError):
        la.successive_aggregations(g, 9, 2)
    with pytest.raises(ValueError):
        la.successive_aggregations(g, 0, 0)


def test_successive_conditioning_degrades_with_depth():
    # extreme singular-value ratio of the restricted system grows with m
    ratios = {}
    for m in (20, 100):
        vals = []
        for t in range(10):
            g = la.generate("erdos-renyi", {"n": 100, "p_e": 0.2}, seed=t)
            basis = la.gft_basis(g)
            support = np.sort(np.random.default_rng(t).choice(100, 10, replace=False))
            op = la.successive_aggregations(g, None, m)
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
    spec = la.SparseSignalSpec(support=support, model="bandlimited", seed=0)
    x = la.synthesize(basis, spec)
    ops = [
        la.uniform_node_sampling(20, 10, seed=1),
        la.weighted_node_sampling(basis, support, 10, seed=1),
        la.minpinv_greedy(basis, support, 10),
        la.successive_aggregations(g, None, 10),
    ]
    for op in ops:
        res = la.ls_known_support(op, basis, support, la.measure(op, x))
        assert res.x_star.shape == (20,)
