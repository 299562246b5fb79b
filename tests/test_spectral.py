"""Laplacians, transform bases, coherence, SVD kernels, matrix files."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

import localagg as la
from localagg import spectral
from localagg.spectral import BASIS_TAGS, CoherenceReport, build_basis

from conftest import random_graph


# ---------------------------------------------------------------------------
# laplacian

def test_laplacian_edgeless_zero():
    g = la.Graph(4, np.zeros((0, 2)))
    assert np.array_equal(la.laplacian(g), np.zeros((4, 4)))
    assert np.array_equal(la.laplacian(g, normalized=True), np.zeros((4, 4)))


def test_laplacian_complete3():
    g = la.generate("complete", {"n": 3}, seed=0)
    expect = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.array_equal(la.laplacian(g), expect)


def test_laplacian_weighted_row_sums_vanish():
    g = la.generate("random-geometric", {"n": 60, "radius": 0.3, "weighted": True},
                    seed=21)
    lap = la.laplacian(g)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12
    assert np.array_equal(lap, lap.T)


def test_laplacian_normalized_isolated_zero_row():
    g = la.Graph(3, [[0, 1]])
    ln = la.laplacian(g, normalized=True)
    assert np.abs(ln[2]).max() == 0.0 and np.abs(ln[:, 2]).max() == 0.0
    assert ln[0, 0] == 1.0


# ---------------------------------------------------------------------------
# gft basis

def test_gft_edgeless_is_identity():
    g = la.Graph(5, np.zeros((0, 2)))
    basis = la.gft_basis(g)
    assert np.allclose(basis.u, np.eye(5), atol=1e-12)
    assert np.allclose(basis.eigenvalues, 0.0)


def test_gft_complete_combinatorial_spectrum():
    n = 7
    g = la.generate("complete", {"n": n}, seed=0)
    basis = la.gft_basis(g, normalized=False)
    expect = np.concatenate([[0.0], np.full(n - 1, float(n))])
    assert np.allclose(basis.eigenvalues, expect, atol=1e-10)


def test_gft_cycle8_analytic_spectrum():
    g = la.generate("cycle", {"n": 8}, seed=0)
    basis = la.gft_basis(g, normalized=False)
    expect = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
    assert np.abs(basis.eigenvalues - expect).max() <= 1e-8


def test_gft_eigenvalues_nondecreasing_and_labels():
    g = random_graph(42)
    b = la.gft_basis(g, normalized=True)
    assert np.all(np.diff(b.eigenvalues) >= -1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25)
def test_gft_orthonormal_and_eigenpairs(seed):
    g = random_graph(seed)
    for normalized in (False, True):
        basis = la.gft_basis(g, normalized=normalized)
        n = g.n
        assert np.abs(basis.u.T @ basis.u - np.eye(n)).max() <= 1e-10
        lap = la.laplacian(g, normalized=normalized)
        resid = np.abs(lap @ basis.u - basis.u * basis.eigenvalues).max()
        scale = max(np.abs(lap).max(), 1e-12)
        assert resid <= 1e-8 * scale


def test_gft_reproducible_and_sign_fixed():
    g = la.generate("grid2d", {"rows": 5, "cols": 5}, seed=0)
    a = la.gft_basis(g)
    b = la.gft_basis(g)
    assert np.array_equal(a.u, b.u)
    for c in range(a.u.shape[1]):
        col = a.u[:, c]
        first = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        assert first > 0


def test_gft_degenerate_cluster_basis_is_orthonormal():
    # complete graphs have an (n-1)-fold repeated eigenvalue
    g = la.generate("complete", {"n": 9}, seed=0)
    b = la.gft_basis(g, normalized=False)
    assert np.abs(b.u.T @ b.u - np.eye(9)).max() <= 1e-10


# ---------------------------------------------------------------------------
# equivalence with the eigh-based basis
#
# The _legacy_* functions are the Laplacian and GFT basis as they were before
# the in-place set-up: D - W from two dense arrays, numpy's eigh, the cluster
# loop over every row of a strided column slice and a per-column sign fix on
# copies.  The lean set-up must give the same bytes.

def _legacy_laplacian(graph, normalized=False):
    n = graph.n
    w = np.zeros((n, n))
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    w[i, j] = graph.weights
    w[j, i] = graph.weights
    d = w.sum(axis=1)
    lap = np.diag(d) - w
    if normalized:
        dinv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        lap = dinv[:, None] * lap * dinv[None, :]
    return (lap + lap.T) / 2.0


def _legacy_sign_fix(u):
    out = u.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        big = np.abs(col) > 1e-8 * max(np.abs(col).max(), 1e-300)
        idx = int(np.argmax(big))
        if col[idx] < 0:
            out[:, c] = -col
    return out


def _legacy_canonical_subspace_basis(v):
    n, c = v.shape
    picked = []
    for i in range(n):
        cand = v @ v[i, :]
        for q in picked:
            cand = cand - (q @ cand) * q
        for q in picked:
            cand = cand - (q @ cand) * q
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            picked.append(cand / norm)
            if len(picked) == c:
                break
    if len(picked) < c:
        q = np.column_stack(picked) if picked else np.zeros((n, 0))
        resid = v - q @ (q.T @ v)
        uu, ss, _ = np.linalg.svd(resid, full_matrices=False)
        for t in range(c - len(picked)):
            picked.append(uu[:, t])
    return np.column_stack(picked)


def _legacy_gft_basis(graph, normalized=True):
    lap = _legacy_laplacian(graph, normalized=normalized)
    evals, evecs = np.linalg.eigh(lap)
    scale = max(1.0, float(np.abs(evals).max())) if evals.size else 1.0
    tol = 1e-9 * scale
    start = 0
    u = evecs.copy()
    for stop in range(1, len(evals) + 1):
        if stop == len(evals) or evals[stop] - evals[stop - 1] > tol:
            if stop - start > 1:
                u[:, start:stop] = _legacy_canonical_subspace_basis(u[:, start:stop])
            start = stop
    return _legacy_sign_fix(u), evals


def _repeated_clusters(evals):
    tol = 1e-9 * max(1.0, float(np.abs(evals).max()))
    return int(np.count_nonzero(np.diff(evals) <= tol))


PIN_GRAPHS = [
    ("complete", {"n": 12}, 0),
    ("cycle", {"n": 16}, 0),
    ("grid2d", {"rows": 5, "cols": 6}, 0),
    ("community", {"n": 60, "n_communities": 4, "p_intra": 0.3, "p_inter": 0.01}, 3),
    ("erdos-renyi", {"n": 50, "p_e": 0.1}, 2),
    # sparse enough for isolated nodes and small components: repeated eigenvalues
    ("random-geometric", {"n": 150, "radius": 0.07}, 4),
    ("random-geometric", {"n": 120, "radius": 0.08, "weighted": True}, 5),
]


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("kind, params, seed", PIN_GRAPHS)
def test_laplacian_and_gft_match_legacy_bytes(kind, params, seed, normalized):
    g = la.generate(kind, params, seed)
    lap = la.laplacian(g, normalized=normalized)
    assert lap.tobytes() == _legacy_laplacian(g, normalized).tobytes()
    b = la.gft_basis(g, normalized=normalized)
    u, evals = _legacy_gft_basis(g, normalized)
    assert b.eigenvalues.tobytes() == evals.tobytes()
    assert b.u.flags.c_contiguous
    assert b.u.tobytes() == u.tobytes()
    if kind in ("complete", "cycle", "random-geometric"):
        assert _repeated_clusters(evals) > 0


def test_laplacian_keeps_zero_signs_of_legacy():
    # an isolated node zeroes its normalized row through a 0 scale factor
    g = la.Graph(4, [[0, 1], [1, 2]], weights=[0.5, 2.0])
    for normalized in (True, False):
        lap = la.laplacian(g, normalized=normalized)
        old = _legacy_laplacian(g, normalized)
        assert lap.tobytes() == old.tobytes()
        assert np.array_equal(np.signbit(lap), np.signbit(old))


def test_sign_fix_matches_legacy_on_edge_columns():
    # a zero column, an entry exactly at the 1e-8 threshold ahead of the first
    # significant one, a column whose largest magnitude is negative, and ties
    u = np.array([[0.0, -1e-8, 5e-9, -0.5, 0.0],
                  [0.0, 0.5, -1.0, 0.5, -2e-8],
                  [0.0, 1.0, 0.25, -0.5, 2.0],
                  [0.0, -0.5, -0.25, 0.5, -1.0]])
    u = np.hstack([u, np.random.default_rng(1).standard_normal((4, 3))])
    fixed = u.copy()
    spectral._sign_fix(fixed)
    assert fixed.tobytes() == _legacy_sign_fix(u).tobytes()


def test_gft_of_empty_graph_is_empty():
    b = la.gft_basis(la.Graph(0, np.zeros((0, 2))))
    assert b.u.shape == (0, 0) and b.eigenvalues.shape == (0,)


def test_cluster_row_skip_keeps_the_picks():
    # rows of norm <= 0.5e-6 are skipped; those above are visited, and the
    # 1.1e-6 row is the first one to pass the 1e-6 pick threshold
    n, c = 10, 3
    rng = np.random.default_rng(11)
    small = rng.standard_normal((4, c))
    small *= (np.array([0.4e-6, 0.6e-6, 0.9e-6, 1.1e-6]) / np.linalg.norm(small, axis=1))[:, None]
    gram = np.eye(c) - small.T @ small
    evals, evecs = np.linalg.eigh(gram)
    w, _ = np.linalg.qr(rng.standard_normal((n - 4, c)))
    v = np.vstack([small, w @ (evecs * np.sqrt(evals)) @ evecs.T])
    assert np.abs(v.T @ v - np.eye(c)).max() <= 1e-14
    wide = np.zeros((n, c + 5))
    wide[:, 2:2 + c] = v
    for cluster in (v, wide[:, 2:2 + c]):
        new = spectral._canonical_subspace_basis(cluster)
        old = _legacy_canonical_subspace_basis(cluster)
        assert new.tobytes() == old.tobytes()
        first = v @ v[3]
        assert np.allclose(new[:, 0], first / np.linalg.norm(first), atol=1e-9)


# ---------------------------------------------------------------------------
# dct basis

def test_dct_trivial_and_dc_atom():
    assert la.dct_basis(1).u.tolist() == [[1.0]]
    u = la.dct_basis(9).u
    assert np.allclose(u[:, 0], 1.0 / 3.0)


def test_dct_orthonormal_64():
    u = la.dct_basis(64).u
    assert np.abs(u.T @ u - np.eye(64)).max() <= 1e-12


def test_dct_matches_scipy_transform():
    n = 16
    u = la.dct_basis(n).u
    t = scipy.fft.dct(np.eye(n), axis=0, norm="ortho")
    assert np.allclose(u, t.T, atol=1e-12)


def test_dct_rejects_empty():
    with pytest.raises(ValueError):
        la.dct_basis(0)


def test_build_basis_tags():
    # a path with a chord: on a regular graph both Laplacians share eigenvectors,
    # and on a bare path the combinatorial ones are the DCT atoms
    g = la.Graph(8, np.vstack([np.column_stack([np.arange(7), np.arange(1, 8)]), [[0, 2]]]))
    expected = {"gft-normalized": la.gft_basis(g, normalized=True).u,
                "gft-combinatorial": la.gft_basis(g, normalized=False).u,
                "dct": la.dct_basis(8).u}
    assert set(expected) == set(BASIS_TAGS)
    for tag in BASIS_TAGS:
        assert np.array_equal(build_basis(g, tag).u, expected[tag])
        others = [u for other, u in expected.items() if other != tag]
        assert all(np.abs(expected[tag] - u).max() > 1e-3 for u in others)
    with pytest.raises(ValueError, match="basis"):
        build_basis(g, "wavelet")


# ---------------------------------------------------------------------------
# coherence

def test_coherence_complete_graph_saturates():
    g = la.generate("complete", {"n": 10}, seed=0)
    rep = la.graph_basis_coherence(g, [0], la.gft_basis(g))
    assert rep.mu == 1.0
    assert rep.max_closed_neighborhood == 10


def test_coherence_cycle_matches_entry_scan():
    g = la.generate("cycle", {"n": 64}, seed=0)
    basis = la.gft_basis(g)
    rep = la.graph_basis_coherence(g, la.greedy_dominating_set(g), basis)
    umax = max(abs(float(v)) for row in basis.u for v in row)
    assert rep.max_abs_entry == umax
    assert rep.max_closed_neighborhood == 3
    assert rep.mu == min(np.sqrt(3.0) * umax, 1.0)


def test_coherence_rejects_empty_set():
    g = la.generate("cycle", {"n": 8}, seed=0)
    with pytest.raises(ValueError):
        la.graph_basis_coherence(g, [], la.gft_basis(g))


def test_coherence_rejects_size_mismatch():
    g = la.generate("cycle", {"n": 8}, seed=0)
    with pytest.raises(ValueError):
        la.graph_basis_coherence(g, [0], la.dct_basis(9))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_coherence_bounds(seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    r = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
    basis = la.gft_basis(g) if seed % 2 else la.dct_basis(g.n)
    rep = la.graph_basis_coherence(g, r, basis)
    assert np.sqrt(rep.max_closed_neighborhood / g.n) <= rep.mu + 1e-12
    assert rep.mu <= 1.0


# ---------------------------------------------------------------------------
# svd kernels

def test_identity_kernels():
    eye = np.eye(6)
    assert la.numerical_rank(eye) == 6
    assert la.condition_number(eye) == 1.0
    assert np.allclose(la.pseudoinverse(eye), eye)


def test_rank_one_outer_product_closed_form():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(7)
    v = rng.standard_normal(5)
    a = np.outer(u, v)
    assert la.numerical_rank(a) == 1
    expect = np.outer(v, u) / (np.dot(u, u) * np.dot(v, v))
    assert np.abs(la.pseudoinverse(a) - expect).max() <= 1e-12


def test_tiny_singular_value_below_cutoff():
    assert la.numerical_rank(np.diag([3.0, 1e-20, 2.0])) == 2


def test_condition_number_ignores_noise_rank():
    a = np.diag([3.0, 1e-20, 2.0])
    assert np.isclose(la.condition_number(a), 1.5)


def test_zero_matrix_rank_and_condition():
    z = np.zeros((3, 4))
    assert la.numerical_rank(z) == 0
    assert la.condition_number(z) == float("inf")
    assert np.array_equal(la.pseudoinverse(z), np.zeros((4, 3)))


def test_kernels_reject_bad_input():
    with pytest.raises(ValueError):
        la.numerical_rank(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        la.condition_number(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        la.pseudoinverse(np.ones(4))


def test_moore_penrose_identities_batch():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        a = rng.standard_normal((rows, cols))
        if trial % 3 == 0 and min(rows, cols) > 1:
            a[:, -1] = a[:, 0]  # force rank deficiency on a third of cases
        ap = la.pseudoinverse(a)
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs(a @ ap @ a - a).max() <= 1e-8 * scale
        assert np.abs(ap @ a @ ap - ap).max() <= 1e-8 * max(np.abs(ap).max(), 1.0)
        assert np.abs((a @ ap).T - a @ ap).max() <= 1e-8
        assert np.abs((ap @ a).T - ap @ a).max() <= 1e-8


@given(st.integers(0, 10 ** 6),
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=40)
def test_condition_number_scale_invariant(seed, alpha):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
    base = la.condition_number(a)
    assert np.isclose(la.condition_number(alpha * a), base, rtol=1e-9)
    assert np.isclose(la.condition_number(-alpha * a), base, rtol=1e-9)


# ---------------------------------------------------------------------------
# matrix files

def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-12, 12, size=(9, 4))
    path = tmp_path / "m.csv"
    la.save_matrix_csv(path, a)
    assert np.array_equal(la.load_matrix_csv(path), a)


def test_matrix_csv_vector_shape(tmp_path):
    path = tmp_path / "v.csv"
    la.save_matrix_csv(path, np.arange(3.0))
    assert la.load_matrix_csv(path).shape == (1, 3)
