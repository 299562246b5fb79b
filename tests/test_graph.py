"""Graph container, generators, dominating sets, hop expansion, files."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import localagg as la
from localagg.graph import GraphFormatError, HopPlanInfeasibleError

from conftest import random_graph


# ---------------------------------------------------------------------------
# container validation

def test_edges_are_canonicalized():
    g = la.Graph(4, [[2, 1], [3, 0], [0, 1]])
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert g.weights.tolist() == [1.0, 1.0, 1.0]


def test_rejects_self_loop_duplicate_and_bad_weight():
    with pytest.raises(ValueError):
        la.Graph(3, [[1, 1]])
    with pytest.raises(ValueError):
        la.Graph(3, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        la.Graph(3, [[0, 1]], weights=[0.0])
    with pytest.raises(ValueError):
        la.Graph(3, [[0, 1]], weights=[-2.0])
    with pytest.raises(ValueError):
        la.Graph(2, [[0, 2]])


def test_input_arrays_are_copied():
    e = np.array([[1, 0]])
    g = la.Graph(2, e)
    e[0, 0] = 0  # mutating the caller's array must not touch the graph
    assert g.edges.tolist() == [[0, 1]]
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5


def test_degrees_path(path4):
    assert path4.degrees.tolist() == [1, 2, 2, 1]
    assert path4.degrees.dtype == np.int64


# ---------------------------------------------------------------------------
# neighborhoods

def _open_neighbors(g: la.Graph) -> list[set[int]]:
    """Open neighborhood of each node, read from the edge list alone."""
    neigh: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        neigh[int(i)].add(int(j))
        neigh[int(j)].add(int(i))
    return neigh


def test_closed_neighborhood_isolated_node():
    g = la.Graph(3, np.zeros((0, 2)))
    assert la.closed_in_neighborhood(g, 1).tolist() == [1]


def test_closed_neighborhood_complete_graph():
    g = la.generate("complete", {"n": 4}, seed=0)
    assert la.closed_in_neighborhood(g, 2).tolist() == [0, 1, 2, 3]


def test_closed_neighborhood_path_middle():
    g = la.Graph(3, [[0, 1], [1, 2]])
    assert la.closed_in_neighborhood(g, 1).tolist() == [0, 1, 2]


def test_closed_neighborhood_out_of_range(path4):
    with pytest.raises(ValueError):
        la.closed_in_neighborhood(path4, 4)


@pytest.mark.parametrize("kind, params", [
    ("erdos-renyi", {"n": 30, "p_e": 0.05}),
    ("random-geometric", {"n": 30, "radius": 0.15}),
    ("community", {"n": 30, "n_communities": 6, "p_intra": 0.2, "p_inter": 0.01}),
    ("grid2d", {"rows": 1, "cols": 1}),
    ("grid2d", {"rows": 4, "cols": 5}),
    ("small-world", {"n": 20, "ring_degree": 4, "rewire_prob": 0.3}),
    ("cycle", {"n": 9}),
    ("complete", {"n": 6}),
])
def test_closed_neighborhood_equals_union_with_node(kind, params):
    g = la.generate(kind, params, seed=11)
    neigh = _open_neighbors(g)
    for i in range(g.n):
        nb = la.closed_in_neighborhood(g, i)
        old = np.union1d(sorted(neigh[i]), [i]).astype(np.int64)
        assert nb.dtype == np.int64 and np.array_equal(nb, old)
    assert g.degrees.tolist() == [len(nb) for nb in neigh]
    if kind in ("erdos-renyi", "random-geometric"):
        assert (g.degrees == 0).any()   # the sparse draws include isolated nodes


def test_closed_neighborhood_is_a_private_copy(path4):
    la.closed_in_neighborhood(path4, 1)[:] = 0
    assert la.closed_in_neighborhood(path4, 1).tolist() == [0, 1, 2]


@given(st.integers(0, 10 ** 6))
def test_every_node_in_own_closed_neighborhood(seed):
    g = random_graph(seed)
    for i in range(g.n):
        assert i in la.closed_in_neighborhood(g, i)


def test_connected_components_labels():
    g = la.Graph(5, [[0, 1], [3, 4]])
    lab = la.connected_components(g)
    assert lab[0] == lab[1] and lab[3] == lab[4]
    assert len({lab[0], lab[2], lab[3]}) == 3


# ---------------------------------------------------------------------------
# dominating sets

def _is_dominating(g: la.Graph, nodes) -> bool:
    covered = set()
    for v in nodes:
        covered.update(int(u) for u in la.closed_in_neighborhood(g, int(v)))
    return covered == set(range(g.n))


def _greedy_reference(g: la.Graph) -> list[int]:
    """Independent reimplementation with sets: max degree, no closed neighbor
    already chosen, lowest index on ties; fall back to undominated nodes."""
    neigh = _open_neighbors(g)
    deg = {i: len(neigh[i]) for i in range(g.n)}
    chosen: list[int] = []
    dominated: set[int] = set()
    blocked: set[int] = set()
    while len(dominated) < g.n:
        pool = [i for i in range(g.n) if i not in blocked]
        if not pool:
            pool = [i for i in range(g.n) if i not in dominated]
        v = max(pool, key=lambda i: (deg[i], -i))
        chosen.append(v)
        dominated |= neigh[v] | {v}
        blocked |= neigh[v] | {v}
    return chosen


def test_greedy_star_center():
    g = la.Graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert la.greedy_dominating_set(g).tolist() == [0]


def test_greedy_complete_lowest_index():
    g = la.generate("complete", {"n": 5}, seed=0)
    assert la.greedy_dominating_set(g).tolist() == [0]


def test_greedy_path6_sequence(path10):
    p6 = la.Graph(6, np.column_stack([np.arange(5), np.arange(1, 6)]))
    assert la.greedy_dominating_set(p6).tolist() == [1, 3, 5]
    assert la.greedy_dominating_set(path10).tolist() == [1, 3, 5, 7, 9]


def test_greedy_cycle12_takes_every_other_node():
    # all degrees tie, so the lowest-index scan picks 0, 2, 4, ...
    g = la.generate("cycle", {"n": 12}, seed=0)
    assert la.greedy_dominating_set(g).tolist() == [0, 2, 4, 6, 8, 10]


def test_greedy_edgeless_selects_everything():
    g = la.Graph(4, np.zeros((0, 2)))
    assert sorted(la.greedy_dominating_set(g).tolist()) == [0, 1, 2, 3]


@given(st.integers(0, 10 ** 6))
def test_greedy_dominates_and_matches_reference(seed):
    g = random_graph(seed)
    dom = la.greedy_dominating_set(g)
    assert _is_dominating(g, dom)
    assert dom.tolist() == _greedy_reference(g)


def _minimum_dominating_size(g: la.Graph) -> int:
    masks = [0] * g.n
    for i in range(g.n):
        for j in la.closed_in_neighborhood(g, i):
            masks[i] |= 1 << int(j)
    full = (1 << g.n) - 1
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            acc = 0
            for v in combo:
                acc |= masks[v]
            if acc == full:
                return size
    raise AssertionError("unreachable: the full set always dominates")


def test_greedy_versus_exhaustive_minimum_small():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        g = la.generate("erdos-renyi", {"n": n, "p_e": float(rng.uniform(0.15, 0.7))},
                        seed=seed)
        dom = la.greedy_dominating_set(g)
        assert _is_dominating(g, dom)
        assert dom.size >= _minimum_dominating_size(g)


# ---------------------------------------------------------------------------
# hop expansion

def _hop_oracle(g: la.Graph, p: int) -> set[tuple[int, int]]:
    a = np.zeros((g.n, g.n), dtype=bool)
    a[g.edges[:, 0], g.edges[:, 1]] = True
    a |= a.T
    reach = a.copy()
    power = a.copy()
    for _ in range(p - 1):
        power = power @ a
        reach |= power
    return {(i, j) for i in range(g.n) for j in range(i + 1, g.n) if reach[i, j]}


def test_p_hop_identity_at_one():
    g = random_graph(7)
    assert la.p_hop_graph(g, 1) is g


def test_p_hop_path4_two_hops(path4):
    h = la.p_hop_graph(path4, 2)
    assert h.edge_set() == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}


def test_p_hop_cycle6_three_hops_is_complete():
    g = la.generate("cycle", {"n": 6}, seed=0)
    h = la.p_hop_graph(g, 3)
    assert h.num_edges == 15


def test_p_hop_rejects_bad_p(path4):
    with pytest.raises(ValueError):
        la.p_hop_graph(path4, 0)


@given(st.integers(0, 10 ** 6), st.integers(1, 4))
@settings(max_examples=40)
def test_p_hop_matches_boolean_power_oracle(seed, p):
    g = random_graph(seed, n_max=16)
    assert la.p_hop_graph(g, p).edge_set() == _hop_oracle(g, p)


@given(st.integers(0, 10 ** 6))
@example(991)   # greedy set sizes 6, 2, 3 at p = 1, 2, 3: the size is not monotone
@settings(max_examples=30)
def test_p_hop_monotone_and_lower_dominating_set_dominates_higher(seed):
    g = random_graph(seed, n_max=16)
    prev_edges: set = set()
    prev_dom = None
    for p in range(1, 4):
        h = la.p_hop_graph(g, p)
        assert h.edge_set() >= prev_edges
        if prev_dom is not None:
            # every node of the p-hop graph has a closed neighbor in the level p-1 set
            assert h.closed_adjacency[:, prev_dom].sum(axis=1).min() >= 1
        prev_edges, prev_dom = h.edge_set(), la.greedy_dominating_set(h)


def test_hop_levels_are_cached_per_graph(path10):
    level = la.p_hop_graph(path10, 3)
    assert la.p_hop_graph(path10, 3) is level
    assert level.dominating_set.tolist() == la.greedy_dominating_set(level).tolist()
    assert not level.dominating_set.flags.writeable
    # a fresh graph with the same edges builds its own, equal levels
    twin = la.Graph(10, path10.edges)
    assert la.p_hop_graph(twin, 3) is not level
    assert la.p_hop_graph(twin, 3).edge_set() == level.edge_set()


def test_hop_levels_stop_at_saturation(path10):
    # the path's diameter is 9: level 9 joins every pair and one more hop adds none
    top = la.p_hop_graph(path10, 9)
    assert top.num_edges == 45
    assert la.p_hop_graph(path10, 10) is top
    assert la.p_hop_graph(path10, 40) is top
    with pytest.raises(ValueError):
        la.p_hop_graph(path10, 0)


# ---------------------------------------------------------------------------
# minimal hop levels

def test_minimal_hop_trivial_budget(path4):
    p, level = la.minimal_hop_level(path4, 4)
    assert p == 1 and level is path4
    assert level.dominating_set.tolist() == la.greedy_dominating_set(path4).tolist()


def test_minimal_hop_path6():
    p6 = la.Graph(6, np.column_stack([np.arange(5), np.arange(1, 6)]))
    p, level = la.minimal_hop_level(p6, 2)
    assert (p, level.dominating_set.tolist()) == (2, [2, 5])


def test_minimal_hop_path10_brute_force(path10):
    p, level = la.minimal_hop_level(path10, 2)
    # smallest p whose greedy dominating set fits the budget, checked directly
    sizes = [la.greedy_dominating_set(la.p_hop_graph(path10, q)).size
             for q in range(1, p + 1)]
    assert all(s > 2 for s in sizes[:-1]) and sizes[-1] <= 2
    assert (p, level.dominating_set.tolist()) == (3, [3, 7])


def test_minimal_hop_infeasible_on_disconnected():
    g = la.Graph(5, np.zeros((0, 2)))  # five components can never fit m=2
    with pytest.raises(HopPlanInfeasibleError):
        la.minimal_hop_level(g, 2)


def test_minimal_hop_rejects_bad_budget(path4):
    with pytest.raises(ValueError):
        la.minimal_hop_level(path4, 0)


# ---------------------------------------------------------------------------
# generators

def test_cycle_degrees():
    g = la.generate("cycle", {"n": 6}, seed=0)
    assert g.num_edges == 6
    assert g.degrees.tolist() == [2] * 6


def test_erdos_renyi_edge_count_moments():
    # mean edge count over seeds within 3 sigma of the binomial mean
    n, pe, seeds = 100, 0.5, 400
    pairs = n * (n - 1) // 2
    counts = [la.generate("erdos-renyi", {"n": n, "p_e": pe}, seed=s).num_edges
              for s in range(seeds)]
    mean = np.mean(counts)
    sigma_of_mean = np.sqrt(pairs * pe * (1 - pe) / seeds)
    assert abs(mean - pairs * pe) < 3 * sigma_of_mean


def test_geometric_weighted_weight_range():
    g = la.generate("random-geometric", {"n": 100, "radius": 0.2, "weighted": True},
                    seed=11)
    assert g.num_edges > 0
    assert np.all(g.weights > np.exp(-0.2)) and np.all(g.weights < 1.0)


def test_geometric_edges_respect_radius():
    pos = np.random.default_rng(5).random((50, 2))
    g = la.geometric_graph_from_positions(pos, 0.3)
    for i, j in g.edges:
        assert np.linalg.norm(pos[i] - pos[j]) < 0.3


def test_geometric_weights_match_distances():
    pos = np.random.default_rng(9).random((40, 2))
    g = la.geometric_graph_from_positions(pos, 0.35, weighted=True)
    d = np.linalg.norm(pos[g.edges[:, 0]] - pos[g.edges[:, 1]], axis=1)
    assert np.allclose(g.weights, np.exp(-d), atol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_random_geometric_is_built_on_the_seeded_positions(weighted):
    g = la.generate("random-geometric", {"n": 60, "radius": 0.25, "weighted": weighted},
                    seed=13)
    pos = np.random.default_rng(13).random((60, 2))
    direct = la.geometric_graph_from_positions(pos, 0.25, weighted)
    assert g.edges.tobytes() == direct.edges.tobytes()
    assert g.weights.tobytes() == direct.weights.tobytes()


# equivalence with the all-pairs geometric builder
#
# _legacy_geometric is the builder as it was before the x-window: it measures
# every pair through an n x n x 2 difference tensor.  The windowed builder
# must give the same edges and weights, bit for bit.

def _legacy_geometric(positions, radius, weighted=False):
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] < radius
    e = np.column_stack([iu[mask], ju[mask]])
    w = np.exp(-dist[iu[mask], ju[mask]]) if weighted else None
    return la.Graph(n, e, weights=w)


def _assert_same_geometric(pos, radius, weighted):
    new = la.geometric_graph_from_positions(pos, radius, weighted)
    old = _legacy_geometric(pos, radius, weighted)
    assert new.edges.tobytes() == old.edges.tobytes()
    assert new.weights.tobytes() == old.weights.tobytes()
    return old


@pytest.mark.parametrize("weighted", [False, True])
def test_geometric_builder_matches_all_pairs_on_random_sets(weighted):
    rng = np.random.default_rng(2018)
    edges = 0
    for n in range(1, 301):
        pos = rng.random((n, 2))
        if n % 3 == 0:
            pos[rng.integers(n, size=n // 3)] = pos[0]   # coincident points
        radius = float(rng.uniform(0.01, 0.5))
        edges += _assert_same_geometric(pos, radius, weighted).num_edges
    assert edges > 0


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("spacing", [0.1, 0.125, 1 / 7, 0.05, 0.3])
def test_geometric_builder_matches_all_pairs_on_tied_lattices(spacing, weighted):
    # neighbors sit exactly one radius apart, so the computed distance of a
    # lattice pair can land on, just below or just above the radius
    ticks = np.arange(0.0, 1.0 + 1e-12, spacing)
    ticks = ticks[ticks <= 1.0]
    x, y = np.meshgrid(ticks, ticks)
    pos = np.column_stack([x.ravel(), y.ravel()])
    rng = np.random.default_rng(7)
    for order in (np.arange(pos.shape[0]), rng.permutation(pos.shape[0])):
        p = pos[order]
        _assert_same_geometric(p, spacing, weighted)
        d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
        assert np.any(np.abs(d - spacing) <= 1e-15)


def test_geometric_builder_keeps_pairs_whose_distance_rounds_below_the_x_gap():
    # two points one radius apart in x: their distance is the x-gap itself,
    # and the window's margin must still hold them as a candidate pair
    for radius in (0.1, 0.3, 1 / 3, 0.7):
        for x0 in np.linspace(0.0, 1.0 - radius, 23):
            pos = np.array([[x0, 0.5], [x0 + radius, 0.5], [x0 + radius * (1 - 1e-16), 0.25]])
            _assert_same_geometric(pos, radius, True)


def test_geometric_builder_nonpositive_radius_gives_no_edges():
    # a sensor-field config may carry any radius; the window is then empty
    pos = np.random.default_rng(3).random((20, 2))
    for radius in (0.0, -0.1):
        assert _assert_same_geometric(pos, radius, False).num_edges == 0


def test_grid2d_edge_count():
    g = la.generate("grid2d", {"rows": 4, "cols": 7}, seed=0)
    assert g.n == 28
    assert g.num_edges == 4 * 6 + 3 * 7


def test_small_world_preserves_edge_count():
    g = la.generate("small-world", {"n": 30, "ring_degree": 4, "rewire_prob": 0.3},
                    seed=2)
    assert g.n == 30
    assert g.num_edges == 30 * 4 // 2


def test_small_world_rejects_odd_degree():
    with pytest.raises(ValueError):
        la.generate("small-world", {"n": 10, "ring_degree": 3, "rewire_prob": 0.2},
                    seed=0)


def test_community_dense_intra_is_connected():
    g = la.generate("community", {"n": 30, "n_communities": 3,
                                  "p_intra": 1.0, "p_inter": 0.01}, seed=4)
    assert len(set(la.connected_components(g).tolist())) == 1


def test_generate_reproducible():
    a = la.generate("erdos-renyi", {"n": 40, "p_e": 0.2}, seed=77)
    b = la.generate("erdos-renyi", {"n": 40, "p_e": 0.2}, seed=77)
    assert a.edge_set() == b.edge_set()


def test_generate_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError):
        la.generate("hypercube", {"n": 8}, seed=0)
    with pytest.raises(ValueError):
        la.generate("cycle", {"n": 8, "radius": 0.5}, seed=0)
    with pytest.raises(ValueError):
        la.generate("erdos-renyi", {"n": 8, "p_e": 0.0}, seed=0)
    with pytest.raises(ValueError):
        la.generate("erdos-renyi", {"n": 8, "p_e": 1.5}, seed=0)
    with pytest.raises(ValueError):
        la.generate("random-geometric", {"n": 8, "radius": 2.0}, seed=0)


@pytest.mark.parametrize("kind, params, problem", [
    ("complete", {"n": 40.7}, "n must be an integer, got 40.7"),
    ("cycle", {"n": True}, "n must be an integer, got True"),
    ("erdos-renyi", {"n": 12.0, "p_e": 0.5}, "n must be an integer, got 12.0"),
    ("community", {"n": 30, "n_communities": 3.5, "p_intra": 0.5, "p_inter": 0.1},
     "n_communities must be an integer, got 3.5"),
    ("grid2d", {"rows": 4, "cols": 7.2}, "cols must be an integer, got 7.2"),
    ("grid2d", {"rows": False, "cols": 7}, "rows must be an integer, got False"),
    ("small-world", {"n": 30, "ring_degree": 4.0, "rewire_prob": 0.3},
     "ring_degree must be an integer, got 4.0"),
    ("random-geometric", {"n": 30, "radius": 0.3, "weighted": 1},
     "weighted must be true or false, got 1"),
    ("random-geometric", {"n": 30, "radius": 0.3, "weighted": "false"},
     "weighted must be true or false, got 'false'"),
    # probabilities and radii that are not real numbers, and a parameter left out
    ("erdos-renyi", {"n": 12, "p_e": "0.3"}, "p_e must be a real number, got '0.3'"),
    ("erdos-renyi", {"n": 12, "p_e": None}, "p_e must be a real number, got None"),
    ("community", {"n": 30, "n_communities": 3, "p_intra": [0.5], "p_inter": 0.1},
     "p_intra must be a real number, got [0.5]"),
    ("community", {"n": 30, "n_communities": 3, "p_intra": 0.5, "p_inter": True},
     "p_inter must be a real number, got True"),
    ("small-world", {"n": 30, "ring_degree": 4, "rewire_prob": None},
     "rewire_prob must be a real number, got None"),
    ("random-geometric", {"n": 30, "radius": "0.2"}, "radius must be a real number, got '0.2'"),
    ("erdos-renyi", {"n": 12}, "missing parameter 'p_e'"),
])
def test_generate_refuses_counts_that_are_not_integers(kind, params, problem):
    with pytest.raises(ValueError) as info:
        la.generate(kind, params, seed=0)
    assert str(info.value) == problem


def test_generate_takes_numpy_integer_counts():
    a = la.generate("grid2d", {"rows": np.int64(3), "cols": 4}, seed=0)
    b = la.generate("random-geometric", {"n": 30, "radius": 0.3, "weighted": np.bool_(True)},
                    seed=2)
    assert a.n == 12 and b.n == 30 and np.all(b.weights < 1.0)


# ---------------------------------------------------------------------------
# edge-list files

def test_edge_list_round_trip(tmp_path):
    g = la.generate("random-geometric", {"n": 25, "radius": 0.4, "weighted": True},
                    seed=13)
    gp = tmp_path / "g.txt"
    la.save_edge_list(g, gp)
    back = la.load_edge_list(gp)
    assert back.n == g.n
    assert back.edge_set() == g.edge_set()
    assert np.array_equal(back.weights, g.weights)


def test_load_minimal_path_graph(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("3\n0 1\n1 2\n")
    g = la.load_edge_list(f)
    assert g.n == 3 and g.edge_set() == {(0, 1), (1, 2)}


def test_load_ignores_comments_and_blanks(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("# header\n\n3\n# edge below\n0 2 0.5\n")
    g = la.load_edge_list(f)
    assert g.edge_set() == {(0, 2)} and g.weights.tolist() == [0.5]


@pytest.mark.parametrize("body, lineno", [
    ("3\n2 2\n", 2),
    ("3\n0 1\n1 0\n", 3),
    ("3\n0 5\n", 2),
    ("3\n0 1 -1.0\n", 2),
    ("3\n0 1 x\n", 2),
    ("3\n0 1 inf\n", 2),
    ("3\n0 1 1e400\n", 2),
    ("x\n0 1\n", 1),
    ("3\n0\n", 2),
])
def test_load_errors_carry_line_numbers(tmp_path, body, lineno):
    f = tmp_path / "bad.txt"
    f.write_text(body)
    with pytest.raises(GraphFormatError, match=f":{lineno}:"):
        la.load_edge_list(f)


def test_load_missing_node_count(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n")
    with pytest.raises(GraphFormatError, match="node count"):
        la.load_edge_list(f)
