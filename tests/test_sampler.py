"""Sampling plans, operator draws, measurement and plan files."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import localagg as la
from localagg import PoolExhaustedError
from localagg.graph import HopPlanInfeasibleError
from localagg.sampler import STRATEGIES

from conftest import random_graph


# ---------------------------------------------------------------------------
# multiplicities

def test_multiplicities_complete_graph():
    g = la.generate("complete", {"n": 6}, seed=0)
    r = [0, 2, 5, 5]
    assert la.node_multiplicities(g, r).tolist() == [4] * 6


def test_multiplicities_star_center_once():
    g = la.Graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert la.node_multiplicities(g, [0]).tolist() == [1] * 5


def test_multiplicities_path_endpoints():
    g = la.Graph(3, [[0, 1], [1, 2]])
    assert la.node_multiplicities(g, [0, 2]).tolist() == [1, 2, 1]


def test_multiplicities_count_repeats():
    g = la.Graph(3, [[0, 1], [1, 2]])
    assert la.node_multiplicities(g, [0, 0]).tolist() == [2, 2, 0]


# ---------------------------------------------------------------------------
# plan construction

def test_plan_exact_when_budget_matches_dominating_set():
    g = la.generate("erdos-renyi", {"n": 30, "p_e": 0.2}, seed=5)
    dom = la.greedy_dominating_set(g)
    plan = la.build_plan(g, dom.size)
    assert plan.strategy == "exact"
    assert plan.p == 1
    assert plan.nodes.tolist() == dom.tolist()
    assert plan.base_graph is g


def test_graph_is_freed_without_the_cycle_collector():
    # plans, operators and the hop-level cache hold no reference cycle through
    # their graph, so reference counting alone frees it
    g = la.generate("random-geometric", {"n": 60, "radius": 0.2}, seed=3)
    plans = [la.build_plan(g, m, s, seed=0) for m in (3, 40) for s in STRATEGIES]
    assert {plan.p for plan in plans} != {1}
    ops = [la.draw_operator(plan, seed=1) for plan in plans]
    level = la.p_hop_graph(g, 3)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g, plans, ops, level
        assert ref() is None
    finally:
        gc.enable()


def test_plan_insert_full_budget_covers_all_nodes():
    g = la.generate("erdos-renyi", {"n": 20, "p_e": 0.3}, seed=7)
    plan = la.build_plan(g, g.n, "insert-new")
    assert sorted(plan.nodes.tolist()) == list(range(g.n))
    assert plan.multiplicities.tolist() == (g.degrees + 1).tolist()


def test_plan_holds_its_nodes_hop_level_strategy_and_graph():
    # everything else, the multiplicities included, is derived from these
    g = la.generate("erdos-renyi", {"n": 20, "p_e": 0.3}, seed=7)
    plan = la.build_plan(g, 12, "repeat-dominating")
    assert [f.name for f in dataclasses.fields(plan)] == ["nodes", "p", "strategy",
                                                          "base_graph"]
    assert plan.multiplicities.tolist() == \
        la.node_multiplicities(plan.base_graph, plan.nodes).tolist()


def test_plan_hop_expansion_path10():
    g = la.Graph(10, np.column_stack([np.arange(9), np.arange(1, 10)]))
    plan = la.build_plan(g, 2)
    assert (plan.p, plan.strategy) == (3, "exact")
    assert plan.nodes.tolist() == [3, 7]
    assert plan.base_graph.edge_set() == la.p_hop_graph(g, 3).edge_set()


def _criterion_reference(agg: la.Graph, taken: list[int], g_mult: np.ndarray,
                         pool: list[int]) -> int:
    """Slow per-step re-evaluation of the balancing criterion."""
    nb = {v: set(map(int, la.closed_in_neighborhood(agg, v))) for v in pool}
    covered = set().union(*nb.values())
    gmin = min(g_mult[j] for j in covered)
    def count(v):
        return sum(1 for j in nb[v] if g_mult[j] == gmin)
    best = max(pool, key=lambda v: (count(v), -v))
    return best


def test_plan_insert_growth_matches_criterion_oracle():
    g = la.generate("community", {"n": 100, "n_communities": 4,
                                  "p_intra": 0.3, "p_inter": 0.02}, seed=9)
    plan = la.build_plan(g, 60, "insert-new")
    dom = plan.dominating_set
    assert dom.size < 60
    agg = plan.base_graph
    taken = dom.tolist()
    g_mult = la.node_multiplicities(agg, taken)
    for v in plan.nodes.tolist()[dom.size:]:
        pool = [u for u in range(g.n) if u not in set(taken)]
        assert v == _criterion_reference(agg, taken, g_mult, pool)
        taken.append(v)
        g_mult[la.closed_in_neighborhood(agg, v)] += 1
    assert np.array_equal(g_mult, plan.multiplicities)


def test_plan_repeat_growth_matches_criterion_when_no_rejections():
    g = la.generate("community", {"n": 30, "n_communities": 3,
                                  "p_intra": 0.9, "p_inter": 0.05}, seed=2)
    m = la.greedy_dominating_set(g).size + 6
    plan = la.build_plan(g, m, "repeat-dominating", seed=0)
    assert plan.strategy == "repeat-dominating"
    dom = plan.dominating_set
    pool = sorted(int(v) for v in dom)
    agg = plan.base_graph
    taken = dom.tolist()
    g_mult = la.node_multiplicities(agg, taken)
    for v in plan.nodes.tolist()[dom.size:]:
        assert v in pool
        # on this graph no candidate is rank-rejected, so the pick is the
        # plain criterion optimum over the dominator pool
        assert v == _criterion_reference(agg, taken, g_mult, list(pool))
        taken.append(v)
        g_mult[la.closed_in_neighborhood(agg, v)] += 1


def test_plan_repeat_keeps_full_row_rank():
    g = la.generate("erdos-renyi", {"n": 25, "p_e": 0.3}, seed=3)
    m = la.greedy_dominating_set(g).size + 8
    plan = la.build_plan(g, m, "repeat-dominating", seed=1)
    op = la.draw_operator(plan, seed=11)
    assert la.numerical_rank(op.phi) == m


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_full_term_rank_agrees_with_numerical_rank_of_a_gaussian_draw(seed):
    from localagg.sampler import _closed_rows, _full_term_rank

    g = random_graph(seed, n_max=16)
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, g.n, int(rng.integers(1, g.n + 3))).tolist()
    rows, cols = _closed_rows(g, nodes)
    drawn = np.zeros((len(nodes), g.n))
    drawn[rows, cols] = rng.standard_normal(cols.size)
    assert _full_term_rank(g, nodes) == (la.numerical_rank(drawn) == len(nodes))
    # every hop level's greedy dominating set, up to saturation, is matched to itself
    for p in range(1, g.n + 1):
        level = la.p_hop_graph(g, p)
        assert _full_term_rank(level, level.dominating_set)
        if la.p_hop_graph(g, p + 1) is level:
            break


def test_plan_repeat_is_the_same_for_every_seed():
    g = la.generate(*LARGE_GRAPH)
    for m in (40, 110, 150):
        a, b = (la.build_plan(g, m, "repeat-dominating", seed=s) for s in (0, 20180417))
        assert a.strategy == "repeat-dominating"
        assert a.nodes.tolist() == b.nodes.tolist()
        assert a.multiplicities.tolist() == b.multiplicities.tolist()


def test_plan_repeat_pool_exhaustion_on_isolated_nodes():
    g = la.Graph(3, np.zeros((0, 2)))
    with pytest.raises(PoolExhaustedError):
        la.build_plan(g, 4, "repeat-dominating", seed=0)


def test_plan_insert_rejects_budget_past_n():
    g = la.generate("cycle", {"n": 6}, seed=0)
    with pytest.raises(PoolExhaustedError):
        la.build_plan(g, 7, "insert-new")


def test_plan_propagates_infeasibility():
    g = la.Graph(5, np.zeros((0, 2)))
    with pytest.raises(HopPlanInfeasibleError):
        la.build_plan(g, 2)


def test_plan_validates_arguments():
    g = la.generate("cycle", {"n": 6}, seed=0)
    with pytest.raises(ValueError):
        la.build_plan(g, 0)
    with pytest.raises(ValueError):
        la.build_plan(g, 3, "round-robin")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_plan_contains_dominating_set_and_positive_gmin(seed):
    g = random_graph(seed, n_max=20)
    rng = np.random.default_rng(seed)
    n_comp = len(set(la.connected_components(g).tolist()))
    m = int(rng.integers(n_comp, g.n + 1))
    plan = la.build_plan(g, m, "insert-new")
    assert plan.m == m
    assert set(plan.dominating_set.tolist()) <= set(plan.nodes.tolist())
    covered = set()
    for v in plan.dominating_set:
        covered.update(map(int, la.closed_in_neighborhood(plan.base_graph, int(v))))
    assert covered == set(range(g.n))
    assert plan.multiplicities.min() >= 1


def test_gmin_nondecreasing_under_insert_growth():
    g = la.generate("community", {"n": 40, "n_communities": 4,
                                  "p_intra": 0.4, "p_inter": 0.05}, seed=6)
    start = la.greedy_dominating_set(g).size
    gmins = [la.build_plan(g, m, "insert-new").multiplicities.min()
             for m in range(start, 41, 3)]
    assert all(b >= a for a, b in zip(gmins, gmins[1:]))


# ---------------------------------------------------------------------------
# operator draws

def test_operator_support_matches_neighborhoods():
    g = la.generate("erdos-renyi", {"n": 20, "p_e": 0.25}, seed=4)
    plan = la.build_plan(g, 12, "insert-new")
    op = la.draw_operator(plan, seed=5)
    for t, node in enumerate(plan.nodes):
        nb = set(map(int, la.closed_in_neighborhood(plan.base_graph, int(node))))
        nz = set(map(int, np.flatnonzero(op.phi[t])))
        assert nz == nb


def test_operator_column_counts_equal_multiplicities():
    g = la.generate("erdos-renyi", {"n": 15, "p_e": 0.3}, seed=8)
    plan = la.build_plan(g, 10, "insert-new")
    op = la.draw_operator(plan, seed=2)
    counts = (op.phi != 0).sum(axis=0)
    assert counts.tolist() == plan.multiplicities.tolist()


def test_operator_deterministic_per_seed():
    g = la.generate("cycle", {"n": 9}, seed=0)
    plan = la.build_plan(g, 5, "insert-new")
    a = la.draw_operator(plan, seed=3)
    b = la.draw_operator(plan, seed=3)
    c = la.draw_operator(plan, seed=4)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_operator_entry_variance_complete_graph():
    # every multiplicity is m on a complete graph, so entries have variance 1/m
    g = la.generate("complete", {"n": 8}, seed=0)
    plan = la.build_plan(g, 8, "insert-new")
    assert plan.multiplicities.tolist() == [8] * 8
    draws = 20_000
    acc = 0.0
    for t in range(draws):
        phi = la.draw_operator(plan, seed=t).phi
        acc += float((phi ** 2).sum())
    var = acc / (draws * 64)
    assert abs(var - 1.0 / 8.0) < 0.05 / 8.0


def test_norm_preserved_in_expectation():
    g = la.generate("erdos-renyi", {"n": 30, "p_e": 0.3}, seed=12)
    plan = la.build_plan(g, la.greedy_dominating_set(g).size + 5, "insert-new")
    basis = la.gft_basis(g)
    rng = np.random.default_rng(0)
    xhat = np.zeros(g.n)
    support = rng.choice(g.n, size=4, replace=False)
    xhat[support] = rng.standard_normal(4)
    xhat /= np.linalg.norm(xhat)
    x = basis.u @ xhat
    acc = 0.0
    draws = 10_000
    for t in range(draws):
        y = la.draw_operator(plan, seed=t).phi @ x
        acc += float((y ** 2).sum())
    assert 0.95 <= acc / draws <= 1.05


# ---------------------------------------------------------------------------
# measurement

def test_measure_zero_signal():
    g = la.generate("cycle", {"n": 7}, seed=0)
    op = la.draw_operator(la.build_plan(g, 4, "insert-new"), seed=1)
    assert np.array_equal(la.measure(op, np.zeros(7)), np.zeros(4))


def test_measure_unit_vector_reads_column():
    g = la.generate("erdos-renyi", {"n": 12, "p_e": 0.4}, seed=2)
    op = la.draw_operator(la.build_plan(g, 6, "insert-new"), seed=9)
    for j in (0, 5, 11):
        e = np.zeros(12)
        e[j] = 1.0
        assert np.array_equal(la.measure(op, e), op.phi[:, j])


def test_measure_matches_double_loop():
    g = la.generate("erdos-renyi", {"n": 18, "p_e": 0.3}, seed=3)
    op = la.draw_operator(la.build_plan(g, 9, "insert-new"), seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(18)
    y = la.measure(op, x)
    naive = [sum(op.phi[t, j] * x[j] for j in range(18)) for t in range(9)]
    assert np.abs(y - np.asarray(naive)).max() <= 1e-12


def test_measure_rejects_bad_shape():
    g = la.generate("cycle", {"n": 7}, seed=0)
    op = la.draw_operator(la.build_plan(g, 4, "insert-new"), seed=1)
    with pytest.raises(ValueError):
        la.measure(op, np.zeros(8))


# ---------------------------------------------------------------------------
# plan files

def test_plan_json_round_trip():
    # the JSON text reads back as the plan's nodes, hop level and strategy
    g = la.generate("community", {"n": 40, "n_communities": 4,
                                  "p_intra": 0.4, "p_inter": 0.05}, seed=1)
    plan = la.build_plan(g, 25, "repeat-dominating", seed=17)
    payload = json.loads(la.plan_to_json(plan))
    assert payload == {"nodes": plan.nodes.tolist(), "p": plan.p,
                       "strategy": "repeat-dominating"}


def test_plan_json_round_trip_hop_expanded():
    # a budget below the path's dominating set is met on the 3-hop graph, and
    # the file records that hop level
    g = la.Graph(10, np.column_stack([np.arange(9), np.arange(1, 10)]))
    plan = la.build_plan(g, 2)
    payload = json.loads(la.plan_to_json(plan))
    assert payload["p"] == plan.p == 3
    assert payload["nodes"] == plan.nodes.tolist()


# ---------------------------------------------------------------------------
# equivalence with the non-incremental plan builder
#
# _legacy_build_plan is the plan builder as it was before hop levels were
# cached and the growth loops kept incremental state: it rebuilds the reach
# matrices, the p-hop graph and its dominating set on every call, re-derives
# the pool and its cover at every insertion and checks the rank of every
# candidate with a full SVD.  The incremental build_plan must match it exactly.

def _legacy_closed(g: la.Graph, i: int) -> np.ndarray:
    # the open neighborhood read from the edge list, independent of the CSR rows
    e = g.edges
    return np.union1d(np.concatenate([e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]]),
                      [i]).astype(np.int64)


def _legacy_reach_to_graph(graph: la.Graph, reach) -> la.Graph:
    r = reach.tocoo()
    keep = r.row < r.col
    return la.Graph(graph.n, np.column_stack([r.row[keep], r.col[keep]]).astype(np.int64))


def _legacy_hop_search(graph: la.Graph, m: int):
    e = graph.edges
    structure = sp.coo_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])),
                              shape=(graph.n, graph.n))
    structure = (structure + structure.T).tocsr()
    reach = structure.copy()
    reach.data[:] = 1.0
    p = 1
    while True:
        hop = _legacy_reach_to_graph(graph, reach)
        dom = la.greedy_dominating_set(hop)
        if dom.size <= m:
            return p, dom, hop
        nxt = (reach @ structure) + structure
        nxt.data[:] = 1.0
        nxt = (nxt + reach).tocsr()
        nxt.data[:] = 1.0
        nxt.eliminate_zeros()
        if nxt.nnz == reach.nnz:
            raise HopPlanInfeasibleError(
                f"dominating set has {dom.size} nodes at saturation, budget is {m}")
        reach = nxt
        p += 1


def _legacy_pick(closed: np.ndarray, pool: np.ndarray, g: np.ndarray) -> int:
    rows = closed[pool]
    cover = rows.sum(axis=0) > 0
    gmin = g[cover].min()
    return int(pool[int(np.argmax(rows @ (g == gmin).astype(np.float64)))])


def _legacy_row(agg, node, rng, n):
    row = np.zeros(n)
    nb = _legacy_closed(agg, node)
    row[nb] = rng.standard_normal(nb.size)
    return row


def _legacy_build_plan(graph: la.Graph, m: int, strategy: str, seed=None):
    """Returns (plan fields, rank rejections) or raises like build_plan did."""
    p, dom, agg = _legacy_hop_search(graph, m)
    nodes = [int(v) for v in dom]
    agg = graph if p == 1 else agg
    closed = np.zeros((graph.n, graph.n))
    for i in range(graph.n):
        closed[i, _legacy_closed(agg, i)] = 1.0
    g = closed[nodes].sum(axis=0).astype(np.int64)
    tag = "exact"
    rng = np.random.default_rng(seed)
    scaffold = None
    rejections = 0
    if len(nodes) < m:
        tag = strategy
        if strategy == "repeat-dominating":
            scaffold = np.vstack([_legacy_row(agg, v, rng, graph.n) for v in nodes])
            if la.numerical_rank(scaffold) < len(nodes):
                raise PoolExhaustedError("initial dominating rows are rank deficient")
    while len(nodes) < m:
        if strategy == "insert-new":
            pool = np.setdiff1d(np.arange(graph.n), np.asarray(nodes, dtype=np.int64))
            if pool.size == 0:
                raise PoolExhaustedError(f"cannot insert new nodes past m = n = {graph.n}")
            best = _legacy_pick(closed, pool, g)
        else:
            pool = np.asarray(sorted(set(nodes[:dom.size])), dtype=np.int64)
            best = None
            while pool.size:
                cand = _legacy_pick(closed, pool, g)
                stacked = np.vstack([scaffold, _legacy_row(agg, cand, rng, graph.n)])
                if la.numerical_rank(stacked) == stacked.shape[0]:
                    scaffold = stacked
                    best = cand
                    break
                rejections += 1
                pool = pool[pool != cand]
            if best is None:
                raise PoolExhaustedError(
                    "no dominator repetition keeps the operator full row rank")
        nodes.append(best)
        g[_legacy_closed(agg, best)] += 1
    fields = (nodes, g.tolist(), p, tag, dom.tolist(), sorted(agg.edge_set()))
    return fields, rejections


def _outcome(build, *args):
    """Plan fields, or the error type and message, for an exact comparison."""
    try:
        return build(*args)
    except (PoolExhaustedError, HopPlanInfeasibleError) as err:
        return type(err).__name__, str(err)


def _plan_fields(graph, m, strategy, seed=None):
    plan = la.build_plan(graph, m, strategy, seed=seed)
    return (plan.nodes.tolist(), plan.multiplicities.tolist(), plan.p, plan.strategy,
            plan.dominating_set.tolist(), sorted(plan.base_graph.edge_set()))


def _legacy_fields(graph, m, strategy, seed=None):
    return _legacy_build_plan(graph, m, strategy, seed)[0]


EQUIVALENCE_GRAPHS = [
    ("erdos-renyi", {"n": 14, "p_e": 0.2}, 1),
    ("random-geometric", {"n": 16, "radius": 0.3}, 2),
    ("community", {"n": 15, "n_communities": 3, "p_intra": 0.5, "p_inter": 0.05}, 3),
    ("grid2d", {"rows": 3, "cols": 5}, 0),
    ("small-world", {"n": 14, "ring_degree": 4, "rewire_prob": 0.2}, 4),
    ("cycle", {"n": 13}, 0),
]


@pytest.mark.parametrize("kind, params, graph_seed", EQUIVALENCE_GRAPHS)
def test_build_plan_matches_legacy_builder(kind, params, graph_seed):
    g = la.generate(kind, params, graph_seed)
    seen = set()
    for strategy in STRATEGIES:
        for m in range(1, g.n + 3):
            new = _outcome(_plan_fields, g, m, strategy, 100 + m)
            old = _outcome(_legacy_fields, g, m, strategy, 100 + m)
            assert new == old, (strategy, m)
            seen.add(new[0] if isinstance(new[0], str) else
                     "p-hop" if new[2] > 1 else new[3])
    # every family walks the p-hop path, both growth paths and the pool error
    assert {"p-hop", "insert-new", "repeat-dominating",
            "PoolExhaustedError"} <= seen


def test_build_plan_matches_legacy_on_error_paths():
    edgeless = la.Graph(5, np.zeros((0, 2)))
    split = la.Graph(8, [[0, 1], [1, 2], [4, 5]])
    cases = [(edgeless, 2, "insert-new"), (edgeless, 7, "repeat-dominating"),
             (edgeless, 6, "insert-new"), (split, 3, "insert-new"),
             (split, 9, "insert-new"), (split, 9, "repeat-dominating")]
    for g, m, strategy in cases:
        new = _outcome(_plan_fields, g, m, strategy, 0)
        assert new == _outcome(_legacy_fields, g, m, strategy, 0)
        assert isinstance(new[0], str), (m, strategy)


def test_repeat_rank_rejections_match_legacy():
    rejections = 0
    for graph_seed in range(3):
        g = la.generate("erdos-renyi", {"n": 12, "p_e": 0.3}, graph_seed)
        d = la.greedy_dominating_set(g).size
        for extra in range(1, 5):
            for plan_seed in range(5):
                m = d + extra
                new = _outcome(_plan_fields, g, m, "repeat-dominating", plan_seed)
                old = _outcome(_legacy_build_plan, g, m, "repeat-dominating", plan_seed)
                if isinstance(old[0], str):
                    assert new == old
                else:
                    assert new == old[0]
                    rejections += old[1]
    # the cases must exercise the rank test's rejection branch
    assert rejections > 0


# 150 nodes: dominating sets of 25, 11 and 7 nodes at 1, 2 and 3 hops, so the
# budgets grow plans on all three levels, and the large ones raise the least
# count to 3 (insert-new) and 4 (repeat-dominating, with rank rejections
# near m = n)
LARGE_GRAPH = ("random-geometric", {"n": 150, "radius": 0.15}, 1)
LARGE_BUDGETS = (8, 10, 13, 18, 24, 26, 40, 75, 110, 150, 152)


def test_build_plan_matches_legacy_builder_on_a_larger_graph():
    g = la.generate(*LARGE_GRAPH)
    seen = set()
    for strategy in STRATEGIES:
        for m in LARGE_BUDGETS:
            new = _outcome(_plan_fields, g, m, strategy, 100 + m)
            assert new == _outcome(_legacy_fields, g, m, strategy, 100 + m), (strategy, m)
            if not isinstance(new[0], str):
                seen.add((strategy, new[2], min(new[1])))
    for strategy in STRATEGIES:
        assert {p for s, p, _ in seen if s == strategy} == {1, 2, 3}
        assert max(gmin for s, _, gmin in seen if s == strategy) >= 3


def test_rejected_repetitions_are_never_tested_again(monkeypatch):
    from localagg import sampler

    real = sampler._full_term_rank
    rejected, retested = set(), []

    def recorded(agg, nodes):
        full = real(agg, nodes)
        if nodes[-1] in rejected:
            retested.append(nodes[-1])
        if not full:
            rejected.add(nodes[-1])
        return full

    monkeypatch.setattr(sampler, "_full_term_rank", recorded)
    g = la.generate(*LARGE_GRAPH)
    for m in (140, 150):
        rejected.clear()
        la.build_plan(g, m, "repeat-dominating")
        assert rejected, m
    assert retested == []


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_term_rank_deficiency_is_inherited_by_larger_plans(seed):
    # for P inside P', a plan P + [c] without full term rank makes P' + [c]
    # lack it too: the grounds for dropping a rejected repetition for good
    from localagg.sampler import _full_term_rank

    g = random_graph(seed, n_max=12)
    rng = np.random.default_rng(seed)
    small = rng.integers(0, g.n, int(rng.integers(0, g.n + 1))).tolist()
    large = rng.permutation(small + rng.integers(0, g.n, int(rng.integers(0, 4))).tolist())
    c = int(rng.integers(g.n))
    if not _full_term_rank(g, small + [c]):
        assert not _full_term_rank(g, large.tolist() + [c])


def test_balance_scores_equal_the_product_at_every_pick(monkeypatch):
    # the kept scores against the criterion recomputed from scratch, on plans
    # whose least count rises many times and (repeat-dominating, m = 150)
    # whose pool loses rejected dominators
    from localagg import sampler

    picks = []
    real = sampler._Balance.pick

    def checked(self):
        best = real(self)
        gmin = self.g[self.cover > 0].min()
        fresh = self.ac @ (self.g == gmin).astype(np.float64)
        assert self.level == gmin
        assert self.score[self.in_pool].tobytes() == fresh[self.in_pool].tobytes()
        assert (self.score[~self.in_pool] < 0).all()
        assert best == int(np.argmax(np.where(self.in_pool, fresh, -1.0)))
        picks.append(best)
        return best

    monkeypatch.setattr(sampler._Balance, "pick", checked)
    g = la.generate(*LARGE_GRAPH)
    for strategy in STRATEGIES:
        for m in (24, 75, 110, 150):
            la.build_plan(g, m, strategy, seed=m)
    assert len(picks) > 500


def test_hop_cache_is_independent_of_budget_order():
    kind, params = "random-geometric", {"n": 40, "radius": 0.2}
    budgets = list(range(1, 25)) + [30, 40, 41]
    fresh = la.generate(kind, params, 6)
    expected = {(s, m): _outcome(_legacy_fields, fresh, m, s, m)
                for s in STRATEGIES for m in budgets}
    for order in (budgets, budgets[::-1]):
        g = la.generate(kind, params, 6)
        for m in order:
            for s in STRATEGIES:
                assert _outcome(_plan_fields, g, m, s, m) == expected[(s, m)], (s, m)
    assert any(fields[2] > 2 for fields in expected.values()
               if not isinstance(fields[0], str))



# ---------------------------------------------------------------------------
# equivalence with the per-row operator drawer
#
# _legacy_draw_operator and _legacy_multiplicities are draw_operator and
# node_multiplicities as they were before the closed-neighborhood rows were
# gathered in one pass: one Python iteration and one generator call per row.

def _legacy_draw_operator(plan, seed):
    agg = plan.base_graph
    rng = np.random.default_rng(seed)
    phi = np.zeros((plan.m, agg.n))
    scale = np.sqrt(np.where(plan.multiplicities > 0, plan.multiplicities, 1))
    for t, node in enumerate(plan.nodes):
        nb = la.closed_in_neighborhood(agg, int(node))
        phi[t, nb] = rng.standard_normal(nb.size) / scale[nb]
    return phi


def _legacy_multiplicities(graph, nodes):
    g = np.zeros(graph.n, dtype=np.int64)
    for i in np.asarray(nodes, dtype=np.int64):
        g[la.closed_in_neighborhood(graph, int(i))] += 1
    return g


@pytest.mark.parametrize("kind, params, graph_seed", EQUIVALENCE_GRAPHS)
def test_draw_operator_and_multiplicities_match_per_row_loops(kind, params, graph_seed):
    g = la.generate(kind, params, graph_seed)
    seen = set()
    for strategy in STRATEGIES:
        for m in range(1, g.n + 3):
            try:
                plan = la.build_plan(g, m, strategy, seed=100 + m)
            except (PoolExhaustedError, HopPlanInfeasibleError):
                continue
            mult = la.node_multiplicities(plan.base_graph, plan.nodes)
            assert mult.dtype == np.int64
            assert np.array_equal(mult, _legacy_multiplicities(plan.base_graph, plan.nodes))
            for seed in (0, 200 + m):
                phi = la.draw_operator(plan, seed=seed).phi
                assert np.array_equal(phi, _legacy_draw_operator(plan, seed)), (strategy, m)
            if strategy == "repeat-dominating" and plan.strategy == strategy:
                seen.add("repeated")
            seen.add("p-hop" if plan.p > 1 else "one-hop")
    assert {"repeated", "p-hop", "one-hop"} <= seen


def test_multiplicities_reject_nodes_out_of_range(path4):
    for bad in ([4], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            la.node_multiplicities(path4, bad)


@pytest.mark.parametrize("graph", [
    la.generate("complete", {"n": 6}, 0),
    la.Graph(6, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]),
], ids=["K6", "two-triangles"])
def test_clique_components_saturate_at_level_one(graph):
    # one hop already joins every pair within a component, so no second level
    # is built; plans and the infeasible-budget error are those of the legacy
    # builder, which grew a redundant level 2 with the same edges
    assert la.p_hop_graph(graph, 1) is graph
    assert la.p_hop_graph(graph, 2) is graph and la.p_hop_graph(graph, 5) is graph
    for strategy in STRATEGIES:
        for m in range(1, graph.n + 3):
            new = _outcome(_plan_fields, graph, m, strategy, m)
            assert new == _outcome(_legacy_fields, graph, m, strategy, m), (strategy, m)
