"""Sampling-set construction and randomized local aggregation operators.

A sampling plan lists the nodes whose closed neighborhoods are aggregated,
one measurement per entry (nodes may repeat).  The plan starts from a greedy
dominating set of the graph, moves to a p-hop expansion when the budget is
smaller than the dominating set, and otherwise grows node by node toward the
budget while keeping the per-node aggregation counts balanced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .graph import Graph, minimal_hop_level

STRATEGIES = ("repeat-dominating", "insert-new")


class PoolExhaustedError(RuntimeError):
    """Every eligible candidate was rejected while growing a plan."""


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Where each measurement aggregates.

    nodes[t] is the node whose closed neighborhood (on ``base_graph``) feeds
    measurement t.  ``base_graph`` is the aggregation graph, the p-hop
    expansion of the graph the plan was built for (that graph itself at one
    hop).
    """

    nodes: np.ndarray
    p: int
    strategy: str          # "exact", "repeat-dominating" or "insert-new"
    base_graph: Graph

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.int64, copy=True)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        return int(self.nodes.size)

    @property
    def multiplicities(self) -> np.ndarray:
        """How many measurements touch each node (see node_multiplicities)."""
        return node_multiplicities(self.base_graph, self.nodes)

    @property
    def dominating_set(self) -> np.ndarray:
        """The greedy dominating set of ``base_graph`` that seeded the plan."""
        return self.base_graph.dominating_set


@dataclass(frozen=True, eq=False)
class SamplingOperator:
    """A realized measurement matrix."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64, copy=True)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def _closed_rows(graph: Graph, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Row position and column of every entry of the closed neighborhoods of ``nodes``.

    Entries come row by row in ascending column order: the ``closed_adjacency``
    rows of ``nodes``, gathered through its ``indptr``/``indices``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= graph.n):
        raise ValueError(f"node index out of range for graph with n={graph.n}")
    ac = graph.closed_adjacency
    start = ac.indptr[nodes]
    length = ac.indptr[nodes + 1] - start
    offset = np.repeat(start - (np.cumsum(length) - length), length)
    cols = ac.indices[offset + np.arange(offset.size)]
    return np.repeat(np.arange(nodes.size), length), cols


def node_multiplicities(graph: Graph, nodes) -> np.ndarray:
    """How many entries of ``nodes`` contain each node in their closed neighborhood.

    Repeated sampling nodes count once per repetition.
    """
    return np.bincount(_closed_rows(graph, nodes)[1], minlength=graph.n).astype(np.int64)


class _Balance:
    """The pool of candidates of a growing plan and its balancing criterion.

    ``g`` holds the multiplicities and is updated in place.  The pool starts
    as ``members``; ``cover[j]`` counts the pool nodes whose closed
    neighborhood holds j, so the least count, ``gmin``, is taken over the
    union of the pool's closed neighborhoods.  The criterion picks the pool
    node whose closed neighborhood holds most nodes at count ``gmin``, ties
    going to the lowest index: the argmax of ``ac @ (g == gmin)`` over the
    pool, for the closed adjacency ``ac``.

    ``score`` holds that product for the ``level`` it was last computed at,
    with -1 or less off the pool.  The sparse product runs on a fresh pool
    and again only when a pick needs another level.  Between products:

    - ``add(v)`` keeps the scores current.  v was picked at ``level`` (the
      pool covers N[v]), so every member of N[v] counts at least ``level``
      and none rises onto it; each member u at the level leaves it, which
      takes one from the score of every node whose closed neighborhood holds
      u, i.e. of each node of N[u] (``ac`` is symmetric).
    - The scores are sums of ones, exact in floating point in any order, so
      they equal the product bit for bit.
    - Since the product, g has only grown and the pool only shrunk, so
      ``gmin`` is at least ``level``.  It equals ``level`` exactly when some
      covered node is still at it, i.e. when some pool node scores 1 or more.
      So a pick whose best score is below 1 recomputes ``gmin`` and the
      product and picks again, and every other pick is the product's.
    """

    def __init__(self, ac, g: np.ndarray, members):
        self.ac = ac
        self.ipl = ac.indptr.tolist()
        self.g = g
        self.in_pool = np.zeros(ac.shape[0], dtype=bool)
        self.in_pool[members] = True
        self.cover = (ac.T @ self.in_pool.astype(np.float64)).astype(np.int64)
        self._count()

    def _count(self) -> None:
        self.level = self.g[self.cover > 0].min()
        self.score = self.ac @ (self.g == self.level).astype(np.float64)
        self.score[~self.in_pool] = -1.0

    def pick(self) -> int:
        """The pool node that the balancing criterion picks."""
        best = int(np.argmax(self.score))
        if self.score[best] < 1.0:
            self._count()
            best = int(np.argmax(self.score))
        return best

    def drop(self, v: int) -> None:
        """Take v out of the pool."""
        self.in_pool[v] = False
        self.cover[self.ac.indices[self.ipl[v]:self.ipl[v + 1]]] -= 1
        self.score[v] = -1.0

    def add(self, v: int) -> None:
        """Count one more measurement on the closed neighborhood of v, the last pick."""
        ix, ipl = self.ac.indices, self.ipl
        nb = ix[ipl[v]:ipl[v + 1]]
        old = self.g[nb]
        self.g[nb] = old + 1
        leave = nb[old == self.level].tolist()
        if leave:
            np.subtract.at(self.score, np.concatenate([ix[ipl[u]:ipl[u + 1]] for u in leave]), 1.0)


def _insert_new(agg: Graph, nodes: list, g: np.ndarray, m: int) -> None:
    """Grow ``nodes`` (and ``g``) to m entries with nodes not sampled yet.

    Every node can enter once, so a budget past n exhausts the pool.
    """
    if m > agg.n:
        raise PoolExhaustedError(f"cannot insert new nodes past m = n = {agg.n}")
    balance = _Balance(agg.closed_adjacency, g, np.setdiff1d(np.arange(agg.n), nodes))
    while len(nodes) < m:
        best = balance.pick()
        balance.drop(best)
        balance.add(best)
        nodes.append(best)


def _full_term_rank(agg: Graph, nodes) -> bool:
    """Whether the closed neighborhoods of ``nodes`` have full term rank.

    That is, whether a bipartite matching pairs each entry of ``nodes`` (a
    repeated node once per repetition) with a distinct node of its closed
    neighborhood in ``agg``.  With such a matching, a matrix of independent
    Gaussian entries on these neighborhoods has full row rank with
    probability one (Edmonds 1967); without it, every matrix supported on
    them is row rank deficient.
    """
    pattern = agg.closed_adjacency[np.asarray(nodes, dtype=np.int64)]
    return bool((csgraph.maximum_bipartite_matching(pattern, perm_type="column") >= 0).all())


def _repeat_dominating(agg: Graph, nodes: list, g: np.ndarray, m: int) -> None:
    """Grow ``nodes`` (the dominating set) and ``g`` to m entries by repeating dominators.

    A candidate is rejected when the plan with it would lose full term rank
    (see _full_term_rank), so that the operator drawn for the plan has full
    row rank with probability one; the next best dominator is tried in its
    place.  The dominating set itself has full term rank: its nodes are
    distinct and each lies in its own closed neighborhood, so matching each
    to itself is a full matching.

    A rejection is final.  For plans P inside P' (as multisets), a matching
    that covers every entry of P' + [c] covers P + [c], so a repetition of c
    rejected at P is rejected at every plan grown from P.  Keeping it in the
    pool would not change a pick either: it would be picked and rejected
    again, or leave the other members' level and scores as they are.
    """
    balance = _Balance(agg.closed_adjacency, g, list(nodes))
    while len(nodes) < m:
        if not balance.in_pool.any():
            raise PoolExhaustedError("no dominator repetition keeps the operator full row rank")
        cand = balance.pick()
        if _full_term_rank(agg, nodes + [cand]):
            nodes.append(cand)
            balance.add(cand)
        else:
            balance.drop(cand)


def build_plan(graph: Graph, m: int, strategy: str = "insert-new",
               seed: int | None = None) -> SamplingPlan:
    """Choose the sampling multiset for a measurement budget of m.

    The greedy dominating set of the smallest feasible hop expansion seeds the
    plan.  If it is smaller than m, extra nodes are added one at a time by the
    balancing criterion: either repeating dominators ("repeat-dominating",
    each insertion checked to keep the plan at full term rank, so that its
    operator has full row rank with probability one) or inserting nodes not
    yet sampled ("insert-new").  The returned strategy tag is "exact" when no
    growth was needed.  Hop levels come from the graph's cache (see
    graph.p_hop_graph), so plans on one graph share them.  Plans are
    deterministic in graph, m and strategy: ``seed`` is accepted and not
    read, since the benchmark workloads still pass one.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if m < 1:
        raise ValueError("measurement budget m must be >= 1")
    p, agg = minimal_hop_level(graph, m)
    nodes = [int(v) for v in agg.dominating_set]
    tag = "exact"
    if len(nodes) < m:
        tag = strategy
        grow = _insert_new if strategy == "insert-new" else _repeat_dominating
        grow(agg, nodes, node_multiplicities(agg, nodes), m)
    return SamplingPlan(nodes=np.asarray(nodes, dtype=np.int64), p=p, strategy=tag,
                        base_graph=agg)


def draw_operator(plan: SamplingPlan, seed: int) -> SamplingOperator:
    """Draw the sparse Gaussian measurement matrix for a plan.

    Row t is supported on the closed neighborhood of plan.nodes[t]; the entry
    touching node j has variance 1/multiplicities[j], the number of entries
    filled in column j, so measurements form an isotropic ensemble on average.
    Entries are drawn in one call, row by row in ascending column order, from
    a PCG64 generator, making draws reproducible per seed.
    """
    n = plan.base_graph.n
    rows, cols = _closed_rows(plan.base_graph, plan.nodes)
    scale = np.sqrt(np.bincount(cols, minlength=n))
    phi = np.zeros((plan.m, n))
    phi[rows, cols] = np.random.default_rng(seed).standard_normal(cols.size) / scale[cols]
    return SamplingOperator(phi=phi)


def measure(op: SamplingOperator, x: np.ndarray) -> np.ndarray:
    """Apply the operator: one aggregated sample per plan entry."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"signal must have shape ({op.n},), got {x.shape}")
    return op.phi @ x


# ---------------------------------------------------------------------------
# plan files

def plan_to_json(plan: SamplingPlan) -> str:
    payload = {
        "nodes": [int(v) for v in plan.nodes],
        "p": int(plan.p),
        "strategy": plan.strategy,
    }
    return json.dumps(payload, indent=2)
