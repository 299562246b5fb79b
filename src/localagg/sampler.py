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

from .graph import Graph, closed_in_neighborhood, minimal_hop_level
from .spectral import numerical_rank

STRATEGIES = ("repeat-dominating", "insert-new")


class PoolExhaustedError(RuntimeError):
    """Every eligible candidate was rejected while growing a plan."""


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Where each measurement aggregates.

    nodes[t] is the node whose closed neighborhood (on ``base_graph``) feeds
    measurement t.  ``multiplicities[j]`` counts how many measurements touch
    node j.  ``base_graph`` is the aggregation graph, the p-hop expansion of
    the graph the plan was built for (that graph itself at one hop).
    """

    nodes: np.ndarray
    p: int
    strategy: str          # "exact", "repeat-dominating" or "insert-new"
    multiplicities: np.ndarray
    base_graph: Graph
    seed: int | None = None

    def __post_init__(self):
        for name in ("nodes", "multiplicities"):
            arr = np.array(getattr(self, name), dtype=np.int64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return int(self.nodes.size)

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


def _gaussian_rows(agg: Graph, nodes, rng: np.random.Generator,
                   scale: np.ndarray | None = None) -> np.ndarray:
    """One standard Gaussian row per entry of ``nodes``, supported on its closed
    neighborhood in ``agg``; the entry at column j is divided by ``scale[j]``.

    Values are drawn in one call, row by row in ascending column order, which
    is the order of drawing each row separately from the same generator.
    """
    rows, cols = _closed_rows(agg, nodes)
    vals = rng.standard_normal(cols.size)
    if scale is not None:
        vals /= scale[cols]
    out = np.zeros((len(nodes), agg.n))
    out[rows, cols] = vals
    return out


def node_multiplicities(graph: Graph, nodes) -> np.ndarray:
    """How many entries of ``nodes`` contain each node in their closed neighborhood.

    Repeated sampling nodes count once per repetition.
    """
    return np.bincount(_closed_rows(graph, nodes)[1], minlength=graph.n).astype(np.int64)


def _pool(ac, members) -> tuple[np.ndarray, np.ndarray]:
    """Pool mask of ``members`` and, per node, how many pool rows of ``ac`` contain it."""
    in_pool = np.zeros(ac.shape[0], dtype=bool)
    in_pool[members] = True
    return in_pool, (ac.T @ in_pool.astype(np.float64)).astype(np.int64)


def _leave_pool(ac, in_pool: np.ndarray, cover: np.ndarray, v: int) -> None:
    in_pool[v] = False
    cover[ac.indices[ac.indptr[v]:ac.indptr[v + 1]]] -= 1


def _criterion_pick(ac, in_pool: np.ndarray, cover: np.ndarray, g: np.ndarray) -> int:
    """Node of the pool whose neighborhood covers most minimum-count nodes.

    ``ac`` is the closed adjacency and ``cover`` the pool's counts from
    ``_pool``, so the minimum is taken over the union of the pool's closed
    neighborhoods.  The counts are sums of ones, exact in floating point,
    and argmax breaks ties toward the lowest node index.
    """
    gmin = g[cover > 0].min()
    counts = ac @ (g == gmin).astype(np.float64)
    return int(np.argmax(np.where(in_pool, counts, -1.0)))


# Residual ratios outside this band decide the rank test on their own: a
# dependent row keeps ~1e-16 of its norm, an independent Gaussian row most
# of it.  Inside the band the singular-value rule of numerical_rank decides.
_RESIDUAL_BAND = (1e-12, 1e-6)


class _Scaffold:
    """Operator rows drawn so far, with an orthonormal basis of their span."""

    def __init__(self, first: np.ndarray, capacity: int):
        k, n = first.shape
        self.rows = np.empty((capacity, n))
        self.rows[:k] = first
        self.basis = np.empty((capacity, n))
        self.basis[:k] = np.linalg.qr(first.T)[0].T
        self.size = k

    def admit(self, row: np.ndarray) -> bool:
        """Append ``row`` if the stack stays full row rank; report whether it did.

        The row's relative residual after two projection passes against the
        basis decides; in the ambiguous band (or for a zero row, whose ratio
        is NaN), numerical_rank of the stacked rows decides.
        """
        q = self.basis[:self.size]
        resid = row - (q @ row) @ q
        resid -= (q @ resid) @ q
        norm = np.linalg.norm(resid)
        with np.errstate(invalid="ignore"):
            ratio = norm / np.linalg.norm(row)
        lo, hi = _RESIDUAL_BAND
        if ratio <= lo:
            return False
        if not ratio >= hi:
            stacked = np.vstack([self.rows[:self.size], row])
            if numerical_rank(stacked) < stacked.shape[0]:
                return False
        self.rows[self.size] = row
        self.basis[self.size] = resid / norm
        self.size += 1
        return True


def _insert_new(agg: Graph, nodes: list, g: np.ndarray, m: int) -> None:
    """Grow ``nodes`` (and ``g``) to m entries with nodes not sampled yet.

    Every node can enter once, so a budget past n exhausts the pool.
    """
    if m > agg.n:
        raise PoolExhaustedError(f"cannot insert new nodes past m = n = {agg.n}")
    ac = agg.closed_adjacency
    in_pool, cover = _pool(ac, np.setdiff1d(np.arange(agg.n), nodes))
    while len(nodes) < m:
        best = _criterion_pick(ac, in_pool, cover, g)
        _leave_pool(ac, in_pool, cover, best)
        nodes.append(best)
        g[closed_in_neighborhood(agg, best)] += 1


def _repeat_dominating(agg: Graph, nodes: list, g: np.ndarray, m: int,
                       seed: int | None) -> None:
    """Grow ``nodes`` (the dominating set) and ``g`` to m entries by repeating dominators.

    A candidate is rejected when its freshly drawn row would make the drawn
    rows rank deficient; the next best dominator is tried in its place.
    """
    ac = agg.closed_adjacency
    rng = np.random.default_rng(seed)
    first = _gaussian_rows(agg, nodes, rng)
    if numerical_rank(first) < len(nodes):
        raise PoolExhaustedError("initial dominating rows are rank deficient")
    scaffold = _Scaffold(first, m)
    dom_pool, dom_cover = _pool(ac, nodes)
    while len(nodes) < m:
        in_pool, cover = dom_pool.copy(), dom_cover.copy()
        while True:
            if not in_pool.any():
                raise PoolExhaustedError(
                    "no dominator repetition keeps the operator full row rank")
            cand = _criterion_pick(ac, in_pool, cover, g)
            if scaffold.admit(_gaussian_rows(agg, [cand], rng)[0]):
                break
            _leave_pool(ac, in_pool, cover, cand)
        nodes.append(cand)
        g[closed_in_neighborhood(agg, cand)] += 1


def build_plan(graph: Graph, m: int, strategy: str = "insert-new",
               seed: int | None = None) -> SamplingPlan:
    """Choose the sampling multiset for a measurement budget of m.

    The greedy dominating set of the smallest feasible hop expansion seeds the
    plan.  If it is smaller than m, extra nodes are added one at a time by the
    balancing criterion: either repeating dominators ("repeat-dominating",
    each insertion checked to keep a freshly drawn operator full row rank) or
    inserting nodes not yet sampled ("insert-new").  The returned strategy tag
    is "exact" when no growth was needed.  Hop levels come from the graph's
    cache (see graph.p_hop_graph), so plans on one graph share them.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if m < 1:
        raise ValueError("measurement budget m must be >= 1")
    p, agg = minimal_hop_level(graph, m)
    nodes = [int(v) for v in agg.dominating_set]
    g = node_multiplicities(agg, nodes)
    tag = "exact"
    if len(nodes) < m:
        tag = strategy
        if strategy == "insert-new":
            _insert_new(agg, nodes, g, m)
        else:
            _repeat_dominating(agg, nodes, g, m, seed)
    return SamplingPlan(nodes=np.asarray(nodes, dtype=np.int64), p=p, strategy=tag,
                        multiplicities=g, base_graph=agg, seed=seed)


def draw_operator(plan: SamplingPlan, seed: int | None = None) -> SamplingOperator:
    """Draw the sparse Gaussian measurement matrix for a plan.

    Row t is supported on the closed neighborhood of plan.nodes[t]; the entry
    touching node j has variance 1/multiplicities[j], so measurements form an
    isotropic ensemble on average.  Entries are filled row by row in ascending
    column order from a PCG64 generator, making draws reproducible per seed.
    """
    scale = np.sqrt(np.where(plan.multiplicities > 0, plan.multiplicities, 1))
    phi = _gaussian_rows(plan.base_graph, plan.nodes, np.random.default_rng(seed), scale)
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
        "seed": plan.seed,
    }
    return json.dumps(payload, indent=2)
