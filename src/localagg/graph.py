"""Graph container, random generators, dominating sets and hop expansion.

Nodes are integers 0..n-1.  Edges have no orientation: each is stored once in
canonical (i < j) order and the adjacency is symmetric.  A graph holds its
structure only: node coordinates, where a model needs them, stay with the caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def check_int(name: str, value, minimum: int | None = None, error=ValueError) -> None:
    """Raise ``error`` unless value is an integer (not a bool), >= minimum if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")


def check_real(name: str, value, positive: bool = False, error=ValueError) -> None:
    """Raise ``error`` unless value is a finite number (not a bool) >= 0, > 0 if ``positive``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        raise error(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                    f"got {value!r}")


class GraphFormatError(ValueError):
    """An edge-list file could not be parsed."""


class HopPlanInfeasibleError(ValueError):
    """No hop count brings the greedy dominating set within the budget."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted graph.

    Parameters
    ----------
    n : int
        Number of nodes.
    edges : ndarray of shape (E, 2)
        Node index pairs, each stored once; orientation of the input pairs
        does not matter.
    weights : ndarray of shape (E,), optional
        Positive edge weights.  Defaults to all ones.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        e = np.array(self.edges, dtype=np.int64, copy=True).reshape(-1, 2)
        w = self.weights
        if w is None:
            w = np.ones(e.shape[0])
        w = np.array(w, dtype=np.float64, copy=True).reshape(-1)
        if w.shape[0] != e.shape[0]:
            raise ValueError("weights length does not match edge count")
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("edge weights must be positive and finite")
        if e.size:
            flip = e[:, 0] > e[:, 1]
            e[flip] = e[flip][:, ::-1]
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
        w = w[order]
        if e.shape[0] > 1 and np.any(np.all(e[1:] == e[:-1], axis=1)):
            raise ValueError("duplicate edges are not allowed")
        e.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "weights", w)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Unweighted symmetric adjacency; csgraph routines walk each edge both ways."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(self.num_edges)
        a = sp.coo_matrix((data, (i, j)), shape=(self.n, self.n))
        return (a + a.T).tocsr()

    @cached_property
    def closed_adjacency(self) -> sp.csr_matrix:
        """Row i is the indicator of the closed neighborhood of i, columns sorted."""
        a = (self.adjacency + sp.identity(self.n, format="csr")).tocsr()
        a.sort_indices()
        return a

    @cached_property
    def dominating_set(self) -> np.ndarray:
        """Read-only ``greedy_dominating_set`` of this graph."""
        dom = greedy_dominating_set(self)
        dom.setflags(write=False)
        return dom

    @cached_property
    def _hop_levels(self) -> list:
        # levels 2, 3, ... of the hop expansion, grown by p_hop_graph; they hold
        # no reference to this graph, and a trailing None marks saturation
        return []

    @cached_property
    def degrees(self) -> np.ndarray:
        """Unweighted degree per node."""
        return np.diff(self.adjacency.indptr).astype(np.int64)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges}


def closed_in_neighborhood(graph: Graph, i: int) -> np.ndarray:
    """Sorted node indices of the closed neighborhood of ``i`` (includes i)."""
    if not 0 <= i < graph.n:
        raise ValueError(f"node {i} out of range for graph with n={graph.n}")
    ac = graph.closed_adjacency
    return ac.indices[ac.indptr[i]:ac.indptr[i + 1]].astype(np.int64)


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node."""
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    _, labels = csgraph.connected_components(graph.adjacency)
    return labels.astype(np.int64)


def greedy_dominating_set(graph: Graph) -> np.ndarray:
    """Greedy dominating set, in selection order.

    Repeatedly adds the highest-degree undominated node, lowest index on ties,
    until every node has a selected node in its closed neighborhood.
    """
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    deg = graph.degrees.astype(np.float64)
    dominated = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    while not dominated.all():
        # argmax returns the first maximum, which is the lowest index
        v = int(np.argmax(np.where(dominated, -1.0, deg)))
        chosen.append(v)
        dominated[closed_in_neighborhood(graph, v)] = True
    return np.asarray(chosen, dtype=np.int64)


def _next_hop_graph(graph: Graph, prev: Graph) -> Graph:
    """Level p+1 of the hop expansion from level p: one more hop of walks."""
    r = (prev.adjacency @ graph.adjacency + prev.adjacency).tocoo()
    keep = r.row < r.col
    return Graph(graph.n, np.column_stack([r.row[keep], r.col[keep]]))


def p_hop_graph(graph: Graph, p: int) -> Graph:
    """Graph connecting nodes joined by a walk of length 1..p.

    ``p_hop_graph(g, 1)`` is ``g`` itself, with its weights; higher levels
    have unit weights.  Levels are computed once per graph, each grown from
    the one below, and kept on the graph for its lifetime.  The expansion
    saturates at the largest component diameter: once one more hop adds no
    edge, that level is returned for any larger p.
    """
    if p < 1:
        raise ValueError("hop count p must be >= 1")
    levels = graph._hop_levels
    while len(levels) < p - 1 and (not levels or levels[-1] is not None):
        prev = levels[-1] if levels else graph
        hop = _next_hop_graph(graph, prev)
        levels.append(hop if hop.num_edges > prev.num_edges else None)
    reached = [graph, *levels[:p - 1]]
    return reached[-1] if reached[-1] is not None else reached[-2]


def minimal_hop_level(graph: Graph, m: int) -> tuple[int, Graph]:
    """Lowest hop count p, and its level graph, whose greedy dominating set has
    at most m nodes.

    Saturation of the hop expansion bounds the search: past the largest
    component diameter nothing changes, so the budget is infeasible once
    growth stops.
    """
    if m < 1:
        raise ValueError("budget m must be >= 1")
    p = 1
    while True:
        level = p_hop_graph(graph, p)
        if level.dominating_set.size <= m:
            return p, level
        if p_hop_graph(graph, p + 1) is level:
            raise HopPlanInfeasibleError(
                f"dominating set has {level.dominating_set.size} nodes at saturation, "
                f"budget is {m}")
        p += 1


# ---------------------------------------------------------------------------
# generators

def _erdos_renyi(params, rng):
    n, p_e = int(params["n"]), float(params["p_e"])
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p_e
    return Graph(n, np.column_stack([iu[mask], ju[mask]]))


def geometric_graph_from_positions(positions: np.ndarray, radius: float,
                                   weighted: bool = False) -> Graph:
    """The graph on ``positions`` (n x 2) joining points closer than ``radius``;
    optional weights exp(-distance).  The positions themselves are not kept.

    Only pairs within ``radius`` of each other in x are measured: the nodes are
    sorted by x and each is paired with the window that follows it.  The window
    bound carries a relative margin of 1e-9, so that no rounding in the bound
    or in a distance can drop a pair that an all-pairs scan would keep.
    Distances, edges and weights are those of such a scan, bit for bit.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    order = np.argsort(pos[:, 0], kind="stable")
    xs = pos[order, 0]
    stop = np.searchsorted(xs, xs + radius * (1.0 + 1e-9), side="right")
    counts = np.maximum(stop - np.arange(1, n + 1), 0)   # empty when radius <= 0
    # sorted node a is paired with the counts[a] nodes that follow it
    a = np.repeat(np.arange(n), counts)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[a], order[b]
    dist = np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1))
    mask = dist < radius
    e = np.column_stack([i[mask], j[mask]])
    w = np.exp(-dist[mask]) if weighted else None
    return Graph(n, e, weights=w)


def _random_geometric(params, rng):
    n, radius = int(params["n"]), float(params["radius"])
    weighted = bool(params.get("weighted", False))
    pos = rng.random((n, 2))
    return geometric_graph_from_positions(pos, radius, weighted)


def _community(params, rng):
    n = int(params["n"])
    k = int(params["n_communities"])
    p_intra, p_inter = float(params["p_intra"]), float(params["p_inter"])
    if not 1 <= k <= n:
        raise ValueError("n_communities must be in [1, n]")
    base, extra = divmod(n, k)
    sizes = [base + (1 if c < extra else 0) for c in range(k)]
    member = np.repeat(np.arange(k), sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = member[iu] == member[ju]
    prob = np.where(same, p_intra, p_inter)
    mask = rng.random(iu.size) < prob
    pairs = [np.column_stack([iu[mask], ju[mask]])]
    # chain of single bridges keeps consecutive communities attached
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for c in range(k - 1):
        u = int(rng.integers(starts[c], starts[c + 1]))
        v = int(rng.integers(starts[c + 1], starts[c + 2]))
        pairs.append(np.array([[u, v]]))
    # a bridge may repeat a drawn edge
    return Graph(n, np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0))


def _grid2d(params, rng):
    rows, cols = int(params["rows"]), int(params["cols"])
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return Graph(rows * cols, np.concatenate([right, down]))


def _small_world(params, rng):
    n = int(params["n"])
    k = int(params["ring_degree"])
    beta = float(params["rewire_prob"])
    if k % 2 or k < 2 or k >= n:
        raise ValueError("ring_degree must be even, >= 2 and < n")
    adj: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for i in range(n):
            adj[i].add((i + j) % n)
            adj[(i + j) % n].add(i)
    # Watts-Strogatz rewiring: each ring edge moves its far endpoint with prob beta
    for j in range(1, k // 2 + 1):
        for i in range(n):
            old = (i + j) % n
            if old not in adj[i]:
                continue
            if rng.random() < beta:
                if len(adj[i]) >= n - 1:
                    continue
                w = int(rng.integers(n))
                while w == i or w in adj[i]:
                    w = int(rng.integers(n))
                adj[i].discard(old)
                adj[old].discard(i)
                adj[i].add(w)
                adj[w].add(i)
    e = [(i, v) for i in range(n) for v in adj[i] if i < v]
    return Graph(n, np.asarray(e, dtype=np.int64).reshape(-1, 2))


def _cycle(params, rng):
    n = int(params["n"])
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    i = np.arange(n)
    return Graph(n, np.column_stack([i, (i + 1) % n]))


def _complete(params, rng):
    n = int(params["n"])
    iu, ju = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([iu, ju]))


_BUILDERS = {
    "erdos-renyi": (_erdos_renyi, {"n", "p_e"}),
    "random-geometric": (_random_geometric, {"n", "radius", "weighted"}),
    "community": (_community, {"n", "n_communities", "p_intra", "p_inter"}),
    "grid2d": (_grid2d, {"rows", "cols"}),
    "small-world": (_small_world, {"n", "ring_degree", "rewire_prob"}),
    "cycle": (_cycle, {"n"}),
    "complete": (_complete, {"n"}),
}
GENERATOR_KINDS = tuple(_BUILDERS)
# the kinds whose builders draw nothing, so their graphs do not depend on the seed
SEEDLESS_KINDS = ("grid2d", "cycle", "complete")


def generate(kind: str, params: dict, seed: int) -> Graph:
    """Build a random graph; identical (kind, params, seed) give identical graphs."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown graph kind {kind!r}, expected one of {GENERATOR_KINDS}")
    builder, allowed = _BUILDERS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameters for {kind}: {sorted(unknown)}")
    missing = sorted(allowed - set(params) - {"weighted"})  # the one optional parameter
    if missing:
        raise ValueError(f"missing parameter {', '.join(map(repr, missing))}")
    # a count such as "n": 40.7 is refused, not truncated
    for key in ("n", "n_communities", "rows", "cols", "ring_degree"):
        if key in params:
            check_int(key, params[key])
    if "weighted" in params and not isinstance(params["weighted"], (bool, np.bool_)):
        raise ValueError(f"weighted must be true or false, got {params['weighted']!r}")
    for key in ("p_e", "p_intra", "p_inter", "rewire_prob", "radius"):
        if key in params and (isinstance(params[key], bool)
                              or not isinstance(params[key], numbers.Real)):
            raise ValueError(f"{key} must be a real number, got {params[key]!r}")
    for key in ("p_e", "p_intra", "p_inter", "rewire_prob"):
        if key in params and not 0.0 < float(params[key]) <= 1.0:
            raise ValueError(f"{key} must lie in (0, 1]")
    if "radius" in params and not 0.0 < float(params["radius"]) <= math.sqrt(2.0):
        raise ValueError("radius must lie in (0, sqrt(2)]")
    if "n" in params and int(params["n"]) < 1:
        raise ValueError("n must be >= 1")
    return builder(params, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# edge-list files
#
# Format: first non-comment line is the node count; each following line is
# "i j" or "i j w" with 0-based endpoints; '#' starts a comment line.

def load_edge_list(path) -> Graph:
    n = None
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    with open(path, errors="replace") as fh:  # a bad byte fails in the parser below
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if n is None:
                if len(tokens) != 1:
                    raise GraphFormatError(f"{path}:{lineno}: expected node count alone")
                try:
                    n = int(tokens[0])
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: node count is not an integer")
                if n < 0:
                    raise GraphFormatError(f"{path}:{lineno}: node count must be nonnegative")
                continue
            if len(tokens) not in (2, 3):
                raise GraphFormatError(f"{path}:{lineno}: expected 'i j' or 'i j w'")
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: endpoints must be integers")
            w = 1.0
            if len(tokens) == 3:
                try:
                    w = float(tokens[2])
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: weight is not a number")
                if not 0 < w < math.inf:
                    raise GraphFormatError(f"{path}:{lineno}: weight must be positive and finite")
            if i == j:
                raise GraphFormatError(f"{path}:{lineno}: self-loop {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"{path}:{lineno}: endpoint out of range for n={n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"{path}:{lineno}: duplicate edge {i} {j}")
            seen.add(key)
            pairs.append(key)
            weights.append(w)
    if n is None:
        raise GraphFormatError(f"{path}: missing node count line")
    return Graph(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                 weights=np.asarray(weights))


def save_edge_list(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n}\n")
        for (i, j), w in zip(graph.edges, graph.weights):
            if w == 1.0:
                fh.write(f"{i} {j}\n")
            else:
                fh.write(f"{i} {j} {float(w)!r}\n")
