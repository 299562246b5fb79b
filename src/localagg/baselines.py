"""Reference samplers the aggregation scheme is compared against.

All of them return a SamplingOperator whose matrix plugs into the same
measure/reconstruction pipeline as the aggregation operators.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, check_int
from .sampler import SamplingOperator


def uniform_node_sampling(n: int, m: int, seed: int) -> SamplingOperator:
    """m distinct nodes chosen uniformly; rows are plain identity rows."""
    check_int("seed", seed, 0)
    check_int("m", m)
    check_int("n", n)
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n for sampling without replacement")
    rng = np.random.default_rng(seed)
    sel = rng.choice(n, size=m, replace=False)
    phi = np.zeros((m, n))
    phi[np.arange(m), sel] = 1.0
    return SamplingOperator._own(phi)


def successive_aggregations(graph: Graph, m: int) -> SamplingOperator:
    """One observation node reading powers of the adjacency applied to the signal.

    Row l is the observation node's row of A**l (binary adjacency), l = 0..m-1.
    The observation node is the highest-degree node, ties toward the lowest
    index.
    """
    check_int("m", m)
    if m < 1:
        raise ValueError("need m >= 1")
    node = int(np.argmax(graph.degrees))
    a = graph.adjacency.toarray()
    row = np.zeros(graph.n)
    row[node] = 1.0
    out = np.zeros((m, graph.n))
    for ell in range(m):
        out[ell] = row
        row = row @ a
    return SamplingOperator._own(out)
