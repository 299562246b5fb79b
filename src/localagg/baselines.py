"""Reference samplers the aggregation scheme is compared against.

All of them return a SamplingOperator whose matrix plugs into the same
measure/reconstruction pipeline as the aggregation operators.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .sampler import SamplingOperator
from .spectral import OrthoBasis, numerical_rank


def uniform_node_sampling(n: int, m: int, seed: int | None = None) -> SamplingOperator:
    """m distinct nodes chosen uniformly; rows are plain identity rows."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n for sampling without replacement")
    rng = np.random.default_rng(seed)
    sel = rng.choice(n, size=m, replace=False)
    phi = np.zeros((m, n))
    phi[np.arange(m), sel] = 1.0
    return SamplingOperator(phi=phi)


def weighted_node_sampling(basis: OrthoBasis, support, m: int,
                           seed: int | None = None) -> SamplingOperator:
    """Nodes drawn i.i.d. with probability proportional to their share of the
    support subspace energy; rows rescaled so the ensemble is isotropic there.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    support = np.asarray(support, dtype=np.int64)
    energy = (basis.u[:, support] ** 2).sum(axis=1)
    total = energy.sum()
    if total <= 0:
        raise ValueError("support subspace carries no energy on any node")
    p = energy / total
    rng = np.random.default_rng(seed)
    sel = rng.choice(basis.n, size=m, replace=True, p=p)
    phi = np.zeros((m, basis.n))
    phi[np.arange(m), sel] = 1.0 / np.sqrt(m * p[sel])
    return SamplingOperator(phi=phi)


def minpinv_greedy(basis: OrthoBasis, support, m: int) -> SamplingOperator:
    """Deterministic node selection minimizing the pseudoinverse norm.

    Rows of the basis restricted to the support are added one at a time:
    first maximizing the smallest singular value until the stack reaches full
    column rank, afterwards minimizing the squared Frobenius norm of the
    stack's pseudoinverse.  Ties break toward the lowest node index.
    """
    support = np.asarray(support, dtype=np.int64)
    n, k = basis.n, support.size
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n for node selection")
    rows = basis.u[:, support]
    selected: list[int] = []
    free = np.ones(n, dtype=bool)
    full_rank = False
    for _ in range(m):
        cand = np.flatnonzero(free)
        if not full_rank:
            best, best_score = -1, -np.inf
            for v in cand:
                stack = rows[selected + [int(v)], :]
                s = np.linalg.svd(stack, compute_uv=False)
                score = s[-1]
                if score > best_score:
                    best, best_score = int(v), float(score)
            selected.append(best)
            free[best] = False
            sub = rows[selected, :]
            if len(selected) >= k and numerical_rank(sub) == k:
                full_rank = True
                gram_inv = np.linalg.inv(sub.T @ sub)
        else:
            # adding row u changes trace((M'M')^-1) by -|Gu|^2 / (1 + u'Gu)
            w = rows[cand] @ gram_inv
            gain = (w ** 2).sum(axis=1) / (1.0 + (rows[cand] * w).sum(axis=1))
            best = int(cand[int(np.argmax(gain))])
            selected.append(best)
            free[best] = False
            sub = rows[selected, :]
            gram_inv = np.linalg.inv(sub.T @ sub)
    phi = np.zeros((m, n))
    phi[np.arange(m), selected] = 1.0
    return SamplingOperator(phi=phi)


def successive_aggregations(graph: Graph, node: int | None, m: int) -> SamplingOperator:
    """One observation node reading powers of the adjacency applied to the signal.

    Row l is the observation node's row of A**l (binary adjacency), l = 0..m-1.
    When ``node`` is None the highest-degree node is used, ties toward the
    lowest index.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if node is None:
        node = int(np.argmax(graph.degrees))
    if not 0 <= node < graph.n:
        raise ValueError("observation node out of range")
    a = graph.adjacency.toarray()
    row = np.zeros(graph.n)
    row[node] = 1.0
    out = np.zeros((m, graph.n))
    for ell in range(m):
        out[ell] = row
        row = row @ a
    return SamplingOperator(phi=out)
