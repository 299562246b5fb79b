"""Laplacians, orthonormal transform bases, coherence and SVD kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd

from .graph import Graph, closed_in_neighborhood

# relative singular-value cutoff used for rank decisions
RANK_RTOL = 2.0 ** -45

BASIS_TAGS = ("gft-normalized", "gft-combinatorial", "dct")


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Orthonormal columns of a transform; column k is the k-th atom."""

    u: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        u = np.array(self.u, dtype=np.float64, copy=True)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if self.eigenvalues is not None:
            ev = np.array(self.eigenvalues, dtype=np.float64, copy=True)
            ev.setflags(write=False)
            object.__setattr__(self, "eigenvalues", ev)

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class CoherenceReport:
    mu: float
    max_abs_entry: float
    max_closed_neighborhood: int


def laplacian(graph: Graph, normalized: bool = False) -> np.ndarray:
    """Dense Laplacian D - W, or its symmetric normalization.

    Isolated nodes get zero rows and columns in the normalized form.  Output
    is exactly symmetric.
    """
    n = graph.n
    lap = np.zeros((n, n))
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    lap[i, j] = graph.weights
    lap[j, i] = graph.weights
    d = lap.sum(axis=1)
    # 0 - w keeps the zeros +0.0, as D - W does
    np.subtract(0.0, lap, out=lap)
    lap[np.diag_indices(n)] = d
    if normalized:
        dinv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        lap *= dinv[:, None]
        lap *= dinv[None, :]
    out = lap + lap.T
    out /= 2.0
    return out


def _sign_fix(u: np.ndarray) -> None:
    """Make the first significant entry of every column positive, in place."""
    if u.size == 0:
        return
    big = 1e-8 * np.maximum(np.maximum(u.max(axis=0, initial=0.0),
                                       -u.min(axis=0, initial=0.0)), 1e-300)
    first = np.argmax((u > big) | (u < -big), axis=0)
    np.negative(u, out=u, where=u[first, np.arange(u.shape[1])] < 0)


def _canonical_subspace_basis(v: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(v), independent of the input basis.

    Projects canonical unit vectors onto the subspace in index order and runs
    modified Gram-Schmidt with reorthogonalization, so any eigensolver output
    spanning the same subspace yields the same result.  Row i projects to a
    vector of norm ||v[i]||, and the Gram-Schmidt steps only shrink it, so rows
    of norm at most half the pick threshold are skipped.
    """
    v = np.ascontiguousarray(v)
    n, c = v.shape
    picked: list[np.ndarray] = []
    for i in np.flatnonzero(np.linalg.norm(v, axis=1) > 0.5e-6):
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
        # fall back: complete with the leftover directions of v
        q = np.column_stack(picked) if picked else np.zeros((n, 0))
        resid = v - q @ (q.T @ v)
        uu, ss, _ = np.linalg.svd(resid, full_matrices=False)
        for t in range(c - len(picked)):
            picked.append(uu[:, t])
    return np.column_stack(picked)


def gft_basis(graph: Graph, normalized: bool = True) -> OrthoBasis:
    """Eigenvector basis of the (optionally normalized) Laplacian.

    Eigenvalues come out nondecreasing.  Within a numerically repeated
    eigenvalue cluster the eigenvectors are replaced by a deterministic
    orthonormal basis of the cluster subspace, and every column is sign-fixed,
    so the basis is reproducible across backends.
    """
    lap = laplacian(graph, normalized=normalized)
    # numpy's eigh runs this LAPACK routine too; here it works in place on the
    # (exactly symmetric) Laplacian, whose transpose is Fortran-ordered
    evals, evecs, info = dsyevd(lap.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalues did not converge (dsyevd info {info})")
    # C order: the BLAS kernels downstream, and so the result bits, follow the layout
    u = np.ascontiguousarray(evecs)
    del lap, evecs  # the Fortran-ordered vectors sit in the Laplacian's buffer
    scale = max(1.0, float(np.abs(evals).max())) if evals.size else 1.0
    tol = 1e-9 * scale
    start = 0
    for stop in range(1, len(evals) + 1):
        if stop == len(evals) or evals[stop] - evals[stop - 1] > tol:
            if stop - start > 1:
                u[:, start:stop] = _canonical_subspace_basis(u[:, start:stop])
            start = stop
    _sign_fix(u)
    return OrthoBasis(u=u, eigenvalues=evals)


def dct_basis(n: int) -> OrthoBasis:
    """Orthonormal DCT-II basis; column k oscillates at frequency k."""
    if n < 1:
        raise ValueError("basis size must be >= 1")
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    u = np.sqrt(2.0 / n) * np.cos(np.pi * (j + 0.5) * k / n)
    u[:, 0] = np.sqrt(1.0 / n)
    return OrthoBasis(u=u)


def build_basis(graph: Graph, tag: str) -> OrthoBasis:
    """The basis named by one of ``BASIS_TAGS`` for this graph."""
    if tag == "gft-normalized":
        return gft_basis(graph, normalized=True)
    if tag == "gft-combinatorial":
        return gft_basis(graph, normalized=False)
    if tag == "dct":
        return dct_basis(graph.n)
    raise ValueError(f"unknown basis {tag!r}, expected one of {BASIS_TAGS}")


def graph_basis_coherence(graph: Graph, sampling_nodes, basis: OrthoBasis) -> CoherenceReport:
    """Coherence of aggregated sampling against a basis.

    mu = min(sqrt(max closed-neighborhood size over the sampling nodes)
             * max |U|, 1).  The graph must be the one whose neighborhoods the
    measurements aggregate over.
    """
    nodes = np.unique(np.asarray(sampling_nodes, dtype=np.int64))
    if nodes.size == 0:
        raise ValueError("sampling set must be nonempty")
    if basis.n != graph.n:
        raise ValueError("basis size does not match graph")
    nstar = max(closed_in_neighborhood(graph, int(i)).size for i in nodes)
    umax = float(np.abs(basis.u).max())
    mu = min(np.sqrt(nstar) * umax, 1.0)
    return CoherenceReport(mu=float(mu), max_abs_entry=umax,
                           max_closed_neighborhood=int(nstar))


# ---------------------------------------------------------------------------
# SVD kernels

def _checked(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _rank_cut(shape, s: np.ndarray) -> float:
    return max(shape) * (s[0] if s.size else 0.0) * RANK_RTOL


def numerical_rank(a) -> int:
    """Number of singular values above max(rows, cols) * smax * 2**-45."""
    m = _checked(a)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > _rank_cut(m.shape, s)))


def condition_number(a) -> float:
    """Ratio of extreme singular values above the rank cutoff; inf for rank 0."""
    m = _checked(a)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return float("inf")
    kept = s[s > _rank_cut(m.shape, s)]
    return float(kept[0] / kept[-1])


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below the cutoff dropped."""
    m = _checked(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cut = _rank_cut(m.shape, s)
    inv = np.where(s > cut, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


# ---------------------------------------------------------------------------
# matrix files: comma-separated rows, 17 significant digits

def save_matrix_csv(path, a) -> None:
    m = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            row = []
            for tok in line.split(","):
                try:
                    row.append(float(tok))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: entry {tok.strip()!r} is not a number")
                if not math.isfinite(row[-1]):
                    raise ValueError(f"{path}:{lineno}: entry {tok.strip()!r} is not finite")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} entries "
                                 f"as on the first row, found {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return np.asarray(rows)
