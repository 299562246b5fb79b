"""Sparse signal synthesis and reconstruction from aggregated measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from .graph import check_int, check_real
from .spectral import OrthoBasis, _pinv_rank

SIGNAL_MODELS = ("bandlimited", "random-support")

PERFECT_DB = -40.0
FLOOR_DB = -400.0


@dataclass(frozen=True, eq=False)
class SparseSignalSpec:
    """Support of a signal sparse in some orthonormal basis, and the seed from
    which ``realized_coefficients`` draws its coefficients."""

    support: np.ndarray
    seed: int

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        s = _support_indices(self.support)
        if s.size == 0:
            raise ValueError("support must be nonempty")
        if s.min() < 0:
            raise ValueError(f"support index {int(s.min())} is negative")
        if np.unique(s).size != s.size:
            raise ValueError("support indices must be distinct")
        s = np.sort(s)
        s.setflags(write=False)
        object.__setattr__(self, "support", s)

    @property
    def k(self) -> int:
        return int(self.support.size)

    @classmethod
    def draw(cls, n: int, k: int, model: str, seed: int) -> "SparseSignalSpec":
        """Random spec: the first k indices when bandlimited, else k random ones."""
        check_int("seed", seed, 0)   # before the support is drawn from it
        check_int("k", k)
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if model == "bandlimited":
            support = np.arange(k)
        elif model == "random-support":
            support = np.sort(np.random.default_rng(seed).choice(n, size=k,
                                                                 replace=False))
        else:
            raise ValueError(f"model must be one of {SIGNAL_MODELS}")
        return cls(support=support, seed=seed)


def realized_coefficients(spec: SparseSignalSpec) -> np.ndarray:
    """Unit-norm coefficients on the support, drawn from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    c = rng.standard_normal(spec.k)
    return c / np.linalg.norm(c)


def synthesize(basis: OrthoBasis, spec: SparseSignalSpec) -> np.ndarray:
    """Node-domain signal whose transform is supported on spec.support."""
    if spec.support[-1] >= basis.n:
        raise ValueError("support index exceeds basis size")
    return basis.u[:, spec.support] @ realized_coefficients(spec)


def to_db(linear: float) -> float:
    """Decibel value of a linear mean squared error, floored at -400 dB."""
    if linear <= 0.0:
        return FLOOR_DB
    return max(10.0 * float(np.log10(linear)), FLOOR_DB)


def mse_db(x_star: np.ndarray, x: np.ndarray) -> float:
    """Mean squared error in decibels, floored at -400 dB."""
    x_star = np.asarray(x_star, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_star.shape != x.shape:
        raise ValueError("vectors must have the same shape")
    return to_db(float(np.mean((x_star - x) ** 2)))


@dataclass(eq=False)
class ReconResult:
    x_star: np.ndarray
    xhat_star: np.ndarray
    mse_db: float | None = None
    perfect: bool | None = None
    solver_stats: dict = field(default_factory=dict)

    def scored(self, x_true: np.ndarray) -> "ReconResult":
        """Copy with error metrics filled in against the true signal."""
        val = mse_db(self.x_star, x_true)
        return replace(self, mse_db=val, perfect=bool(val < PERFECT_DB))


def _check_problem(op, basis: OrthoBasis, y: np.ndarray) -> None:
    """Reject measurements and operators that no recovery can use."""
    if op.n != basis.n:
        raise ValueError(f"operator has {op.n} columns but the basis has {basis.n} nodes")
    if y.shape != (op.m,):
        raise ValueError(f"measurements must have shape ({op.m},)")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite (found NaN or inf)")


def _support_indices(support) -> np.ndarray:
    """The support as a new 1-D int64 array, refusing an entry that is not an
    integer (a float or a bool) by name rather than truncating it."""
    s = np.asarray(support)
    if s.ndim != 1:
        raise ValueError(f"support must be 1-D, got shape {s.shape}")
    if not (isinstance(support, np.ndarray) and s.dtype.kind in "iu"):
        for v in np.asarray(support, dtype=object):   # a list may mix bools into ints
            check_int("support index", v)
    return s.astype(np.int64)


def check_support(support, n: int) -> np.ndarray:
    """Support indices as int64, refusing non-integer, negative, repeated and >= n ones."""
    support = _support_indices(support)
    bad = support[(support < 0) | (support >= n)]
    if bad.size:
        raise ValueError(f"support index {int(bad[0])} is outside 0..{n - 1}")
    if np.unique(support).size != support.size:
        raise ValueError("support indices must be distinct")
    return support


def ls_known_support(op, basis: OrthoBasis, support, y: np.ndarray) -> ReconResult:
    """Least-squares coefficients on a known support via the pseudoinverse."""
    y = np.asarray(y, dtype=np.float64)
    _check_problem(op, basis, y)
    support = check_support(support, basis.n)
    psi_s = op.phi @ basis.u[:, support]
    pinv, rank = _pinv_rank(psi_s)
    coef = pinv @ y
    xhat = np.zeros(basis.n)
    xhat[support] = coef
    x_star = basis.u[:, support] @ coef
    stats = {"method": "ls", "rank": rank,
             "rank_deficient": bool(rank < support.size)}
    return ReconResult(x_star=x_star, xhat_star=xhat, solver_stats=stats)


# residual balancing (Boyd et al. 2011, section 3.4.1): the penalty starts at
# RHO_START, and every BALANCE_EVERY-th iteration it moves by a factor
# BALANCE_TAU when one residual exceeds BALANCE_MU times the other
RHO_START = 1.0
BALANCE_EVERY = 10
BALANCE_MU = 10.0
BALANCE_TAU = 2.0

# crossover (Megiddo 1991): at iteration CROSSOVER_START and every
# CROSSOVER_EVERY iterations after it, a bounded primal simplex runs from the
# ADMM iterate (see _simplex_finish).  It makes at most CROSSOVER_BUDGET pivots
# per row of psi and refactors its basis every CROSSOVER_REFACTOR pivots.  A
# basis is regular when its smallest LU pivot exceeds CROSSOVER_PIVOT times the
# largest, and its vertex x is returned when ||psi x - y|| <= CROSSOVER_FEAS
# ||y||, ||psi^T nu||_inf <= 1 + CROSSOVER_DUAL and ||x||_1 - y^T nu <=
# CROSSOVER_GAP ||x||_1
CROSSOVER_START = 300
CROSSOVER_EVERY = 300
CROSSOVER_BUDGET = 2.0
CROSSOVER_REFACTOR = 50
CROSSOVER_PIVOT = 1e-12
CROSSOVER_FEAS = 1e-9
CROSSOVER_DUAL = 1e-10
CROSSOVER_GAP = 1e-9

# set-up: the largest ||psi||_F ||pinv||_F and ||psi pinv - I||_F at which the
# Cholesky pseudoinverse is used (see _bp_pinv)
CHOLESKY_BOUND = 8192.0
CHOLESKY_RESIDUAL = 1e-6


@dataclass(frozen=True)
class SolverParams:
    """Operator-splitting settings for the equality-constrained l1 problem.

    The penalty starts at ``RHO_START``, rebalanced by ``BALANCE_*`` as the
    solver runs.  The tolerances apply to the problem divided by the norm of
    its minimum-norm feasible point, so they are relative to the signal's scale.
    """

    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    max_iter: int = 50_000

    def __post_init__(self):
        for name in ("tol_abs", "tol_rel"):
            check_real(name, getattr(self, name), positive=True)
        check_int("max_iter", self.max_iter, 1)


def _bp_pinv(psi: np.ndarray):
    """(pinv, rank, setup) of psi: its pseudoinverse, its rank under
    ``spectral._rank_cut`` and the path that gave them, "cholesky" or "svd".

    For m <= n the pseudoinverse of a full-row-rank psi is psi^T (psi psi^T)^-1:
    LAPACK's potrf factors G = psi psi^T, potrs solves G X = psi, and pinv =
    X^T.  That is an m x m factorization in place of an m x n SVD.  It is
    taken, with rank m, only when potrf succeeds and, as computed, b =
    ||psi||_F ||X||_F <= ``CHOLESKY_BOUND`` = 2**13 (false for a non-finite
    X) and e = ||psi pinv - I||_F <= ``CHOLESKY_RESIDUAL``.  With u = 2**-53:

    - the exact R = psi pinv - I differs from the computed one by at most
      about n u b, so ||R||_2 < 1/2 for n below 2**38: psi pinv = I + R is
      invertible and psi has rank m;
    - sigma_m(psi) >= sigma_m(psi pinv) / ||pinv||_2 >= (1 - ||R||_2) / ||X||_F
      and sigma_1(psi) <= ||psi||_F, so the condition number kappa of psi is
      below 2 b <= 2**14;
    - ``_rank_cut`` is max(m, n) sigma_1 2**-45, below sigma_m while max(m,
      n) < 2**31, by a margin far beyond the SVD's own rounding (about n u
      sigma_1): ``_pinv_rank`` would find rank m too;
    - the normal equations err by about kappa**2 u relative to the SVD's
      pseudoinverse, at most about 2**-25 and near 1e-15 for kappa near 1;
      they leave e near the same size, far below ``CHOLESKY_RESIDUAL``, and
      a projection x = v - pinv psi v + x_feas meets the measurements to
      psi x - y = -R (psi v - y), within e of the gap it starts from.

    The test of e is what proves the rank: a rank-deficient psi (a row that
    combines others) can pass potrf on rounding and give a moderate b, but
    not a small e.  Every other case (m > n, no rows, a non-finite ||psi||_F,
    potrf failing on a zero or repeated row, either test failing) takes
    ``_pinv_rank``'s SVD, which refuses an empty or non-finite psi.
    """
    m, n = psi.shape
    flat = psi.ravel()
    frob = math.sqrt(flat.dot(flat))
    if 0 < m <= n and math.isfinite(frob):
        c, info = dpotrf(psi.dot(psi.T))
        if info == 0:
            x = dpotrs(c, psi)[0]
            if frob * np.linalg.norm(x) <= CHOLESKY_BOUND:
                pinv = x.T
                r = psi.dot(pinv)
                r.flat[::m + 1] -= 1.0
                if np.linalg.norm(r) <= CHOLESKY_RESIDUAL:
                    return pinv, m, "cholesky"
    pinv, rank = _pinv_rank(psi)
    return pinv, rank, "svd"


def _factor(psi_s: np.ndarray):
    """LAPACK's LU of psi_s (``lu_factor`` without its singular-matrix warning),
    or None when psi_s is singular by its pivots."""
    lu, piv, info = dgetrf(psi_s)
    pivots = np.abs(lu.diagonal())
    if info != 0 or pivots.min() <= CROSSOVER_PIVOT * pivots.max():
        return None
    return lu, piv


def _independent_columns(psi: np.ndarray, order: np.ndarray):
    """Sorted indices of the first m columns of psi, taken in ``order``, that
    are linearly independent, or None if fewer exist.

    A column is kept when its part orthogonal to the kept ones (classical
    Gram-Schmidt, repeated when it cancels by more than half) exceeds 1e-6
    times the largest column norm of psi.
    """
    m = psi.shape[0]
    q = np.empty((m, m))      # rows: orthonormal basis of the kept columns
    sizes = np.linalg.norm(psi, axis=0)
    floor = 1e-6 * sizes.max()
    chosen = []
    for j in order.tolist():
        col = psi[:, j]
        r = len(chosen)
        p = col - q[:r].dot(col).dot(q[:r])
        norm = math.sqrt(p.dot(p))
        if norm < 0.5 * sizes[j]:
            p -= q[:r].dot(p).dot(q[:r])
            norm = math.sqrt(p.dot(p))
        if norm > floor:
            q[r] = p / norm
            chosen.append(j)
            if r + 1 == m:
                return np.sort(np.array(chosen))
    return None


def _simplex_finish(psi: np.ndarray, y: np.ndarray, x: np.ndarray):
    """(vertex, pivots) of one crossover attempt from the iterate x.

    Basis pursuit is the LP min ||x||_1 s.t. psi x = y.  A basis is a set S of
    m atoms with signs sigma; its vertex is x_S = c with psi_S c = y, zero
    elsewhere, and its dual nu solves psi_S^T nu = sigma.  With sigma =
    sign(c) every regular basis is primal feasible, so no phase 1 is needed.
    The vertex is optimal when ||psi^T nu||_inf <= 1 (the KKT conditions).

    The start is S = the sorted indices of the m largest |x|, ties going to
    the larger index; when psi_S is singular, S is instead the first m
    independent columns in that order of |x|.  Each pivot prices g = psi^T nu,
    enters the nonbasic atom with the largest |g| > 1 (with sign sign(g)) and
    removes, by the ratio test, a basic atom whose |c| shrinks to zero first,
    taking among near ties the largest pivot element.  psi_S^-1 is kept by
    rank-1 updates and refactored every ``CROSSOVER_REFACTOR`` pivots.  Once
    no |g| exceeds 1 + ``CROSSOVER_DUAL``, psi_S is factored afresh and
    ``_certify`` solves c and nu again (a zero basic keeps the simplex's sign).

    ``vertex`` is ``(x_vertex, ||psi x_vertex - y||)`` when that vertex passes
    the certificate, else None: m > n, no regular start, a singular basis, an
    unbounded ratio test, a spent budget of ``CROSSOVER_BUDGET * m`` pivots or
    a failed certificate.  ``pivots`` is the number made.  x is not modified.
    """
    m, n = psi.shape
    if m > n:
        return None, 0
    ranked = np.argsort(np.abs(x), kind="stable")
    s = np.sort(ranked[n - m:])
    lu = _factor(psi[:, s])
    if lu is None:
        s = _independent_columns(psi, ranked[::-1])
        lu = None if s is None else _factor(psi[:, s])
        if lu is None:
            return None, 0
    c = dgetrs(*lu, y)[0]
    sigma = np.where(c < 0.0, -1.0, 1.0)
    nu = dgetrs(*lu, sigma, trans=1)[0]
    # psi_S^-1 is the inverse of the last factored basis minus the rank-1
    # terms outer(ut[i], vt[i]), i < k, of the k pivots made since
    ut = np.empty((CROSSOVER_REFACTOR, m))
    vt = np.empty((CROSSOVER_REFACTOR, m))
    k = pivots = 0
    budget = int(CROSSOVER_BUDGET * m)
    while True:
        g = psi.T.dot(nu)
        g[s] = 0.0
        j = int(np.argmax(np.abs(g)))
        if abs(g[j]) <= 1.0 + CROSSOVER_DUAL:
            break
        if pivots == budget:
            return None, pivots
        sign = 1.0 if g[j] > 0.0 else -1.0
        col = psi[:, j]
        w = dgetrs(*lu, col)[0] - vt[:k].dot(col).dot(ut[:k])
        alpha = sign * sigma * w
        cand = np.flatnonzero(alpha > 1e-9 * np.abs(alpha).max())
        if cand.size == 0:
            return None, pivots
        # Harris's two-pass ratio test: the largest pivot among near ties
        beta = np.maximum(sigma[cand] * c[cand], 0.0)
        bound = ((beta + 1e-12) / alpha[cand]).min()
        near = cand[beta / alpha[cand] <= bound]
        out = int(near[np.argmax(alpha[near])])
        e_out = np.zeros(m)
        e_out[out] = 1.0
        row = (dgetrs(*lu, e_out, trans=1)[0] - ut[:k, out].dot(vt[:k])) / w[out]
        # the new inverse is the old one minus outer(w - e_out, row), and row
        # is its row ``out``
        step = c[out] / w[out]
        w[out] -= 1.0
        c -= step * w
        nu += (sign - g[j]) * row
        ut[k] = w
        vt[k] = row
        k += 1
        s[out] = j
        sigma[out] = sign
        pivots += 1
        if k == CROSSOVER_REFACTOR:
            lu = _factor(psi[:, s])
            if lu is None:
                return None, pivots
            c = dgetrs(*lu, y)[0]
            nu = dgetrs(*lu, sigma, trans=1)[0]
            k = 0
    if k:
        lu = _factor(psi[:, s])
        if lu is None:
            return None, pivots
    certified = _certify(psi, y, s, sigma, lu)
    if certified is None:
        return None, pivots
    vertex = 0.0 * x     # zeros signed like x: bp_l1(-y) is -bp_l1(y) bit for bit
    vertex[s] = certified[0]
    return (vertex, certified[1]), pivots


def _certify(psi: np.ndarray, y: np.ndarray, s: np.ndarray, sigma: np.ndarray, lu):
    """(c, ||psi_S c - y||) when the basis S with signs sigma, factored as
    ``lu``, passes the KKT certificate, else None.

    c solves psi_S c = y and nu solves psi_S^T nu = sigma.  The vertex (c on
    S) must meet y to ``CROSSOVER_FEAS``, nu / (1 + ``CROSSOVER_DUAL``) must
    be dual feasible, and the duality gap ||c||_1 - y^T nu must be at most
    ``CROSSOVER_GAP`` ||c||_1; then no feasible point has a smaller l1 norm
    by more than those tolerances allow.
    """
    c = dgetrs(*lu, y)[0]
    r = psi[:, s].dot(c) - y
    r_norm = math.sqrt(r.dot(r))
    if r_norm > CROSSOVER_FEAS * math.sqrt(y.dot(y)):
        return None
    nu = dgetrs(*lu, sigma, trans=1)[0]
    l1 = np.abs(c).sum()
    if (not np.isfinite(nu).all() or np.abs(psi.T.dot(nu)).max() > 1.0 + CROSSOVER_DUAL
            or l1 - y.dot(nu) > CROSSOVER_GAP * l1):
        return None
    return c, r_norm


def bp_l1(op, basis: OrthoBasis, y: np.ndarray,
          params: SolverParams | None = None) -> ReconResult:
    """Minimum-l1 coefficients subject to matching the measurements.

    Alternates projection onto the affine feasible set with soft thresholding
    (scaled dual updates in between).  The returned coefficient vector is the
    projection-side iterate, so it satisfies the measurement constraint to
    machine precision whenever the system is consistent.

    The iteration runs on the problem divided by ``scale``, the norm of the
    minimum-norm feasible point (1 when that is 0), so ``bp_l1(c * y)`` is
    ``c * bp_l1(y)``: bit for bit when c is a power of two.  Every
    ``BALANCE_EVERY``-th iteration rebalances the penalty rho (from
    ``RHO_START``) against the two residuals and rescales the scaled dual u to
    match.  The estimate, the residuals and the objective are reported in the
    caller's units (``dual_residual`` is rho times the last change of z);
    ``rho`` is the final penalty of the normalised problem.

    When psi has full row rank, at iteration ``CROSSOVER_START`` and every
    ``CROSSOVER_EVERY`` iterations after it, a crossover runs
    (``_simplex_finish``): a few primal simplex pivots from the basis of the m
    largest |x|, and if a KKT certificate proves the vertex they reach
    optimal, the solve stops there.  An attempt that fails leaves the iterates
    as they were.  A certified solve reports ``certified`` and ``converged``
    True, the vertex as its estimate, the vertex's ``||psi x - y||`` as
    ``primal_residual`` and the ADMM dual residual of that iteration.
    ``pivots`` counts the simplex pivots of all the solve's attempts (0 when
    none ran), and ``setup`` names how the pseudoinverse of psi was computed
    (``_bp_pinv``): "cholesky" or, as a fallback, "svd".

    At small n an iteration costs numpy call overhead rather than arithmetic,
    so the loop body is written with as few calls as give the same float64
    values as the textbook form (``tests/test_recon.py`` pins it byte for
    byte): the soft threshold is ``w - min(max(w, -t), t)``, which has the bits
    of ``max(w - t, 0) + min(w + t, 0)``; norms are ``sqrt(a.dot(a))`` as in
    ``np.linalg.norm``, with one square root for the larger of ``|x|`` and
    ``|z|``; the products go through the bound ``dot`` of each matrix; and the
    dual residual is only computed once the primal test passes, on a balancing
    or crossover iteration or on the last one.
    """
    if params is None:
        params = SolverParams()
    y = np.asarray(y, dtype=np.float64)
    _check_problem(op, basis, y)
    psi = op.phi @ basis.u
    pinv, rank, setup = _bp_pinv(psi)
    x_feas = pinv @ y
    scale = math.sqrt(x_feas.dot(x_feas)) or 1.0
    x_feas = x_feas / scale
    y = y / scale
    m, n = psi.shape
    # below rank m no m columns of psi are independent, so no simplex basis is
    # regular and _simplex_finish could only fail: no crossover is attempted
    next_check = CROSSOVER_START if rank == m else 0
    psi_dot = psi.dot
    pinv_dot = pinv.dot
    maximum = np.maximum
    minimum = np.minimum

    rho = RHO_START
    thresh = 1.0 / rho
    tol_rel = params.tol_rel
    eps_abs = np.sqrt(n) * params.tol_abs
    rel_dual = tol_rel * rho
    max_iter = params.max_iter

    z = np.zeros(n)
    u = np.zeros(n)
    converged = False
    vertex = None
    pivots = iterations = 0
    r_norm = s_norm = float("nan")
    for it in range(1, max_iter + 1):
        v = z - u
        x = v - pinv_dot(psi_dot(v)) + x_feas
        z_prev = z
        w = x + u
        z = w - minimum(maximum(w, -thresh), thresh)
        u = w - z
        iterations = it
        r = x - z
        r_norm = math.sqrt(r.dot(r))
        eps_pri = eps_abs + tol_rel * math.sqrt(max(x.dot(x), z.dot(z)))
        primal_ok = r_norm <= eps_pri
        balance = it % BALANCE_EVERY == 0
        crossover = it == next_check
        if primal_ok or balance or crossover or it == max_iter:
            dz = z - z_prev
            s_norm = rho * math.sqrt(dz.dot(dz))
            if primal_ok and s_norm <= eps_abs + rel_dual * math.sqrt(u.dot(u)):
                converged = True
                break
            if balance and r_norm > BALANCE_MU * s_norm:
                rho *= BALANCE_TAU
                u = u / BALANCE_TAU
            elif balance and s_norm > BALANCE_MU * r_norm:
                rho /= BALANCE_TAU
                u = u * BALANCE_TAU
            thresh = 1.0 / rho
            rel_dual = tol_rel * rho
        if crossover:
            vertex, spent = _simplex_finish(psi, y, x)
            pivots += spent
            if vertex is not None:
                x, r_norm = vertex
                converged = True
                break
            next_check += CROSSOVER_EVERY
    xhat = scale * x
    stats = {"method": "bp", "iterations": iterations, "converged": converged,
             "certified": vertex is not None, "primal_residual": scale * r_norm,
             "dual_residual": scale * s_norm, "objective": float(np.abs(xhat).sum()),
             "rho": rho, "pivots": pivots, "setup": setup}
    return ReconResult(x_star=basis.u @ xhat, xhat_star=xhat, solver_stats=stats)

