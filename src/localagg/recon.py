"""Sparse signal synthesis and reconstruction from aggregated measurements."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .spectral import OrthoBasis, numerical_rank, pseudoinverse

SIGNAL_MODELS = ("bandlimited", "random-support")

PERFECT_DB = -40.0
FLOOR_DB = -400.0


@dataclass(frozen=True, eq=False)
class SparseSignalSpec:
    """Support and coefficients of a signal sparse in some orthonormal basis.

    ``coefficients`` may be None, in which case synthesis draws a standard
    normal vector on the support and normalizes it to unit length using
    ``seed``.
    """

    support: np.ndarray
    coefficients: np.ndarray | None = None
    model: str = "random-support"
    seed: int | None = None

    def __post_init__(self):
        s = np.array(self.support, dtype=np.int64, copy=True)
        if s.size == 0:
            raise ValueError("support must be nonempty")
        if np.unique(s).size != s.size:
            raise ValueError("support indices must be distinct")
        s = np.sort(s)
        if self.model not in SIGNAL_MODELS:
            raise ValueError(f"model must be one of {SIGNAL_MODELS}")
        if self.model == "bandlimited" and not np.array_equal(s, np.arange(s.size)):
            raise ValueError("bandlimited support must be the first k indices")
        s.setflags(write=False)
        object.__setattr__(self, "support", s)
        if self.coefficients is not None:
            c = np.array(self.coefficients, dtype=np.float64, copy=True)
            if c.shape != (s.size,):
                raise ValueError("coefficients must match the support size")
            c.setflags(write=False)
            object.__setattr__(self, "coefficients", c)

    @property
    def k(self) -> int:
        return int(self.support.size)

    @classmethod
    def draw(cls, n: int, k: int, model: str, seed: int) -> "SparseSignalSpec":
        """Random spec: the first k indices when bandlimited, else k random ones."""
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if model == "bandlimited":
            support = np.arange(k)
        elif model == "random-support":
            support = np.sort(np.random.default_rng(seed).choice(n, size=k,
                                                                 replace=False))
        else:
            raise ValueError(f"model must be one of {SIGNAL_MODELS}")
        return cls(support=support, model=model, seed=seed)


def realized_coefficients(spec: SparseSignalSpec) -> np.ndarray:
    """Coefficient values on the support, drawing and normalizing if needed."""
    if spec.coefficients is not None:
        return np.asarray(spec.coefficients)
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


def check_support(support, n: int) -> np.ndarray:
    """Support indices as int64, refusing negative, repeated and >= n ones."""
    support = np.asarray(support, dtype=np.int64)
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
    rank = numerical_rank(psi_s)
    coef = pseudoinverse(psi_s) @ y
    xhat = np.zeros(basis.n)
    xhat[support] = coef
    x_star = basis.u[:, support] @ coef
    stats = {"method": "ls", "rank": rank,
             "rank_deficient": bool(rank < support.size)}
    return ReconResult(x_star=x_star, xhat_star=xhat, solver_stats=stats)


# residual balancing (Boyd et al. 2011, section 3.4.1): every BALANCE_EVERY-th
# iteration the penalty moves by a factor BALANCE_TAU when one residual exceeds
# BALANCE_MU times the other
BALANCE_EVERY = 10
BALANCE_MU = 10.0
BALANCE_TAU = 2.0

# crossover (Megiddo 1991): at iteration CROSSOVER_START and every
# CROSSOVER_EVERY iterations after it, a check tries to prove the vertex on the
# m largest |x| optimal (see _crossover).  The proof needs the smallest LU pivot
# above CROSSOVER_PIVOT times the largest, ||psi x - y|| <= CROSSOVER_FEAS ||y||
# and ||psi^T nu||_inf <= 1 + CROSSOVER_DUAL
CROSSOVER_START = 200
CROSSOVER_EVERY = 25
CROSSOVER_PIVOT = 1e-12
CROSSOVER_FEAS = 1e-9
CROSSOVER_DUAL = 1e-10


def check_int(name: str, value, minimum: int | None = None, error=ValueError) -> None:
    """Raise ``error`` unless value is an integer (not a bool), >= minimum if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class SolverParams:
    """Operator-splitting settings for the equality-constrained l1 problem.

    ``rho`` is the starting penalty; the solver rebalances it as it runs.  The
    tolerances apply to the problem divided by the norm of its minimum-norm
    feasible point, so they are relative to the signal's scale.
    """

    rho: float = 1.0
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    max_iter: int = 50_000

    def __post_init__(self):
        for name in ("rho", "tol_abs", "tol_rel"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        check_int("max_iter", self.max_iter, 1)


def _bp_setup(op, basis: OrthoBasis, y):
    """(psi, pinv, x_feas, y, scale) of one l1 problem, x_feas and y divided by scale."""
    y = np.asarray(y, dtype=np.float64)
    _check_problem(op, basis, y)
    psi = op.phi @ basis.u
    pinv = pseudoinverse(psi)
    x_feas = pinv @ y
    scale = math.sqrt(x_feas.dot(x_feas)) or 1.0
    return psi, pinv, x_feas / scale, y / scale, scale


# the state of a solve before its first crossover check: no S seen or factored
_FIRST_CHECK = (b"", frozenset())


def _crossover(psi: np.ndarray, y: np.ndarray, x: np.ndarray, last):
    """(check, vertex) of one crossover check at the iterate x.

    Below the recovery transition the l1 optimum is a vertex: x_S = c with
    psi_S c = y on m atoms S, zero elsewhere.  It is optimal when a dual nu
    with psi_S^T nu = sign(c) has ||psi^T nu||_inf <= 1 (the KKT conditions of
    basis pursuit).  S is the sorted indices of the m largest |x|, ties going
    to the larger index.  An S equal to the previous check's is factored once
    per solve, with LAPACK's getrf (``lu_factor`` without its singular-matrix
    warning), and both systems are solved with that one LU.

    ``last`` is the solve's previous check, ``_FIRST_CHECK`` before the first.
    ``check`` is ``(bytes of S, frozenset of the bytes of every S factored)``,
    or None when no later check of the solve can succeed: m > n, or a factored
    psi_S was singular by its pivots, which marks a degenerate LP whose
    optimum has fewer than m atoms.  ``vertex`` is ``(x_vertex,
    ||psi x_vertex - y||)`` when the certificate holds to the ``CROSSOVER_*``
    tolerances, else None.
    """
    m, n = psi.shape
    if m > n:
        return None, None
    s = np.sort(np.argsort(np.abs(x), kind="stable")[n - m:])
    key = s.tobytes()
    previous, factored = last
    if key != previous or key in factored:
        return (key, factored), None
    check = (key, factored | {key})
    psi_s = psi[:, s]
    lu, piv, info = dgetrf(psi_s)
    pivots = np.abs(lu.diagonal())
    if info != 0 or pivots.min() <= CROSSOVER_PIVOT * pivots.max():
        return None, None
    c = dgetrs(lu, piv, y)[0]
    r = psi_s.dot(c) - y
    r_norm = math.sqrt(r.dot(r))
    if r_norm > CROSSOVER_FEAS * math.sqrt(y.dot(y)):
        return check, None
    nu = dgetrs(lu, piv, np.sign(c), trans=1)[0]
    if not np.isfinite(nu).all() or np.abs(psi.T.dot(nu)).max() > 1.0 + CROSSOVER_DUAL:
        return check, None
    vertex = np.zeros(n)
    vertex[s] = c
    return check, (vertex, r_norm)


def _bp_result(basis: OrthoBasis, scale: float, x: np.ndarray, iterations: int,
               converged: bool, certified: bool, r_norm: float, s_norm: float,
               rho: float) -> ReconResult:
    """The finished solve of the normalised problem, in the caller's units."""
    xhat = scale * x
    stats = {"method": "bp", "iterations": iterations, "converged": converged,
             "certified": certified, "primal_residual": scale * r_norm,
             "dual_residual": scale * s_norm, "objective": float(np.abs(xhat).sum()),
             "rho": rho}
    return ReconResult(x_star=basis.u @ xhat, xhat_star=xhat, solver_stats=stats)


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
    ``BALANCE_EVERY``-th iteration rebalances the penalty rho against the two
    residuals and rescales the scaled dual u to match.  The estimate, the
    residuals and the objective are reported in the caller's units
    (``dual_residual`` is rho times the last change of z); ``rho`` is the final
    penalty of the normalised problem.

    At iteration ``CROSSOVER_START`` and every ``CROSSOVER_EVERY`` iterations
    after it, a crossover check runs (``_crossover``): once the m largest |x|
    repeat from one check to the next, the LP vertex on them is factored (once
    per solve), and if a dual certificate proves it optimal the solve stops
    there.  A singular vertex ends the checks of the solve, which then runs
    as before.  A certified solve reports ``certified`` and ``converged`` True, the
    vertex as its estimate, the vertex's ``||psi x - y||`` as
    ``primal_residual`` and the ADMM dual residual of that iteration.

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
    psi, pinv, x_feas, y, scale = _bp_setup(op, basis, y)
    n = psi.shape[1]
    psi_dot = psi.dot
    pinv_dot = pinv.dot
    maximum = np.maximum
    minimum = np.minimum

    rho = float(params.rho)
    thresh = 1.0 / rho
    tol_rel = params.tol_rel
    eps_abs = np.sqrt(n) * params.tol_abs
    rel_dual = tol_rel * rho
    max_iter = params.max_iter

    z = np.zeros(n)
    u = np.zeros(n)
    converged = False
    next_check = CROSSOVER_START
    last_check, vertex = _FIRST_CHECK, None
    iterations = 0
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
            last_check, vertex = _crossover(psi, y, x, last_check)
            if vertex is not None:
                x, r_norm = vertex
                converged = True
                break
            if last_check is not None:
                next_check += CROSSOVER_EVERY
    return _bp_result(basis, scale, x, iterations, converged, vertex is not None,
                      r_norm, s_norm, rho)


# bytes of operator stacks (each problem's psi and its pseudoinverse, 16 m n)
# that bp_l1_many keeps in one block
BLOCK_BYTES = 1 << 22


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``a[i].dot(a[i])`` for every row, with the same BLAS dot and bits."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def bp_l1_many(problems, basis: OrthoBasis,
               params: SolverParams | None = None) -> list[ReconResult]:
    """``[bp_l1(op, basis, y, params) for op, y in problems]``, byte for byte.

    The operators must share one shape (m, n).  Up to
    ``BLOCK_BYTES // (16 m n)`` problems run the ``bp_l1`` iteration in
    lockstep as the rows of (B, n) arrays: the projections are ``np.matmul``
    over (B, m, n) and (B, n, m) stacks and the norms batched dots, which give
    each row the bits of ``bp_l1``'s ``ndarray.dot`` calls, and every row keeps
    its own penalty, iteration count and crossover checks.  A row that
    converges, is certified or reaches ``max_iter`` is recorded, and the next
    problem takes its slot, so a capped solve does not leave the block nearly
    empty; once the problems run out, finished rows leave the block.  Problems
    are read one by one as slots free up, so a generator of them holds at most
    one block of operators.
    """
    if params is None:
        params = SolverParams()
    tol_rel = params.tol_rel
    max_iter = params.max_iter
    pending = (_bp_setup(op, basis, y) for op, y in problems)
    first = next(pending, None)
    if first is None:
        return []
    m, n = first[0].shape

    def same_shape(setup):
        if setup[0].shape != (m, n):
            raise ValueError(f"operators must share one shape: {setup[0].shape} after {(m, n)}")
        return setup

    pending = map(same_shape, pending)
    block = [first, *itertools.islice(pending, max(1, BLOCK_BYTES // (16 * m * n)) - 1)]
    results: list = [None] * len(block)
    psi, pinv, x_feas, y = (np.stack([s[i] for s in block]) for i in range(4))
    scales = [s[4] for s in block]
    slot = list(range(len(block)))       # row -> index of its problem
    last_check = [_FIRST_CHECK] * len(block)     # row -> its previous crossover check
    b = len(block)
    z = np.zeros((b, n))
    u = np.zeros((b, n))
    rho = np.full(b, float(params.rho))
    its = np.zeros(b, dtype=np.int64)
    next_check = np.full(b, CROSSOVER_START)
    s_norm = np.full(b, np.nan)
    eps_abs = np.sqrt(n) * params.tol_abs
    while b:
        thresh = (1.0 / rho)[:, None]
        v = z - u
        x = v - np.matmul(pinv, np.matmul(psi, v[:, :, None]))[:, :, 0] + x_feas
        z_prev = z
        w = x + u
        z = w - np.minimum(np.maximum(w, -thresh), thresh)
        u = w - z
        its += 1
        r_norm = np.sqrt(_row_dots(x - z))
        eps_pri = eps_abs + tol_rel * np.sqrt(np.maximum(_row_dots(x), _row_dots(z)))
        primal_ok = r_norm <= eps_pri
        balance = its % BALANCE_EVERY == 0
        last = its == max_iter
        crossover = its == next_check
        check = primal_ok | balance | last | crossover
        if not check.any():
            continue
        s_norm = np.where(check, rho * np.sqrt(_row_dots(z - z_prev)), s_norm)
        converged = primal_ok & (s_norm <= eps_abs + tol_rel * rho * np.sqrt(_row_dots(u)))
        balance &= ~converged
        up = balance & (r_norm > BALANCE_MU * s_norm)
        down = balance & ~up & (s_norm > BALANCE_MU * r_norm)
        if up.any():
            rho[up] *= BALANCE_TAU
            u[up] /= BALANCE_TAU
        if down.any():
            rho[down] /= BALANCE_TAU
            u[down] *= BALANCE_TAU
        vertices = {}
        if crossover.any():
            for row in np.flatnonzero(crossover & ~converged).tolist():
                last_check[row], vertex = _crossover(psi[row], y[row], x[row], last_check[row])
                if vertex is not None:
                    vertices[row] = vertex
                    converged[row] = True
                elif last_check[row] is not None:
                    next_check[row] += CROSSOVER_EVERY
        finished = converged | last
        if not finished.any():
            continue
        for row in np.flatnonzero(finished).tolist():
            x_row, r_row = vertices.get(row, (x[row], float(r_norm[row])))
            results[slot[row]] = _bp_result(
                basis, scales[row], x_row, int(its[row]), bool(converged[row]),
                row in vertices, r_row, float(s_norm[row]), float(rho[row]))
            setup = next(pending, None)
            if setup is None:
                continue
            psi[row], pinv[row], x_feas[row], y[row], scales[row] = setup
            slot[row] = len(results)
            results.append(None)
            last_check[row] = _FIRST_CHECK
            z[row] = u[row] = 0.0
            rho[row] = params.rho
            its[row] = 0
            next_check[row] = CROSSOVER_START
            s_norm[row] = np.nan
            finished[row] = False
        if finished.any():
            keep = np.flatnonzero(~finished)
            psi, pinv, x_feas, y, z, u, rho, its, next_check, s_norm = (
                a[keep] for a in (psi, pinv, x_feas, y, z, u, rho, its, next_check, s_norm))
            scales, slot, last_check = ([seq[i] for i in keep.tolist()]
                                        for seq in (scales, slot, last_check))
            b = keep.size
    return results
