"""Sparse signal synthesis and reconstruction from aggregated measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
    track_objective: bool = False

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    residuals, the objective and its trace are reported in the caller's units
    (``dual_residual`` is rho times the last change of z); ``rho`` is the final
    penalty of the normalised problem.

    At small n an iteration costs numpy call overhead rather than arithmetic,
    so the loop body is written with as few calls as give the same float64
    values as the textbook form (``tests/test_recon.py`` pins it byte for
    byte): norms are ``sqrt(a.dot(a))`` as in ``np.linalg.norm``, the soft
    threshold is ``max(w - t, 0) + min(w + t, 0)``, and the dual residual is
    only computed once the primal test passes, on a balancing iteration or on
    the last one.
    """
    if params is None:
        params = SolverParams()
    y = np.asarray(y, dtype=np.float64)
    _check_problem(op, basis, y)
    psi = op.phi @ basis.u
    n = psi.shape[1]
    pinv = pseudoinverse(psi)
    x_feas = pinv @ y
    scale = math.sqrt(x_feas.dot(x_feas)) or 1.0
    x_feas = x_feas / scale

    rho = params.rho
    thresh = 1.0 / rho
    tol_rel = params.tol_rel
    eps_abs = np.sqrt(n) * params.tol_abs
    rel_dual = tol_rel * rho
    max_iter = params.max_iter
    track = params.track_objective

    z = np.zeros(n)
    u = np.zeros(n)
    trace: list[float] = []
    converged = False
    iterations = 0
    r_norm = s_norm = float("nan")
    for it in range(1, max_iter + 1):
        v = z - u
        x = v - np.dot(pinv, np.dot(psi, v)) + x_feas
        z_prev = z
        w = x + u
        z = np.maximum(w - thresh, 0.0) + np.minimum(w + thresh, 0.0)
        u = w - z
        iterations = it
        if track:
            trace.append(float(np.abs(x).sum()))
        r = x - z
        r_norm = math.sqrt(r.dot(r))
        eps_pri = eps_abs + tol_rel * max(math.sqrt(x.dot(x)), math.sqrt(z.dot(z)))
        primal_ok = r_norm <= eps_pri
        balance = it % BALANCE_EVERY == 0
        if primal_ok or balance or it == max_iter:
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
    xhat = scale * x
    x_star = basis.u @ xhat
    stats = {"method": "bp", "iterations": iterations, "converged": converged,
             "primal_residual": scale * r_norm, "dual_residual": scale * s_norm,
             "objective": float(np.abs(xhat).sum()), "rho": rho}
    if track:
        stats["objective_trace"] = scale * np.asarray(trace)
    return ReconResult(x_star=x_star, xhat_star=xhat, solver_stats=stats)
