"""Sparse signal synthesis and reconstruction from aggregated measurements."""

from __future__ import annotations

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


def ls_known_support(op, basis: OrthoBasis, support, y: np.ndarray) -> ReconResult:
    """Least-squares coefficients on a known support via the pseudoinverse."""
    support = np.asarray(support, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"measurements must have shape ({op.m},)")
    psi_s = op.phi @ basis.u[:, support]
    rank = numerical_rank(psi_s)
    coef = pseudoinverse(psi_s) @ y
    xhat = np.zeros(basis.n)
    xhat[support] = coef
    x_star = basis.u[:, support] @ coef
    stats = {"method": "ls", "rank": rank,
             "rank_deficient": bool(rank < support.size)}
    return ReconResult(x_star=x_star, xhat_star=xhat, solver_stats=stats)


@dataclass(frozen=True)
class SolverParams:
    """Operator-splitting settings for the equality-constrained l1 problem."""

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


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def bp_l1(op, basis: OrthoBasis, y: np.ndarray,
          params: SolverParams | None = None) -> ReconResult:
    """Minimum-l1 coefficients subject to matching the measurements.

    Alternates projection onto the affine feasible set with soft thresholding
    (scaled dual updates in between).  The returned coefficient vector is the
    projection-side iterate, so it satisfies the measurement constraint to
    machine precision whenever the system is consistent.
    """
    if params is None:
        params = SolverParams()
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"measurements must have shape ({op.m},)")
    psi = op.phi @ basis.u
    n = psi.shape[1]
    pinv = pseudoinverse(psi)
    x_feas = pinv @ y

    def project(v: np.ndarray) -> np.ndarray:
        return v - pinv @ (psi @ v) + x_feas

    z = np.zeros(n)
    u = np.zeros(n)
    x = x_feas.copy()
    trace: list[float] = []
    sqrt_n = np.sqrt(n)
    converged = False
    iterations = 0
    r_norm = s_norm = float("nan")
    for it in range(1, params.max_iter + 1):
        x = project(z - u)
        z_prev = z
        z = _soft(x + u, 1.0 / params.rho)
        u = u + x - z
        iterations = it
        if params.track_objective:
            trace.append(float(np.abs(x).sum()))
        r_norm = float(np.linalg.norm(x - z))
        s_norm = float(params.rho * np.linalg.norm(z - z_prev))
        eps_pri = sqrt_n * params.tol_abs + params.tol_rel * max(
            np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = sqrt_n * params.tol_abs + params.tol_rel * params.rho * np.linalg.norm(u)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
    xhat = x
    x_star = basis.u @ xhat
    stats = {"method": "bp", "iterations": iterations, "converged": converged,
             "primal_residual": r_norm, "dual_residual": s_norm,
             "objective": float(np.abs(xhat).sum())}
    if params.track_objective:
        stats["objective_trace"] = np.asarray(trace)
    return ReconResult(x_star=x_star, xhat_star=xhat, solver_stats=stats)
