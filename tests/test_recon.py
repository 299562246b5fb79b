"""Sparse signal synthesis, error metric, least-squares and l1 recovery."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linprog

import localagg as la
from localagg import recon
from localagg.recon import (FLOOR_DB, PERFECT_DB, ReconResult, SolverParams,
                            realized_coefficients, to_db)
from localagg.sampler import SamplingOperator
from localagg.spectral import pseudoinverse

from conftest import random_graph


def _setup(n=24, p_e=0.3, seed=0, k=4, m=12):
    g = la.generate("erdos-renyi", {"n": n, "p_e": p_e}, seed=seed)
    basis = la.gft_basis(g)
    plan = la.build_plan(g, m, "insert-new")
    op = la.draw_operator(plan, seed=seed + 1)
    spec = la.SparseSignalSpec.draw(n, k, "random-support", seed=seed + 2)
    x = la.synthesize(basis, spec)
    return g, basis, op, spec, x


# ---------------------------------------------------------------------------
# signal specs

def test_spec_validation():
    with pytest.raises(ValueError, match="^support must be nonempty$"):
        la.SparseSignalSpec(support=[], seed=0)
    with pytest.raises(ValueError, match="^support indices must be distinct$"):
        la.SparseSignalSpec(support=[1, 1], seed=0)
    # a negative index was accepted and synthesize wrapped it to the last atoms
    with pytest.raises(ValueError, match="support index -8 is negative"):
        la.SparseSignalSpec(support=[0, -8, -1], seed=0)


# a float or bool index was truncated: [0.9, 3.2] became [0, 3], [True, False] [1, 0]
_NON_INTEGER_SUPPORTS = [
    ([0.9, 3.2], "^support index must be an integer, got 0.9$"),
    ([1, 2.0], "^support index must be an integer, got 2.0$"),
    (np.array([1.5, 2.7]), "^support index must be an integer, got 1.5$"),
    ([True, False], "^support index must be an integer, got True$"),
    ([2, True], "^support index must be an integer, got True$"),
    (np.array([False, True]), "^support index must be an integer, got False$"),
    (["1"], "^support index must be an integer, got '1'$"),
    ([[0, 1], [2, 3]], "^support must be 1-D, got shape \\(2, 2\\)$"),
    (3, "^support must be 1-D, got shape \\(\\)$"),
]


@pytest.mark.parametrize("support, message", _NON_INTEGER_SUPPORTS)
def test_support_refuses_non_integer_entries(support, message):
    with pytest.raises(ValueError, match=message):
        la.SparseSignalSpec(support=support, seed=0)
    with pytest.raises(ValueError, match=message):
        recon.check_support(support, 5)
    _, basis, op, _, x = _setup()
    with pytest.raises(ValueError, match=message):
        la.ls_known_support(op, basis, support, la.measure(op, x))


def test_support_takes_any_integer_type():
    for support in ([3, 1], (3, 1), np.array([3, 1], dtype=np.uint8),
                    [np.int32(3), np.int64(1)], np.array([3, 1], dtype=object)):
        assert la.SparseSignalSpec(support=support, seed=0).support.tolist() == [1, 3]
        checked = recon.check_support(support, 5)
        assert checked.dtype == np.int64 and checked.tolist() == [3, 1]


def test_every_draw_takes_its_seed():
    # without a seed a draw would fall back to OS entropy and define no one result
    plan = la.build_plan(la.generate("cycle", {"n": 8}, 0), 4, "insert-new")
    for draw in (lambda: la.draw_operator(plan), lambda: la.uniform_node_sampling(8, 4),
                 lambda: la.SparseSignalSpec(support=[1, 2])):
        with pytest.raises(TypeError, match="seed"):
            draw()
    # nor does an explicit None; a bool, a float or a negative seed is refused by name
    for seed in (None, True, 1.5, -1):
        for draw in (lambda: la.draw_operator(plan, seed),
                     lambda: la.uniform_node_sampling(8, 4, seed),
                     lambda: la.SparseSignalSpec(support=[1, 2], seed=seed),
                     lambda: la.SparseSignalSpec.draw(10, 3, "random-support", seed),
                     lambda: la.generate("erdos-renyi", {"n": 10, "p_e": 0.5}, seed)):
            with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
                draw()
    basis = la.dct_basis(8)
    spec = la.SparseSignalSpec(support=[1, 2], seed=3)
    assert _same_bytes(la.synthesize(basis, spec), la.synthesize(basis, spec))


def test_spec_sorts_support():
    spec = la.SparseSignalSpec(support=[5, 2, 9], seed=0)
    assert spec.support.tolist() == [2, 5, 9]
    assert spec.k == 3


def test_spec_draw_models():
    b = la.SparseSignalSpec.draw(10, 4, "bandlimited", seed=0)
    assert b.support.tolist() == [0, 1, 2, 3]
    r = la.SparseSignalSpec.draw(10, 4, "random-support", seed=0)
    assert np.unique(r.support).size == 4
    assert np.array_equal(r.support, np.sort(r.support))
    same = la.SparseSignalSpec.draw(10, 4, "random-support", seed=0)
    assert np.array_equal(r.support, same.support)
    with pytest.raises(ValueError, match="^need 1 <= k <= n$"):
        la.SparseSignalSpec.draw(10, 0, "bandlimited", seed=0)
    # a k that is not an integer is refused by name: True drew a 1-sparse spec,
    # and 2.5 was refused as "support index must be an integer, got 0.0"
    for k, model in [(True, "bandlimited"), (2.5, "bandlimited"), (3.0, "bandlimited"),
                     (2.5, "random-support")]:
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            la.SparseSignalSpec.draw(10, k, model, seed=0)
    assert la.SparseSignalSpec.draw(10, np.int64(3), "bandlimited", seed=0).k == 3
    # so is an n that is not an integer
    for n, model in [(10.5, "bandlimited"), (True, "bandlimited"), (10.5, "random-support")]:
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n}$"):
            la.SparseSignalSpec.draw(n, 1, model, seed=0)
    assert la.SparseSignalSpec.draw(np.int64(10), 3, "random-support", seed=0).k == 3


def test_realized_coefficients_unit_norm_and_deterministic():
    spec = la.SparseSignalSpec(support=[0, 2, 4], seed=9)
    c = realized_coefficients(spec)
    assert np.isclose(np.linalg.norm(c), 1.0)
    assert np.array_equal(c, realized_coefficients(spec))


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_single_atom():
    basis = la.dct_basis(12)
    x = la.synthesize(basis, la.SparseSignalSpec(support=[7], seed=0))
    assert np.array_equal(x, basis.u[:, 7]) or np.array_equal(x, -basis.u[:, 7])


def test_synthesize_parseval_and_off_support():
    _, basis, _, spec, x = _setup()
    c = realized_coefficients(spec)
    assert abs(np.linalg.norm(x) - np.linalg.norm(c)) <= 1e-12
    xhat = basis.u.T @ x
    off = np.delete(xhat, spec.support)
    assert np.abs(off).max() <= 1e-12


def test_synthesize_rejects_out_of_range():
    basis = la.dct_basis(5)
    with pytest.raises(ValueError):
        la.synthesize(basis, la.SparseSignalSpec(support=[5], seed=0))


# ---------------------------------------------------------------------------
# error metric

def test_mse_db_floor_and_hand_values():
    assert to_db(0.0) == FLOOR_DB and to_db(1e-50) == FLOOR_DB
    assert to_db(1e-2) == -20.0 and isinstance(to_db(0.5), float)
    x = np.ones(4)
    assert la.mse_db(x, x) == FLOOR_DB
    assert la.mse_db(np.array([1.0]), np.array([0.0])) == 0.0
    err = np.zeros(100)
    err[0] = 0.1  # squared norm 1e-2 over n=100 gives exactly -40 dB
    assert np.isclose(la.mse_db(err, np.zeros(100)), -40.0)


def test_mse_db_permutation_and_scale():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(30), rng.standard_normal(30)
    base = la.mse_db(a, b)
    perm = rng.permutation(30)
    assert np.isclose(la.mse_db(a[perm], b[perm]), base)
    for alpha in (0.5, 3.0, 10.0):
        assert np.isclose(la.mse_db(alpha * a, alpha * b),
                          base + 20 * np.log10(alpha))


def test_mse_db_shape_mismatch():
    with pytest.raises(ValueError):
        la.mse_db(np.zeros(3), np.zeros(4))


def test_scored_threshold_is_strict():
    x = np.zeros(100)
    at = np.zeros(100)
    at[0] = 0.1  # exactly -40 dB
    res = la.ReconResult(x_star=at, xhat_star=at).scored(x)
    assert res.mse_db == pytest.approx(-40.0) and res.perfect is False
    below = np.zeros(100)
    below[0] = 0.09
    res = la.ReconResult(x_star=below, xhat_star=below).scored(x)
    assert res.perfect is True


# ---------------------------------------------------------------------------
# least squares with known support

def test_ls_exact_recovery_noiseless():
    _, basis, op, spec, x = _setup()
    res = la.ls_known_support(op, basis, spec.support, la.measure(op, x))
    c = realized_coefficients(spec)
    assert np.abs(res.xhat_star[spec.support] - c).max() <= 1e-10
    off = np.delete(res.xhat_star, spec.support)
    assert np.abs(off).max() == 0.0
    assert np.abs(res.x_star - x).max() <= 1e-10
    assert res.solver_stats["rank_deficient"] is False


def test_ls_rank_deficiency_flagged():
    g, basis, _, _, _ = _setup()
    plan = la.build_plan(g, 3, "insert-new")
    op = la.draw_operator(plan, seed=1)
    support = np.arange(6)  # more unknowns than measurements
    res = la.ls_known_support(op, basis, support, np.zeros(3))
    assert res.solver_stats["rank_deficient"] is True


def test_ls_rejects_bad_measurement_shape():
    _, basis, op, spec, x = _setup()
    with pytest.raises(ValueError, match="shape"):
        la.ls_known_support(op, basis, spec.support, np.zeros(op.m + 1))
    for bad in (np.nan, np.inf, -np.inf):
        y = la.measure(op, x)
        y[0] = bad
        with pytest.raises(ValueError, match="finite"):
            la.ls_known_support(op, basis, spec.support, y)
    with pytest.raises(ValueError, match="columns but the basis has"):
        la.ls_known_support(op, la.dct_basis(op.n - 1), spec.support, np.zeros(op.m))


@pytest.mark.parametrize("support, problem", [
    ([-1, 2], "support index -1 is outside 0..23"),
    ([3, 24], "support index 24 is outside 0..23"),
    ([1, 5, 1], "support indices must be distinct"),
])
def test_ls_rejects_bad_support(support, problem):
    # a negative index used to wrap to the last atoms, a duplicate passed and
    # an index >= n raised numpy's IndexError
    _, basis, op, _, x = _setup()
    with pytest.raises(ValueError, match=problem):
        la.ls_known_support(op, basis, support, la.measure(op, x))


# ---------------------------------------------------------------------------
# l1 minimization

def test_bp_zero_measurements_give_zero():
    _, basis, op, _, _ = _setup()
    res = la.bp_l1(op, basis, np.zeros(op.m))
    assert np.abs(res.xhat_star).max() <= 1e-12
    assert res.solver_stats["converged"] is True


def test_bp_square_invertible_system():
    g = la.generate("erdos-renyi", {"n": 12, "p_e": 0.4}, seed=3)
    basis = la.gft_basis(g)
    plan = la.build_plan(g, 12, "insert-new")
    op = la.draw_operator(plan, seed=4)
    psi = op.phi @ basis.u
    assert la.numerical_rank(psi) == 12
    rng = np.random.default_rng(5)
    xhat = rng.standard_normal(12)
    res = la.bp_l1(op, basis, psi @ xhat)
    assert np.abs(res.xhat_star - xhat).max() <= 1e-6


def test_bp_recovers_sparse_signal():
    _, basis, op, spec, x = _setup(n=30, m=18, k=3, seed=11)
    res = la.bp_l1(op, basis, la.measure(op, x)).scored(x)
    assert res.perfect is True
    assert res.mse_db < -100.0


def test_bp_feasibility_at_success():
    _, basis, op, spec, x = _setup(n=30, m=18, k=3, seed=11)
    y = la.measure(op, x)
    res = la.bp_l1(op, basis, y)
    assert res.solver_stats["converged"] is True
    feas = np.linalg.norm(op.phi @ (basis.u @ res.xhat_star) - y)
    assert feas <= 1e-7 * max(1.0, np.linalg.norm(y))


def test_bp_objective_trace_converges_to_optimum():
    # the final objective stat is the l1 norm of the returned coefficients and,
    # for this recoverable problem, that of the true ones
    _, basis, op, spec, x = _setup(n=30, m=18, k=3, seed=11)
    res = la.bp_l1(op, basis, la.measure(op, x))
    objective = res.solver_stats["objective"]
    assert objective == np.abs(res.xhat_star).sum()
    optimum = np.abs(realized_coefficients(spec)).sum()
    assert abs(objective - optimum) <= 1e-6 * optimum


def test_bp_iteration_cap_flags_nonconvergence():
    _, basis, op, spec, x = _setup(n=30, m=18, k=3, seed=11)
    res = la.bp_l1(op, basis, la.measure(op, x), SolverParams(max_iter=3))
    assert res.solver_stats["converged"] is False
    assert res.solver_stats["iterations"] == 3
    assert np.all(np.isfinite(res.xhat_star))


def test_bp_rejects_bad_measurement_shape():
    _, basis, op, _, x = _setup()
    with pytest.raises(ValueError, match="shape"):
        la.bp_l1(op, basis, np.zeros(op.m + 2))
    for bad in (np.nan, np.inf, -np.inf):
        y = la.measure(op, x)
        y[1] = bad
        with pytest.raises(ValueError, match="finite"):
            la.bp_l1(op, basis, y)
    with pytest.raises(ValueError, match="columns but the basis has"):
        la.bp_l1(op, la.dct_basis(op.n + 1), np.zeros(op.m))


# ---------------------------------------------------------------------------
# the set-up's pseudoinverse: a Cholesky factor of psi psi^T when it provably
# has full row rank, else the SVD

def _near_singular(m, n, sigma, seed=0):
    """m x n psi with singular values 1 (m - 1 times) and sigma."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, m)))[0]
    s = np.ones(m)
    s[-1] = sigma
    return (u * s) @ v.T


def _sigma_at_bound(m):
    """sigma at which ||psi||_F ||pinv||_F of ``_near_singular`` is the bound:
    the small root t = sigma**2 of (m - 1 + t)(m - 1 + 1/t) = bound**2."""
    beta = recon.CHOLESKY_BOUND ** 2 - 1 - (m - 1) ** 2
    return np.sqrt(2 * (m - 1) / (beta + np.sqrt(beta ** 2 - 4 * (m - 1) ** 2)))


def test_setup_takes_the_svd_without_full_row_rank(monkeypatch):
    # repeated rows, a zero row and more rows than columns: no rank m, no
    # Cholesky, no crossover attempt
    op, basis, y, _ = _blind_problem("default")
    zero_row = SamplingOperator(phi=np.vstack([op.phi, np.zeros(op.n)]))
    cases = [_blind_problem("repeated-rows")[:3], _blind_problem("tall")[:3],
             (zero_row, basis, np.append(y, 0.0))]

    def refuse(*args):
        raise AssertionError("crossover attempted below full row rank")

    # tolerances no iterate meets, so each solve reaches the first crossover iteration
    params = SolverParams(tol_abs=1e-300, tol_rel=1e-300, max_iter=recon.CROSSOVER_START)
    for op, basis, y in cases:
        psi = op.phi @ basis.u
        pinv, rank, setup = recon._bp_pinv(psi)
        assert setup == "svd" and rank == la.numerical_rank(psi) < op.m
        assert _same_bytes(pinv, pseudoinverse(psi))
        with monkeypatch.context() as patch:
            patch.setattr(recon, "_simplex_finish", refuse)
            stats = la.bp_l1(op, basis, y, params).solver_stats
        assert stats["setup"] == "svd" and stats["iterations"] == recon.CROSSOVER_START
    # every full-rank problem of the byte comparison takes the Cholesky path
    for name in _BLIND_CASES:
        op, basis, y, _ = _blind_problem(name, monkeypatch)
        full = name not in ("repeated-rows", "inconsistent", "tall")
        _, rank, setup = recon._bp_pinv(op.phi @ basis.u)
        assert (rank == op.m, setup) == ((True, "cholesky") if full else (False, "svd"))


def test_setup_refuses_a_row_that_combines_others():
    # a row 0.5 r0 + 0.25 r1 leaves G singular, but rounding can let potrf
    # through with a moderate ||psi||_F ||X||_F: only the residual
    # ||psi pinv - I||_F tells that X is not a pseudoinverse
    rounded_through = 0
    for seed in range(10):
        a = np.random.default_rng(seed).standard_normal((12, 30))
        psi = np.vstack([a, 0.5 * a[0] + 0.25 * a[1]])
        pinv, rank, setup = recon._bp_pinv(psi)
        assert setup == "svd" and rank == la.numerical_rank(psi) == 12
        c, info = dpotrf(psi @ psi.T)
        if info == 0:
            x = dpotrs(c, psi)[0]
            rounded_through += np.linalg.norm(psi) * np.linalg.norm(x) <= recon.CHOLESKY_BOUND
    assert rounded_through > 0


@pytest.mark.parametrize("m, n", [(4, 10), (20, 40), (50, 100)])
def test_setup_bound_decides_near_singular_psi(m, n):
    edge = _sigma_at_bound(m)
    for sigma, setup in ((1.001 * edge, "cholesky"), (0.999 * edge, "svd")):
        psi = _near_singular(m, n, sigma)
        pinv, rank, got = recon._bp_pinv(psi)
        assert got == setup
        # both sides of the bound have full rank by the SVD's cutoff
        assert rank == la.numerical_rank(psi) == m
        ref = pseudoinverse(psi)
        assert np.abs(pinv - ref).max() <= 1e-8 * np.abs(ref).max()
    # below the SVD's cutoff the rank drops and the crossover is skipped
    psi = _near_singular(m, n, 1e-15)
    assert recon._bp_pinv(psi)[1:] == (m - 1, "svd")


# an inf entry times the basis's zeros makes NaNs in op.phi @ basis.u, which
# numpy reports before the set-up refuses psi
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_setup_refuses_non_finite_and_empty_operators():
    op, basis, y, params = _blind_problem("default")
    empty = SamplingOperator(phi=np.zeros((0, op.n)))
    with pytest.raises(ValueError, match="expected a nonempty 2-D matrix"):
        la.bp_l1(empty, basis, np.zeros(0), params)
    for bad in (np.nan, np.inf, -np.inf):
        phi = op.phi.copy()
        phi[3, 5] = bad
        broken = SamplingOperator(phi=phi)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            la.bp_l1(broken, basis, y, params)
        # the Cholesky path is not tried, so it adds no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                recon._bp_pinv(broken.phi)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_cholesky_setup_matches_the_svd(seed):
    # operators of every random graph kind in a graph and a DCT basis: on the
    # Cholesky path, the SVD's pseudoinverse to 1e-12 relative plus the normal
    # equations' kappa**2 u term, and the SVD's rank
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, g.n + 1))
    try:
        plan = la.build_plan(g, m, "insert-new")
    except la.HopPlanInfeasibleError:
        assume(False)
    basis = la.gft_basis(g) if seed % 2 else la.dct_basis(g.n)
    psi = la.draw_operator(plan, seed=seed).phi @ basis.u
    pinv, rank, setup = recon._bp_pinv(psi)
    assume(setup == "cholesky")
    assert rank == la.numerical_rank(psi) == m
    assert pinv.shape == (g.n, m) and pinv.flags.c_contiguous
    ref = pseudoinverse(psi)
    s = np.linalg.svd(psi, compute_uv=False)
    tol = 1e-12 + 16 * 2.0 ** -53 * (s[0] / s[-1]) ** 2
    assert np.abs(pinv - ref).max() <= tol * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the ADMM loop against its textbook form, byte for byte

def _legacy_soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _legacy_bp_l1(op, basis, y, params):
    """The balanced l1 loop in textbook form: one numpy call per step."""
    y = np.asarray(y, dtype=np.float64)
    psi = op.phi @ basis.u
    n = psi.shape[1]
    pinv, _, setup = recon._bp_pinv(psi)
    x_feas = pinv @ y
    scale = float(np.linalg.norm(x_feas))
    if scale == 0.0:
        scale = 1.0
    x_feas = x_feas / scale
    y = y / scale

    def project(v):
        return v - pinv @ (psi @ v) + x_feas

    rho = recon.RHO_START
    z = np.zeros(n)
    u = np.zeros(n)
    x = x_feas.copy()
    sqrt_n = np.sqrt(n)
    converged = certified = False
    iterations = pivots = 0
    r_norm = s_norm = float("nan")
    for it in range(1, params.max_iter + 1):
        x = project(z - u)
        z_prev = z
        z = _legacy_soft(x + u, 1.0 / rho)
        u = u + x - z
        iterations = it
        r_norm = float(np.linalg.norm(x - z))
        s_norm = float(rho * np.linalg.norm(z - z_prev))
        eps_pri = sqrt_n * params.tol_abs + params.tol_rel * max(
            np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = sqrt_n * params.tol_abs + params.tol_rel * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        # residual balancing with mu = 10, tau = 2 on every 10th iteration
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho = rho * 2.0
                u = u / 2.0
            elif s_norm > 10.0 * r_norm:
                rho = rho / 2.0
                u = u * 2.0
        # crossover: a simplex finish at CROSSOVER_START and every
        # CROSSOVER_EVERY iterations after it (tested on its own below)
        since = it - recon.CROSSOVER_START
        if since >= 0 and since % recon.CROSSOVER_EVERY == 0:
            vertex, spent = recon._simplex_finish(psi, y, x)
            pivots += spent
            if vertex is not None:
                x, r_norm = vertex
                converged = certified = True
                break
    xhat = scale * x
    stats = {"method": "bp", "iterations": iterations, "converged": converged,
             "certified": certified, "primal_residual": scale * r_norm,
             "dual_residual": scale * s_norm, "objective": float(np.abs(xhat).sum()),
             "rho": rho, "pivots": pivots, "setup": setup}
    return ReconResult(x_star=basis.u @ xhat, xhat_star=xhat, solver_stats=stats)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _blind_problem(name, monkeypatch=None):
    """(op, basis, y, params) of one named case for the byte comparison; a
    ``rho-*`` case sets ``recon.RHO_START`` through ``monkeypatch``."""
    _, basis, op, _, x = _setup(n=30, m=18, k=3, seed=11)
    y = la.measure(op, x)
    params = SolverParams()
    if name == "capped-3":
        params = SolverParams(max_iter=3)
    elif name == "capped-50":
        params = SolverParams(max_iter=50)
    elif name.startswith("rho-"):
        monkeypatch.setattr(recon, "RHO_START", float(name[4:]))
        params = SolverParams(tol_abs=1e-7, tol_rel=1e-7)
    elif name == "square":
        g = la.generate("erdos-renyi", {"n": 12, "p_e": 0.4}, seed=3)
        basis = la.gft_basis(g)
        op = la.draw_operator(la.build_plan(g, 12, "insert-new"), seed=4)
        y = op.phi @ (basis.u @ np.random.default_rng(5).standard_normal(12))
    elif name == "community":
        g = la.generate("community", {"n": 100, "n_communities": 5, "p_intra": 0.1,
                                      "p_inter": 0.001}, seed=7)
        basis = la.gft_basis(g)
        op = la.draw_operator(la.build_plan(g, 50, "insert-new"), seed=8)
        spec = la.SparseSignalSpec.draw(100, 10, "random-support", seed=9)
        y = la.measure(op, la.synthesize(basis, spec))
        params = SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=4000)
    elif name in ("repeated-rows", "inconsistent"):
        op = SamplingOperator(phi=np.vstack([op.phi, op.phi[:4]]))
        y = la.measure(op, x)
        if name == "inconsistent":
            y = y + 1e-3 * np.random.default_rng(12).standard_normal(op.m)
        params = SolverParams(max_iter=2000)
    elif name == "zero":
        y = np.zeros(op.m)
    elif name.startswith("crossover"):
        # certified at the first finish, after pivots and at the top-m vertex
        seed = {"crossover": 12, "crossover-vertex": 16}[name]
        _, basis, op, _, x = _setup(n=30, m=18, k=7, seed=seed)
        y = la.measure(op, x)
    elif name == "tall":
        # more measurements than unknowns, inconsistent: no vertex of m atoms to try
        op = SamplingOperator(phi=np.vstack([op.phi, op.phi]))
        y = la.measure(op, x) + 1e-3 * np.random.default_rng(13).standard_normal(op.m)
        params = SolverParams(max_iter=300)
    return op, basis, y, params


_BLIND_CASES = ("default", "capped-3", "capped-50", "rho-0.5", "rho-1.3", "rho-2.0",
                "rho-0.001", "rho-1000", "square", "community", "repeated-rows",
                "inconsistent", "zero", "crossover", "tall", "crossover-vertex")


@pytest.mark.parametrize("name", _BLIND_CASES)
def test_bp_loop_matches_textbook_form_byte_for_byte(name, monkeypatch):
    op, basis, y, params = _blind_problem(name, monkeypatch)
    new = la.bp_l1(op, basis, y, params)
    old = _legacy_bp_l1(op, basis, y, params)
    assert _same_bytes(new.x_star, old.x_star)
    assert _same_bytes(new.xhat_star, old.xhat_star)
    assert new.solver_stats.keys() == old.solver_stats.keys()
    for key, value in old.solver_stats.items():
        assert type(new.solver_stats[key]) is type(value), key
        assert _same_bytes(new.solver_stats[key], value), key


def test_bp_byte_cases_cover_each_regime(monkeypatch):
    # the byte comparison above is only as good as the regimes it reaches
    problems, stats = {}, {}
    for name in _BLIND_CASES:
        with monkeypatch.context() as patch:
            problems[name] = _blind_problem(name, patch)
            stats[name] = la.bp_l1(*problems[name]).solver_stats
    assert stats["default"]["converged"] and stats["community"]["converged"]
    assert all(stats[f"rho-{rho}"]["converged"]
               for rho in ("0.5", "1.3", "2.0", "0.001", "1000"))
    assert stats["rho-0.5"]["primal_residual"] != stats["rho-2.0"]["primal_residual"]
    # balancing moves the penalty both ways, from a poor start and from rho = 1
    assert stats["rho-0.001"]["rho"] >= 0.001 * 2 ** 8
    assert stats["rho-1000"]["rho"] <= 1000 / 2 ** 8
    assert stats["square"]["rho"] > 1.0 > stats["capped-50"]["rho"]
    for name, cap in (("capped-3", 3), ("capped-50", 50)):
        assert not stats[name]["converged"] and stats[name]["iterations"] == cap
        assert np.isfinite(stats[name]["dual_residual"])
    assert stats["zero"]["converged"] and stats["zero"]["objective"] == 0.0
    # the crossover certifies two solves at the first finish, one after simplex
    # pivots and one at the top-m vertex; the others end by the ADMM test, at
    # the cap, or (tall) never try a vertex
    assert [name for name in _BLIND_CASES if stats[name]["certified"]] == ["crossover",
                                                                           "crossover-vertex"]
    assert stats["crossover"]["converged"] and stats["crossover"]["pivots"] > 0
    assert stats["crossover-vertex"]["pivots"] == 0
    for name in ("crossover", "crossover-vertex"):
        assert stats[name]["iterations"] == recon.CROSSOVER_START
        assert stats[name]["primal_residual"] <= 1e-9
    assert all(stats[name]["pivots"] == 0 for name in _BLIND_CASES
               if not stats[name]["certified"])
    assert stats["tall"]["iterations"] == 300 and not stats["tall"]["converged"]
    for name, (op, basis, y, _) in problems.items():
        psi = op.phi @ basis.u
        rank = la.numerical_rank(psi)
        consistent = bool(np.linalg.norm(psi @ (pseudoinverse(psi) @ y) - y) <= 1e-9)
        if name == "square":
            assert op.m == op.n == rank
        elif name == "tall":
            assert op.m > op.n > rank and not consistent
        elif name in ("repeated-rows", "inconsistent"):
            assert op.m < op.n and rank < op.m
            assert consistent is (name == "repeated-rows")
        else:
            assert op.m < op.n and rank == op.m and consistent
    assert not stats["inconsistent"]["converged"]


def _scaled_pair(c, seed=11):
    """bp_l1 on y and on c * y for one problem."""
    _, basis, op, _, x = _setup(n=30, m=18, k=3, seed=seed)
    y = la.measure(op, x)
    params = SolverParams(max_iter=2000)
    return la.bp_l1(op, basis, y, params), la.bp_l1(op, basis, c * y, params)


@given(st.integers(min_value=-40, max_value=40), st.sampled_from((1.0, -1.0)),
       st.integers(min_value=0, max_value=1000))
@example(0, -1.0, 919)     # certified: the vertex's zeros must carry the sign too
@settings(max_examples=20)
def test_bp_power_of_two_scaling_is_exact(k, sign, seed):
    c = sign * 2.0 ** k
    base, scaled = _scaled_pair(c, seed)
    assert _same_bytes(scaled.x_star, c * base.x_star)
    assert _same_bytes(scaled.xhat_star, c * base.xhat_star)
    for key, value in base.solver_stats.items():
        # residuals and objectives are norms, so they scale by |c|
        expect = abs(c) * value if key in ("primal_residual", "dual_residual",
                                           "objective") else value
        assert _same_bytes(scaled.solver_stats[key], expect), key


@given(st.floats(min_value=-12.0, max_value=12.0), st.sampled_from((1.0, -1.0)))
@settings(max_examples=20)
def test_bp_scaling_is_equivariant(log10_c, sign):
    c = sign * 10.0 ** log10_c
    base, scaled = _scaled_pair(c)
    assert scaled.solver_stats["converged"]
    gap = np.linalg.norm(scaled.xhat_star - c * base.xhat_star)
    assert gap <= 1e-9 * np.linalg.norm(c * base.xhat_star)
    assert scaled.solver_stats["objective"] == pytest.approx(
        abs(c) * base.solver_stats["objective"], rel=1e-9)


def test_bp_small_signal_converges():
    # tolerances and the penalty used to be in the caller's units: at signal
    # scale 1e-3 this criterion-6 solve ran into max_iter
    op, basis, y, params = _blind_problem("community")
    base = la.bp_l1(op, basis, y, params)
    small = la.bp_l1(op, basis, 1e-3 * y, params)
    assert small.solver_stats["converged"] and base.solver_stats["converged"]
    assert small.solver_stats["iterations"] < params.max_iter
    gap = np.linalg.norm(small.x_star - 1e-3 * base.x_star)
    assert gap <= 1e-9 * np.linalg.norm(1e-3 * base.x_star)


def test_solver_params_validation():
    inf, nan = float("inf"), float("nan")
    for key, bad in [("tol_abs", 0.0), ("tol_abs", nan), ("tol_abs", inf),
                     ("tol_rel", -1.0), ("tol_rel", nan), ("tol_rel", -inf),
                     ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True),
                     ("max_iter", 100.0)]:
        with pytest.raises(ValueError, match=key):
            SolverParams(**{key: bad})
    defaults = SolverParams()
    assert dataclasses.astuple(defaults) == (1e-9, 1e-9, 50_000)
    assert SolverParams(max_iter=np.int64(7)).max_iter == 7
    # the starting penalty is the module's RHO_START, not a setting
    with pytest.raises(TypeError, match="rho"):
        SolverParams(rho=1.0)


# ---------------------------------------------------------------------------
# the soft threshold, and bp_l1 in each regime

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
                1.7976931348623157e308, -1.7976931348623157e308]


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS), max_size=16),
       st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
       | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300]))
@settings(max_examples=300)
def test_soft_threshold_forms_agree_bit_for_bit(values, t):
    # bp_l1 thresholds as w - min(max(w, -t), t); the textbook-equivalent form is
    # max(w - t, 0) + min(w + t, 0), +0.0 where |w| <= t
    w = np.array(values + _EDGE_FLOATS + [t, -t, np.nextafter(t, 0.0), -np.nextafter(t, 0.0),
                                          np.nextafter(t, np.inf)])
    with np.errstate(over="ignore"):
        old = np.maximum(w - t, 0.0) + np.minimum(w + t, 0.0)
    new = w - np.minimum(np.maximum(w, -t), t)
    assert new.tobytes() == old.tobytes()
    assert not np.signbit(new[np.abs(w) <= t]).any()


def _bp_problems(name, monkeypatch):
    """(problems, basis, params) of one named solver regime; a ``rho-*``
    regime sets ``recon.RHO_START`` through ``monkeypatch``."""
    if name == "degenerate":
        # criterion 6's setting under uniform sampling: the m largest |x| give
        # a singular psi_S, and the finish completes that basis and pivots
        g = la.generate("community", {"n": 100, "n_communities": 5, "p_intra": 0.1,
                                      "p_inter": 0.001}, seed=7)
        basis = la.gft_basis(g)
        problems = []
        for s in (10, 11, 18, 39):
            op = la.uniform_node_sampling(100, 50, seed=s)
            spec = la.SparseSignalSpec.draw(100, 10, "random-support", seed=500 + s)
            problems.append((op, la.measure(op, la.synthesize(basis, spec))))
        return problems, basis, SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=4000)
    g = la.generate("erdos-renyi", {"n": 30, "p_e": 0.3}, seed=11)
    basis = la.gft_basis(g)
    plan = la.build_plan(g, 18, "insert-new")
    rng = np.random.default_rng(12)
    problems = []
    for s in range(6):
        op = la.draw_operator(plan, seed=100 + s)
        if name == "repeated":
            op = SamplingOperator(phi=np.vstack([op.phi, op.phi[:4]]))
        k = 7 if name == "crossover" else 2 + s % 3
        spec = la.SparseSignalSpec.draw(30, k, "random-support", seed=200 + s)
        y = la.measure(op, la.synthesize(basis, spec))
        if name == "repeated" and s % 2:
            y = y + 1e-3 * rng.standard_normal(op.m)     # inconsistent
        problems.append((op, (1e-3 if s == 4 else 1.0) * y))
    problems.insert(2, (problems[0][0], np.zeros(problems[0][0].m)))
    params = {"default": SolverParams(),
              "capped-3": SolverParams(max_iter=3),
              "capped-50": SolverParams(max_iter=50),
              "rho-0.001": SolverParams(tol_abs=1e-7, tol_rel=1e-7),
              "rho-1000": SolverParams(tol_abs=1e-7, tol_rel=1e-7),
              "repeated": SolverParams(max_iter=2000),
              "crossover": SolverParams()}[name]
    if name.startswith("rho-"):
        monkeypatch.setattr(recon, "RHO_START", float(name[4:]))
    return problems, basis, params


_BP_REGIMES = ("default", "capped-3", "capped-50", "rho-0.001", "rho-1000", "repeated",
               "crossover", "degenerate")


def test_bp_l1_covers_each_regime(monkeypatch):
    stats = {}
    for name in _BP_REGIMES:
        with monkeypatch.context() as patch:
            problems, basis, params = _bp_problems(name, patch)
            stats[name] = [la.bp_l1(op, basis, y, params).solver_stats for op, y in problems]
    # solves of one set converge at different iterations, y = 0 at the first
    assert all(s["converged"] for s in stats["default"])
    assert len({s["iterations"] for s in stats["default"]}) >= 4
    assert stats["default"][2]["iterations"] == 1 and stats["default"][2]["objective"] == 0.0
    for name, cap in (("capped-3", 3), ("capped-50", 50)):
        capped = [s for s in stats[name] if not s["converged"]]
        assert len(capped) >= 4 and all(s["iterations"] == cap for s in capped)
        assert any(s["converged"] for s in stats[name])
    assert any(s["rho"] != 1.0 for s in stats["capped-50"])
    assert all(s["converged"] for name in ("rho-0.001", "rho-1000") for s in stats[name])
    assert all(s["rho"] >= 0.001 * 2 ** 8 for s in stats["rho-0.001"] if s["iterations"] > 1)
    assert all(s["rho"] <= 1000 / 2 ** 7 for s in stats["rho-1000"] if s["iterations"] > 1)
    # repeated rows: consistent solves converge, inconsistent ones run to the cap
    repeated = stats["repeated"]
    assert [s["converged"] for s in repeated] == [True, False, True, True, False, True, False]
    assert all(s["converged"] for s in stats["degenerate"])
    assert [s["certified"] for s in stats["degenerate"]] == [True, False, True, True]
    # crossover solves are certified with and without pivots, degenerate ones only after pivots
    certified = {name: sorted(s["pivots"] for s in stats[name] if s["certified"])
                 for name in _BP_REGIMES}
    assert certified == dict.fromkeys(_BP_REGIMES, []) | {"crossover": [0, 2],
                                                          "degenerate": [19, 20, 29]}


# ---------------------------------------------------------------------------
# the crossover certificate

@given(st.integers(min_value=8, max_value=14), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_certified_solves_are_lp_optimal(k, seed):
    # near and above the recovery transition most solves end at a vertex of 18
    # atoms; the exact LP (HiGHS, min 1'(p + q) s.t. psi (p - q) = y, p, q >= 0)
    # must reach the same objective, and a vertex with no zero basic atom
    # (whose sign only the simplex knows) must pass the KKT bound with the dual
    # of its signs
    g = la.generate("erdos-renyi", {"n": 30, "p_e": 0.3}, seed=11)
    basis = la.gft_basis(g)
    op = la.draw_operator(la.build_plan(g, 18, "insert-new"), seed=seed)
    spec = la.SparseSignalSpec.draw(30, k, "random-support", seed=seed + 1)
    y = la.measure(op, la.synthesize(basis, spec))
    res = la.bp_l1(op, basis, y)
    assume(res.solver_stats["certified"])
    psi = op.phi @ basis.u
    m, n = psi.shape
    xhat = res.xhat_star
    lp = linprog(np.ones(2 * n), A_eq=np.hstack([psi, -psi]), b_eq=y, bounds=(0, None),
                 method="highs")
    assert lp.status == 0
    assert res.solver_stats["objective"] == pytest.approx(lp.fun, rel=1e-9)
    assert res.solver_stats["converged"]
    assert res.solver_stats["iterations"] >= recon.CROSSOVER_START
    assert np.linalg.norm(psi @ xhat - y) <= 1e-9 * np.linalg.norm(y)
    support = np.flatnonzero(xhat)
    assert support.size <= m
    if support.size == m and np.abs(xhat[support]).min() > 1e-9 * np.abs(xhat).max():
        nu = np.linalg.solve(psi[:, support].T, np.sign(xhat[support]))
        assert np.abs(psi.T @ nu).max() <= 1.0 + recon.CROSSOVER_DUAL


@pytest.mark.parametrize("psi, y, certified", [
    # pivots 1 and 1e-6 give a vertex; 1 and 1e-14 count as singular
    ([[1.0, 0.0, 0.0], [0.0, 1e-6, 0.0]], [0.3, 0.7e-6], True),
    ([[1.0, 0.0, 0.0], [0.0, 1e-14, 0.0]], [0.3, 0.7e-14], False),
    # unit pivots, but c is 1e8 times larger than y and misses it by 1e-8 relative
    ([[1.0, 1e6, 0.0], [0.0, 1.0, 0.0]], [0.3, 0.7], True),
    ([[1.0, 1e8, 0.0], [0.0, 1.0, 0.0]], [0.3, 0.7], False),
])
def test_crossover_needs_regular_pivots_and_an_exact_vertex(psi, y, certified):
    psi, y = np.array(psi), np.array(y)
    x = np.array([5.0, 4.0, 0.0])              # S = {0, 1}, already optimal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vertex, pivots = recon._simplex_finish(psi, y, x)
    assert (vertex is not None) is certified and pivots == 0


@pytest.mark.parametrize("third, y, sigma, certified", [
    # signs of c: nu = (1, -1) bounds every |psi^T nu| by 1, and the gap is 0
    (0.5, [1.0, -1.0], [1.0, -1.0], True),
    # a wrong sign on a nonzero c: nu = (1, 1) is dual feasible, but the gap
    # ||c||_1 - y^T nu is 2, so the vertex is not proved optimal
    (0.5, [1.0, -1.0], [1.0, 1.0], False),
    # signs of c and a zero gap, but the third atom prices at 1.6 > 1
    (0.8, [1.0, 1.0], [1.0, 1.0], False),
])
def test_certificate_needs_feasibility_dual_bound_and_gap(third, y, sigma, certified):
    psi = np.array([[1.0, 0.0, third], [0.0, 1.0, third]])
    s = np.array([0, 1])
    result = recon._certify(psi, np.array(y), s, np.array(sigma), recon._factor(psi[:, s]))
    assert (result is not None) is certified
    if certified:
        assert result[0].tolist() == y and result[1] == 0.0


def _lp_objective(psi, y):
    """The exact l1 optimum (HiGHS, min 1'(p + q) s.t. psi (p - q) = y, p, q >= 0)."""
    n = psi.shape[1]
    lp = linprog(np.ones(2 * n), A_eq=np.hstack([psi, -psi]), b_eq=y, bounds=(0, None),
                 method="highs")
    assert lp.status == 0
    return lp.fun, lp.x[:n] - lp.x[n:]


def _finish(psi, y, x):
    """_simplex_finish, checked to leave x alone and to warn about nothing."""
    before = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vertex, pivots = recon._simplex_finish(psi, y, x)
    assert _same_bytes(x, before)
    return vertex, pivots


def test_simplex_finish_certifies_a_regular_top_m_basis_without_pivots():
    # the exact LP optimum of a Gaussian problem has m atoms; from it, and from
    # any iterate whose m largest |x| are those atoms, the finish pivots nowhere
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((10, 30))
    y = psi @ rng.standard_normal(30)
    fun, optimum = _lp_objective(psi, y)
    assert np.count_nonzero(np.abs(optimum) > 1e-9) == 10
    top = np.abs(optimum).max()
    for x in (optimum, optimum + 1e-3 * top * rng.standard_normal(30)):
        vertex, pivots = _finish(psi, y, x)
        assert vertex is not None and pivots == 0
        assert np.abs(vertex[0] - optimum).max() <= 1e-9 * top
        assert np.abs(vertex[0]).sum() == pytest.approx(fun, rel=1e-9)
        assert vertex[1] == pytest.approx(np.linalg.norm(psi @ vertex[0] - y), abs=1e-14)


def _degenerate_problem(kind):
    """(psi, y, x) of a primal-degenerate LP and an iterate near its optimum."""
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((20, 50))
    x_true = np.zeros(50)
    if kind == "sparse":
        # k = 3 << m = 20: a basis of m atoms holds 17 zeros
        x_true[[4, 17, 31]] = [1.0, -0.7, 0.4]
    else:
        # collinear columns, all of them among the m largest |x|: psi_S is singular
        psi[:, 1] = psi[:, 0]
        psi[:, 3] = -2.0 * psi[:, 2]
        x_true[[0, 1, 2, 3, 10]] = [0.5, 0.5, 0.3, -0.3, 0.2]
    x = x_true + 1e-4 * rng.standard_normal(50)
    return psi, psi @ x_true, x


@pytest.mark.parametrize("kind", ["sparse", "collinear"])
def test_simplex_finish_certifies_degenerate_problems(kind):
    psi, y, x = _degenerate_problem(kind)
    m, n = psi.shape
    top = np.sort(np.argsort(np.abs(x), kind="stable")[n - m:])
    assert (np.linalg.matrix_rank(psi[:, top]) < m) == (kind == "collinear")
    vertex, pivots = _finish(psi, y, x)
    assert vertex is not None and pivots > 0
    fun, _ = _lp_objective(psi, y)
    assert np.abs(vertex[0]).sum() == pytest.approx(fun, rel=1e-9)
    assert np.count_nonzero(vertex[0]) <= m
    assert vertex[1] <= recon.CROSSOVER_FEAS * np.linalg.norm(y)


def test_spent_budget_returns_none_and_leaves_the_iterates(monkeypatch):
    # this solve needs 15 pivots at its first finish; with a budget of one it
    # runs out, and the ADMM iterates after it are those of a solve whose
    # finishes return at once: same bytes, only the pivot count differs
    _, basis, op, _, x = _setup(n=30, m=18, k=7, seed=10)
    y = la.measure(op, x)
    params = SolverParams(max_iter=2 * recon.CROSSOVER_START - 1)
    real, budget = recon._simplex_finish, recon.CROSSOVER_BUDGET
    monkeypatch.setattr(recon, "CROSSOVER_BUDGET", 1.5 / op.m)
    attempts = []

    def recording(psi, y, x):
        vertex, pivots = real(psi, y, x)
        attempts.append((vertex, pivots))
        return vertex, pivots

    monkeypatch.setattr(recon, "_simplex_finish", recording)
    spent = la.bp_l1(op, basis, y, params)
    assert attempts == [(None, 1)]
    monkeypatch.setattr(recon, "_simplex_finish", lambda psi, y, x: (None, 0))
    idle = la.bp_l1(op, basis, y, params)
    assert idle.solver_stats.pop("pivots") == 0
    assert spent.solver_stats.pop("pivots") == 1
    assert not spent.solver_stats["certified"]
    assert repr(spent.solver_stats) == repr(idle.solver_stats)
    assert _same_bytes(spent.x_star, idle.x_star)
    # with its full budget the same finish certifies at once
    monkeypatch.setattr(recon, "CROSSOVER_BUDGET", budget)
    monkeypatch.setattr(recon, "_simplex_finish", real)
    certified = la.bp_l1(op, basis, y, params).solver_stats
    assert certified["certified"] and certified["pivots"] == 15


def _cluster_operator(n, m, members, rows, seed):
    """m Gaussian rows, ``rows`` of them on the nodes ``members`` and the rest on
    the other nodes, as the sensor-field clusters draw them."""
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(n), members)
    phi = np.zeros((m, n))
    phi[np.ix_(np.arange(rows), members)] = rng.standard_normal((rows, members.size))
    phi[np.ix_(np.arange(rows, m), rest)] = rng.standard_normal((m - rows, rest.size))
    return SamplingOperator(phi=phi)


def test_rank_deficient_solves_make_no_crossover_attempt(monkeypatch):
    # 14 rows on a 10-node cluster leave psi rank deficient (rank 116 of 120):
    # no m columns are independent, so every finish would rescan all n
    # columns and fail; the solve runs its ADMM iterations without one
    def refuse(*args):
        raise AssertionError("crossover attempted on a rank-deficient psi")

    monkeypatch.setattr(recon, "_independent_columns", refuse)
    monkeypatch.setattr(recon, "_simplex_finish", refuse)
    op = _cluster_operator(250, 120, np.arange(10), 14, seed=4)
    basis = la.dct_basis(250)
    assert la.numerical_rank(op.phi) == 116
    spec = la.SparseSignalSpec.draw(250, 50, "random-support", seed=5)
    y = la.measure(op, la.synthesize(basis, spec))
    params = SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=6000)
    res = la.bp_l1(op, basis, y, params)
    assert res.solver_stats["pivots"] == 0 and not res.solver_stats["certified"]


def test_singular_basis_is_completed_without_warnings(monkeypatch):
    # a uniform operator on the community graph leaves psi_S of the m largest
    # |x| singular: the finish completes it with independent columns and
    # certifies; a cluster with more rows (8) than members (5) leaves psi
    # rank deficient, so no basis is regular and no finish is attempted
    completed = []
    real = recon._independent_columns

    def recording(psi, order):
        s = real(psi, order)
        completed.append(s is not None)
        return s

    monkeypatch.setattr(recon, "_independent_columns", recording)
    community = la.generate("community", {"n": 100, "n_communities": 5, "p_intra": 0.1,
                                          "p_inter": 0.001}, seed=7)
    field = la.generate("random-geometric", {"n": 60, "radius": 0.3}, seed=3)
    cases = [(la.uniform_node_sampling(100, 50, seed=10), la.gft_basis(community), 10, 510,
              SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=4000), True),
             (_cluster_operator(60, 30, np.arange(5), 8, seed=8), la.gft_basis(field), 8, 906,
              SolverParams(max_iter=1000), False)]
    for op, basis, k, signal_seed, params, certified in cases:
        spec = la.SparseSignalSpec.draw(basis.n, k, "random-support", seed=signal_seed)
        y = la.measure(op, la.synthesize(basis, spec))
        completed.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = la.bp_l1(op, basis, y, params)
        assert res.solver_stats["certified"] is certified
        assert completed == ([True] if certified else [])
    # an exactly singular psi_S (a zero column) and no column to complete it
    # with: getrf's info refuses it where lu_factor would warn
    psi = np.hstack([np.eye(3)[:, :2], np.zeros((3, 2))])
    x = np.array([1.0, 2.0, 3.0, 0.0])
    assert _finish(psi, np.array([1.0, 1.0, 0.0]), x) == (None, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgWarning):
            lu_factor(psi[:, [0, 1, 2]])
