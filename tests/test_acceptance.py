"""Statistical acceptance gate for the whole sampling and recovery pipeline.

Each test freezes one end-to-end claim with pinned seeds and tolerances and
contributes one PASS/FAIL line to the terminal summary.  Everything here is
deterministic: reruns reproduce the same statistics bit for bit.
"""

import itertools

import numpy as np
import pytest

import localagg as la
from conftest import ACCEPTANCE_LINES
from localagg.harness import (
    ConditionTableConfig,
    ExperimentConfig,
    GraphSpec,
    WsnScenario,
    _map_in_order,
    derive_seed,
    run_condition_table,
    run_unknown_support,
    wsn_experiment,
)
from localagg.recon import SolverParams

pytestmark = pytest.mark.acceptance

# relaxed but sufficient for the -40 dB perfect-recovery gate; keeps the
# statistical sweeps inside their time budgets
SWEEP_SOLVER = SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=4000)


def record(num: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"{status}  {num:>2}. {title}: {detail}")


def test_01_aggregation_gram_identity_in_expectation():
    g = la.generate("erdos-renyi", {"n": 50, "p_e": 0.3}, seed=2)
    dom = la.greedy_dominating_set(g)
    plan = la.build_plan(g, int(dom.size), "insert-new", seed=0)
    acc = np.zeros((50, 50))
    draws = 20_000
    for t in range(draws):
        phi = la.draw_operator(plan, seed=t).phi
        acc += phi.T @ phi
    dev = float(np.abs(acc / draws - np.eye(50)).max())
    ok = dev < 0.05
    record(1, "mean of operator Gram equals identity", ok,
           f"max deviation {dev:.4f} over {draws} draws (tolerance 0.05)")
    assert ok, f"Gram deviation {dev} >= 0.05"


def test_02_insert_new_operators_have_full_row_rank():
    rng = np.random.default_rng(7)
    kinds = [
        ("erdos-renyi", lambda r: {"n": int(r.integers(15, 61)),
                                   "p_e": float(r.uniform(0.08, 0.5))}),
        ("random-geometric", lambda r: {"n": int(r.integers(15, 61)),
                                        "radius": float(r.uniform(0.15, 0.5))}),
        ("community", lambda r: {"n": int(r.integers(15, 61)),
                                 "n_communities": int(r.integers(2, 5)),
                                 "p_intra": float(r.uniform(0.2, 0.7)),
                                 "p_inter": float(r.uniform(0.01, 0.1))}),
    ]
    full = 0
    trials = 1000
    for i in range(trials):
        kind, make = kinds[i % 3]
        g = la.generate(kind, make(rng), seed=int(rng.integers(2 ** 32)))
        n_comp = int(la.connected_components(g).max()) + 1
        m = int(rng.integers(n_comp, g.n + 1))
        plan = la.build_plan(g, m, "insert-new", seed=int(rng.integers(2 ** 32)))
        op = la.draw_operator(plan, seed=int(rng.integers(2 ** 32)))
        full += int(la.numerical_rank(op.phi) == m)
    ok = full == trials
    record(2, "insert-new draws are full rank", ok,
           f"{full}/{trials} operators had rank m across three graph families")
    assert ok, f"only {full}/{trials} full-rank operators"


def test_03_square_budget_known_support_is_exact():
    g = la.generate("random-geometric", {"n": 100, "radius": 0.2}, seed=12)
    basis = la.gft_basis(g)
    k = 20
    plan = la.build_plan(g, k, "insert-new", seed=derive_seed(42, "plan"))
    support = np.arange(k)
    worst = -np.inf
    hits = 0
    trials = 1000
    for t in range(trials):
        ts = derive_seed(42, "trial", t)
        spec = la.SparseSignalSpec(support=support, seed=derive_seed(ts, "signal"))
        x = la.synthesize(basis, spec)
        op = la.draw_operator(plan, seed=derive_seed(ts, "operator"))
        res = la.ls_known_support(op, basis, support, la.measure(op, x)).scored(x)
        worst = max(worst, res.mse_db)
        hits += int(res.mse_db <= -200.0)
    ok = hits == trials
    record(3, "noiseless m = k recovery hits the floor", ok,
           f"{hits}/{trials} trials at or below -200 dB, worst {worst:.1f} dB")
    assert ok, f"{trials - hits} trials above -200 dB (worst {worst:.1f})"


def test_04_conditioning_beats_successive_aggregation():
    rows = run_condition_table(ConditionTableConfig(
        GraphSpec("erdos-renyi", {"n": 100, "p_e": 0.2}),
        k=10, m_values=(20,), trials=100, master_seed=21))
    med = {r["method"]: r["median_cond"] for r in rows}
    ok = 1.0 <= med["proposed-insert"] <= 50.0 and med["successive"] >= 1e10
    record(4, "median conditioning at m = 2k", ok,
           f"aggregation {med['proposed-insert']:.2f} (band [1, 50]), "
           f"successive powers {med['successive']:.2e} (floor 1e10)")
    assert ok, f"median conditions out of band: {med}"


def test_05_noise_floor_scales_quadratically():
    g = la.generate("erdos-renyi", {"n": 50, "p_e": 0.3}, seed=5)
    basis = la.gft_basis(g)
    plan = la.build_plan(g, 15, "insert-new", seed=1)
    op = la.draw_operator(plan, seed=2)
    spec = la.SparseSignalSpec.draw(50, 5, "random-support", seed=3)
    x = la.synthesize(basis, spec)
    sigmas = (1e-5, 1e-4, 1e-3, 1e-2)
    means = []
    for s in sigmas:
        acc = 0.0
        for t in range(300):
            noise = np.random.default_rng(derive_seed(9, s, t)).standard_normal(50)
            res = la.ls_known_support(op, basis, spec.support, op.phi @ (x + s * noise))
            acc += float(np.mean((res.x_star - x) ** 2))
        means.append(10 * np.log10(acc / 300))
    slope = float(np.polyfit(np.log10(sigmas), means, 1)[0])
    ok = abs(slope - 20.0) <= 2.0
    record(5, "error vs noise has slope 20 dB per decade", ok,
           f"fitted slope {slope:.2f} (tolerance 20 +- 2)")
    assert ok, f"slope {slope} outside 20 +- 2"


def _threshold(values, ms, level=0.9):
    for m, p in zip(ms, values):
        if p >= level:
            return m
    return None


def test_06_aggregation_transitions_before_point_sampling():
    ms = (50, 60, 70, 80, 90)
    cfg = ExperimentConfig(
        graph=GraphSpec("community", {"n": 100, "n_communities": 5,
                                      "p_intra": 0.1, "p_inter": 0.001}, seed=7),
        k=10, samplers=("proposed-insert", "uniform"),
        sweep_values=ms, trials=500, master_seed=1,
        signal_model="random-support", solver=SWEEP_SOLVER)
    rows = run_unknown_support(cfg)
    prob = {(r["sampler"], r["sweep_value"]): r["recovery_prob"] for r in rows}
    agg = [prob[("proposed-insert", m)] for m in ms]
    uni = [prob[("uniform", m)] for m in ms]
    m_agg = _threshold(agg, ms)
    m_uni = _threshold(uni, ms)
    gap = (agg[ms.index(m_agg)] - uni[ms.index(m_agg)]) if m_agg else -1.0
    ok = m_agg is not None and (m_uni is None or m_agg <= m_uni) and gap >= 0.1
    record(6, "community phase transition favors aggregation", ok,
           f"0.9-thresholds: aggregation m={m_agg}, uniform m={m_uni or '>90'}; "
           f"probability gap at m={m_agg} is {gap:.3f} (needs >= 0.1)")
    assert ok, f"thresholds {m_agg} vs {m_uni}, gap {gap}"


def test_07_low_coherence_graph_recovers_earlier():
    grid_spec = GraphSpec("grid2d", {"rows": 10, "cols": 10})
    sw_spec = GraphSpec("small-world", {"n": 100, "ring_degree": 2,
                                        "rewire_prob": 0.15}, seed=1)
    grid, sw = grid_spec.build(), sw_spec.build()
    mu_grid = la.graph_basis_coherence(grid, np.arange(100), la.gft_basis(grid)).mu
    mu_sw = la.graph_basis_coherence(sw, np.arange(100), la.gft_basis(sw)).mu

    ms = (40, 45, 50, 55, 60, 70, 80)
    thresholds = {}
    for spec in (grid_spec, sw_spec):
        cfg = ExperimentConfig(
            graph=spec, k=10, samplers=("proposed-insert",),
            sweep_values=ms, trials=500, master_seed=2,
            signal_model="bandlimited", solver=SWEEP_SOLVER)
        rows = run_unknown_support(cfg)
        thresholds[spec.kind] = _threshold([r["recovery_prob"] for r in rows], ms)
    m_grid, m_sw = thresholds["grid2d"], thresholds["small-world"]
    ok = (mu_grid < mu_sw and mu_sw == 1.0 and 0.5 <= mu_grid <= 0.85
          and m_grid is not None and m_sw is not None and m_grid < m_sw)
    record(7, "coherence gap widens the recovery threshold", ok,
           f"mu grid {mu_grid:.4f} (band [0.5, 0.85]) vs small-world {mu_sw:.1f} "
           f"(exact clamp); 0.9-thresholds m={m_grid} vs m={m_sw}")
    assert ok, (f"mu {mu_grid} vs {mu_sw}, thresholds {m_grid} vs {m_sw}")


def test_08_edge_weights_leave_recovery_unchanged():
    master = 17
    gw = la.generate("random-geometric", {"n": 100, "radius": 0.2, "weighted": True}, seed=3)
    gb = la.Graph(gw.n, gw.edges, weights=None)
    basis_w, basis_b = la.gft_basis(gw), la.gft_basis(gb)
    # with equal weights the two bases, and so the two curves, agree by construction
    basis_gap = float(np.abs(basis_w.u - basis_b.u).max())
    assert basis_gap > 0.1, f"weighted and binary bases differ by only {basis_gap}"
    ms = (20, 30, 40, 50, 60, 70)
    plans = {m: la.build_plan(gw, m, "insert-new",
                              seed=derive_seed(master, "plan", m)) for m in ms}

    def point(basis, m):
        hits = 0
        for t in range(200):
            ts = derive_seed(master, m, t)
            spec = la.SparseSignalSpec.draw(100, 10, "bandlimited", derive_seed(ts, "signal"))
            x = la.synthesize(basis, spec)
            op = la.draw_operator(plans[m], seed=derive_seed(ts, "operator"))
            hits += int(la.bp_l1(op, basis, op.phi @ x, SWEEP_SOLVER).scored(x).perfect)
        return hits / 200

    # one unit per (basis, m) point, run in this process and its forked workers
    units = [(basis, m) for basis in (basis_w, basis_b) for m in ms]
    probs = _map_in_order(point, units)
    weighted, binary = probs[:len(ms)], probs[len(ms):]
    gap = max(abs(a - b) for a, b in zip(weighted, binary))
    ok = gap <= 0.1
    record(8, "exponential edge weights barely move the curve", ok,
           f"max probability gap {gap:.3f} over m in {ms} (tolerance 0.1); "
           f"bases differ by up to {basis_gap:.2f}")
    assert ok, f"binary vs weighted transform curves differ by {gap}"


def _sparsest_fit(psi, y, kmax, tol=1e-8):
    """All minimum-size supports whose least-squares fit reproduces y."""
    scale = max(1.0, float(np.linalg.norm(y)))
    for size in range(1, kmax + 1):
        feasible = []
        for supp in itertools.combinations(range(psi.shape[1]), size):
            c, *_ = np.linalg.lstsq(psi[:, supp], y, rcond=None)
            if np.linalg.norm(psi[:, supp] @ c - y) <= tol * scale:
                feasible.append((supp, c))
        if feasible:
            return feasible
    return []


def test_09_l1_matches_exhaustive_sparse_search():
    rng = np.random.default_rng(1)
    eligible = agree = 0
    while eligible < 200:
        seed = int(rng.integers(2 ** 32))
        n = int(rng.integers(8, 17))
        k = int(rng.integers(1, 4))
        g = la.generate("erdos-renyi", {"n": n, "p_e": 0.4}, seed=seed)
        basis = la.gft_basis(g)
        m = min(n, 2 * k + 6)
        plan = la.build_plan(g, m, "insert-new", seed=derive_seed(seed, "p"))
        op = la.draw_operator(plan, seed=derive_seed(seed, "o"))
        spec = la.SparseSignalSpec.draw(n, k, "random-support",
                                        seed=derive_seed(seed, "s"))
        y = la.measure(op, la.synthesize(basis, spec))
        feasible = _sparsest_fit(op.phi @ basis.u, y, 3)
        if len(feasible) != 1:
            continue  # keep only instances with a unique sparsest solution
        eligible += 1
        supp, c = feasible[0]
        target = np.zeros(n)
        target[list(supp)] = c
        got = la.bp_l1(op, basis, y).xhat_star
        agree += int(np.abs(got - target).max()
                     <= 1e-4 * max(1.0, np.abs(target).max()))
    rate = agree / eligible
    ok = rate >= 0.95
    record(9, "l1 recovers the unique sparsest solution", ok,
           f"agreement {agree}/{eligible} = {rate:.3f} (needs >= 0.95)")
    assert ok, f"agreement rate {rate} below 0.95"


def _minimum_dominating_size(g) -> int:
    masks = []
    for v in range(g.n):
        mask = 1 << v
        for u in la.closed_in_neighborhood(g, v):
            mask |= 1 << int(u)
        masks.append(mask)
    want = (1 << g.n) - 1
    best = g.n
    for sub in range(1 << g.n):
        if bin(sub).count("1") >= best:
            continue
        cov = 0
        s = sub
        while s:
            v = (s & -s).bit_length() - 1
            cov |= masks[v]
            s &= s - 1
        if cov == want:
            best = bin(sub).count("1")
    return best


def test_10_greedy_dominating_set_quality():
    rng = np.random.default_rng(11)
    trials = 1000
    ok_count = 0
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        g = la.generate("erdos-renyi",
                        {"n": n, "p_e": float(rng.uniform(0.1, 0.8))},
                        seed=int(rng.integers(2 ** 32)))
        dom = la.greedy_dominating_set(g)
        covered = set()
        for v in dom:
            covered.update(int(u) for u in la.closed_in_neighborhood(g, int(v)))
        delta = int(g.degrees.max())
        bound = (1 + np.log(delta + 1)) * _minimum_dominating_size(g)
        ok_count += int(len(covered) == g.n and dom.size <= bound)
    ok = ok_count == trials
    record(10, "greedy dominating set within the log bound", ok,
           f"{ok_count}/{trials} graphs dominated within (1 + ln(max degree + 1)) "
           f"of the brute-force minimum")
    assert ok, f"{trials - ok_count} graphs violated domination or the bound"


def test_11_sensor_network_tradeoff_dominates_clustering():
    scenario = WsnScenario(trials=10, master_seed=0,
                           solver=SolverParams(tol_abs=1e-7, tol_rel=1e-7,
                                               max_iter=6000))
    rows = wsn_experiment(scenario)
    proposed = [(r["mean_power"], r["mean_mse_db"]) for r in rows
                if r["method"] == "proposed"]
    outcome = {}
    for nc in scenario.cluster_head_counts:
        base = [(r["mean_power"], r["mean_mse_db"]) for r in rows
                if r["method"] == f"cluster-{nc}"]
        outcome[nc] = any(pp < bp and pm < bm
                          for bp, bm in base for pp, pm in proposed)
    ok = all(outcome.values())
    desc = ", ".join(f"N_c={nc}: {'dominated' if v else 'NOT dominated'}"
                     for nc, v in outcome.items())
    record(11, "aggregation dominates cluster gathering", ok, desc)
    # Known shortfall, kept red on purpose: with the forwarding cost model used
    # here, a 30-head clustering has strictly shorter intra links at equal m,
    # the base-station term is identical, and its recovery transition is not
    # later, so no aggregation operating point can win on both axes except by
    # solver-floor noise.  See notes on the tradeoff study before relaxing.
    assert ok, f"some cluster baselines are not dominated: {desc}"


def test_12_cycle_coherence_closed_form():
    devs = []
    for n in (16, 64):
        g = la.generate("cycle", {"n": n}, seed=0)
        basis = la.gft_basis(g)
        mu = la.graph_basis_coherence(g, np.arange(n), basis).mu
        closed = min(np.sqrt(3.0) * float(np.abs(basis.u).max()), 1.0)
        devs.append(abs(mu - closed))
    ok = max(devs) <= 1e-10
    record(12, "cycle coherence matches the closed form", ok,
           f"deviations {devs[0]:.2e} (n=16) and {devs[1]:.2e} (n=64)")
    assert ok, f"cycle coherence deviations {devs}"
