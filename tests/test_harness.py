"""Experiment drivers: seeding, sweeps, result tables, sensor-network costs."""

import contextlib
import json
import multiprocessing
import os
import pathlib
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import localagg as la
from localagg.harness import (
    ConditionTableConfig,
    ConfigError,
    DominatingCurveConfig,
    ExperimentConfig,
    GraphSpec,
    WsnScenario,
    _largest_remainder,
    _spatial_dct_basis,
    config_hash,
    derive_seed,
    result_meta,
    run_condition_table,
    run_dominating_curve,
    run_known_support,
    run_unknown_support,
    write_csv,
    wsn_experiment,
)
from localagg import harness, recon
from localagg.recon import SolverParams


def _small_config(**overrides):
    base = dict(
        graph=GraphSpec("erdos-renyi", {"n": 20, "p_e": 0.35}, seed=1),
        k=3,
        samplers=("proposed-insert", "uniform"),
        sweep_values=(8, 12),
        trials=3,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeding and hashing

def test_derive_seed_pinned_values():
    # frozen regression constants; any change breaks stored result tables
    assert derive_seed(0) == 4066689987807800415
    assert derive_seed(0, "plan", "proposed-insert", 12) == 282614237340992469
    assert derive_seed(7, "noise", 0.1, 3) == 15474401216971636063


def test_derive_seed_order_and_types():
    assert derive_seed(0, "a", 1) != derive_seed(0, 1, "a")
    assert derive_seed(0, 0.1) == derive_seed(0, "0.1")  # documented collision
    # a numpy float seeds like the Python float of the same value, as does a
    # sweep value read from a numpy array
    assert derive_seed(7, "noise", np.float64(0.1), 3) == derive_seed(7, "noise", 0.1, 3)
    assert [derive_seed(0, v) for v in np.array([0.01, 0.02])] == \
        [derive_seed(0, v) for v in (0.01, 0.02)]
    assert 0 <= derive_seed(3, "x") < 2 ** 64


def test_config_hash_insensitive_to_key_order():
    a = {"alpha": 1, "beta": [1, 2]}
    b = {"beta": [1, 2], "alpha": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash(a) != config_hash({"alpha": 2, "beta": [1, 2]})


def test_result_meta_keys():
    meta = result_meta({"x": 1}, master_seed=9)
    assert list(meta) == ["config-hash", "seed", "version"]
    assert meta["seed"] == 9


# ---------------------------------------------------------------------------
# config validation and round trips

def test_config_validation_errors():
    with pytest.raises(ValueError, match="k"):
        _small_config(k=0)
    with pytest.raises(ValueError, match="trials"):
        _small_config(trials=0)
    with pytest.raises(ValueError, match="sweep_variable"):
        _small_config(sweep_variable="rho")
    with pytest.raises(ValueError, match="nonempty"):
        _small_config(sweep_values=())
    with pytest.raises(ValueError, match="increasing"):
        _small_config(sweep_values=(12, 8))
    with pytest.raises(ValueError, match="increasing"):
        _small_config(sweep_values=(8, 8))
    with pytest.raises(ValueError, match="sampler"):
        _small_config(samplers=("nope",))
    with pytest.raises(ValueError, match="basis"):
        _small_config(basis="wavelet")
    with pytest.raises(ValueError, match="signal_model"):
        _small_config(signal_model="smooth")
    with pytest.raises(ValueError, match="fixed_m"):
        _small_config(sweep_variable="sigma", sweep_values=(0.1, 0.2))
    with pytest.raises(ValueError, match="sigma"):
        _small_config(sigma=-1.0)
    # a spec read from a file and one built in code are checked alike, at construction
    with pytest.raises(ConfigError, match="graph seed must be an integer >= 0, got -1"):
        GraphSpec.from_dict({"kind": "cycle", "params": {"n": 5}, "seed": -1})
    with pytest.raises(ConfigError, match="graph seed must be an integer >= 0, got -1"):
        GraphSpec("cycle", {"n": 5}, seed=-1)


def test_a_graph_seed_is_taken_only_where_a_run_reads_it():
    # a seedless kind builds as `localagg generate` does, and its config names no seed
    spec = GraphSpec("cycle", {"n": 5})
    assert spec.to_dict() == {"kind": "cycle", "params": {"n": 5}}
    assert np.array_equal(spec.build().edges, la.generate("cycle", {"n": 5}, 0).edges)
    with pytest.raises(ConfigError,
                       match="^graph seed is not read by graph kind cycle, which draws nothing$"):
        GraphSpec("cycle", {"n": 5}, seed=0)
    # a random kind without a seed is refused, never drawn from OS entropy
    random_kind = GraphSpec("erdos-renyi", {"n": 12, "p_e": 0.4})
    with pytest.raises(ConfigError, match="^missing graph key\\(s\\) 'seed'$"):
        random_kind.build()
    for build in (lambda: _small_config(graph=random_kind),
                  lambda: DominatingCurveConfig(random_kind)):
        with pytest.raises(ConfigError, match="^missing graph key\\(s\\) 'seed'$"):
            build()
    # a condition-table trial draws its graph from the master seed
    with pytest.raises(ConfigError, match="^graph seed is not read by condition-table, "):
        ConditionTableConfig(GraphSpec("erdos-renyi", {"n": 12, "p_e": 0.4}, seed=0),
                             k=2, m_values=(4,))


def test_config_dict_round_trip():
    cfg = _small_config(sigma=0.05, fixed_m=None,
                        solver=SolverParams(tol_abs=1e-8, max_iter=100))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert "output" not in cfg.to_dict()
    assert again.solver == SolverParams(tol_abs=1e-8, max_iter=100)


@pytest.mark.parametrize("path, key", [
    ((), "sigmaa"), (("sweep",), "value"), (("solver",), "max_iters"), (("graph",), "sed"),
])
def test_config_from_dict_rejects_unknown_keys(path, key):
    d = _small_config().to_dict()
    target = d
    for part in path:
        target = target[part]
    target[key] = 1
    where = path[0] if path else "config"
    with pytest.raises(ValueError, match=f"unknown {where} key\\(s\\) '{key}'; accepted: "):
        ExperimentConfig.from_dict(d)


def test_wsn_scenario_rejects_unknown_keys():
    with pytest.raises(ValueError, match="'trails'; accepted: .*trials"):
        WsnScenario.from_dict({"trails": 2})
    with pytest.raises(ValueError, match="unknown solver key\\(s\\) 'tol'"):
        WsnScenario.from_dict({"solver": {"tol": 1e-3}})


@pytest.mark.parametrize("kind, stem", [
    ("known-support", "known_support"), ("unknown-support", "unknown_support"),
    ("wsn", "wsn_tradeoff"), ("condition-table", "condition_table"),
    ("dominating-curve", "dominating_curve"),
])
def test_committed_configs_load_with_their_hashes(kind, stem):
    # every committed config passes the checks of its kind's config class, and
    # the hash and seed its table was written with are those of what it reads
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    config_class = harness.EXPERIMENTS[kind][0]
    config = config_class.from_dict(json.loads((results / f"{stem}.config.json").read_text()))
    header = (results / f"{stem}.csv").read_text().splitlines()[0]
    assert header.startswith(f"# config-hash={config_hash(config.to_dict())}, "
                             f"seed={config.master_seed}, ")


def test_wsn_scenario_round_trip_and_validation():
    sc = WsnScenario(n=30, k=5, cluster_head_counts=(3,), m_values=(10,),
                     trials=2, solver=SolverParams(max_iter=500))
    again = WsnScenario.from_dict(sc.to_dict())
    assert again.to_dict() == sc.to_dict()
    # a scenario is checked when it runs, whether built in code or read from a file
    for bad in [WsnScenario(n=10, k=11), WsnScenario(n=10, k=2, cluster_head_counts=(11,)),
                WsnScenario(trials=0)]:
        with pytest.raises(ConfigError):
            wsn_experiment(bad)
    # a config file's counts must be integers: int() would truncate them
    for key, bad in [("n", 30.0), ("cluster_head_counts", [3, 4.5]), ("m_values", [10, False])]:
        with pytest.raises(ConfigError, match="must be an integer"):
            wsn_experiment(WsnScenario.from_dict({key: bad}))


@pytest.mark.parametrize("changes, problem", [
    ({"m_values": ()}, "m_values must be nonempty"),
    ({"m_values": (12, 12)}, "m_values repeats 12"),
    ({"cluster_head_counts": (2, 2)}, "cluster_head_counts repeats 2"),
    ({"m_values": (12, 25)}, "m must be <= the field's n = 20, got 25"),
    ({"k": 21}, "k must be <= the field's n = 20, got 21"),
    ({"cluster_head_counts": (2, 21)}, "cluster head counts must lie in [1, n]"),
    ({"trials": 0}, "trials must be an integer >= 1, got 0"),
    ({"cluster_head_counts": ("a",)},
     "cluster_head_counts entry must be an integer >= 1, got 'a'"),
])
def test_wsn_experiment_refuses_a_scenario_built_in_code_before_drawing(changes, problem):
    # construction leaves every value check to the run, which refuses before any field
    base = dict(n=20, k=3, cluster_head_counts=(2,), m_values=(12,), trials=1)
    sc = WsnScenario(**{**base, **changes})
    with pytest.raises(ConfigError) as info:
        wsn_experiment(sc)
    assert str(info.value) == problem


# ---------------------------------------------------------------------------
# known-support sweeps

def test_known_support_noiseless_hits_floor():
    cfg = _small_config(sweep_values=(3, 8))  # m = k is already determined
    rows = run_known_support(cfg)
    assert len(rows) == 4  # two samplers, two sweep values
    for row in rows:
        assert set(row) == {"sampler", "sweep_variable", "sweep_value",
                            "mean_mse_db", "trials"}
        assert row["mean_mse_db"] <= -200.0


def test_known_support_noise_doubling_costs_six_db():
    cfg = ExperimentConfig(
        graph=GraphSpec("erdos-renyi", {"n": 40, "p_e": 0.3}, seed=5),
        k=5, samplers=("proposed-insert",), sweep_variable="sigma",
        sweep_values=(0.01, 0.02, 0.04), trials=600, fixed_m=15, master_seed=3)
    rows = run_known_support(cfg)
    gaps = np.diff([r["mean_mse_db"] for r in rows])
    assert np.all(np.abs(gaps - 6.02) <= 1.0)


def test_known_support_rerun_is_bit_identical():
    cfg = _small_config(sigma=0.1, trials=4)
    assert run_known_support(cfg) == run_known_support(cfg)


@pytest.mark.parametrize("tag", harness.SAMPLER_TAGS)
def test_every_sampler_tag_runs_both_sweeps(tag):
    # each tag reaches an operator through the harness, so a tag the
    # operator factory does not realize fails here
    cfg = _small_config(graph=GraphSpec("erdos-renyi", {"n": 18, "p_e": 0.3}, seed=1),
                        samplers=(tag,), sweep_values=(6, 12))
    rows = run_known_support(cfg)
    assert [(row["sampler"], row["sweep_value"]) for row in rows] == [(tag, 6), (tag, 12)]
    assert all(row["mean_mse_db"] <= -200.0 for row in rows)
    rows = run_unknown_support(cfg)
    assert [(row["sampler"], row["sweep_value"]) for row in rows] == [(tag, 6), (tag, 12)]


# ---------------------------------------------------------------------------
# unknown-support sweeps

def test_unknown_support_full_budget_recovers():
    cfg = ExperimentConfig(
        graph=GraphSpec("erdos-renyi", {"n": 12, "p_e": 0.4}, seed=2),
        k=2, samplers=("proposed-insert", "uniform"),
        sweep_values=(12,), trials=5, master_seed=4)
    rows = run_unknown_support(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row["recovery_prob"] == 1.0
        assert row["trials"] == 5


def test_unknown_support_cells_mix_converged_and_capped_solves(monkeypatch):
    # a cap of 60 iterations leaves some solves short of convergence, and the
    # recovery probabilities are not all 0 or 1
    cfg = _small_config(trials=7, signal_model="random-support",
                        solver=SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=60))
    solved = []

    def recording(*args):
        res = recon.bp_l1(*args)
        solved.append(res)
        return res

    monkeypatch.setattr(harness, "bp_l1", recording)   # so every cell runs in this process
    rows = run_unknown_support(cfg)
    assert len(solved) == 4 * 7
    converged = [res.solver_stats["converged"] for res in solved]
    assert any(converged) and not all(converged)
    assert {row["recovery_prob"] for row in rows} - {0.0, 1.0}


def test_unknown_support_rejects_bad_configs():
    with pytest.raises(ValueError, match="noiseless"):
        run_unknown_support(_small_config(sigma=0.1))
    with pytest.raises(ValueError, match="measurements"):
        run_unknown_support(_small_config(sweep_variable="sigma",
                                          sweep_values=(0.1,), fixed_m=8))


# ---------------------------------------------------------------------------
# conditioning table and dominating-set curve

def test_condition_table_shape_and_determinism():
    spec = GraphSpec("erdos-renyi", {"n": 30, "p_e": 0.3})
    config = ConditionTableConfig(spec, k=5, m_values=(10, 20), trials=4, master_seed=6)
    rows = run_condition_table(config)
    assert [(r["method"], r["m"]) for r in rows] == [
        ("proposed-insert", 10), ("proposed-insert", 20),
        ("successive", 10), ("successive", 20)]
    for row in rows:
        assert row["median_cond"] >= 1.0 and row["trials"] == 4
    assert run_condition_table(config) == rows


def test_condition_table_rejects_unknown_method():
    spec = GraphSpec("cycle", {"n": 10})
    with pytest.raises(ConfigError, match="sampler"):
        ConditionTableConfig(spec, k=2, m_values=(4,), methods=("nope",))
    # the methods are checked before any graph is generated
    unbuildable = GraphSpec("no-such-kind", {})
    with pytest.raises(ConfigError, match="sampler"):
        ConditionTableConfig(unbuildable, k=2, m_values=(4,), methods=("nope",))


def test_dominating_curve_complete_graph():
    rows = run_dominating_curve(DominatingCurveConfig(GraphSpec("complete", {"n": 7}),
                                                      p_max=3))
    assert [r["dominating_size"] for r in rows] == [1, 1, 1]
    assert [r["p"] for r in rows] == [1, 2, 3]


def test_dominating_curve_cycle_twelve():
    rows = run_dominating_curve(DominatingCurveConfig(GraphSpec("cycle", {"n": 12}),
                                                      p_max=6))
    assert [r["dominating_size"] for r in rows] == [6, 4, 3, 2, 2, 1]


def test_dominating_curve_rejects_bad_p():
    with pytest.raises(ConfigError, match="p_max must be an integer >= 1, got 0"):
        DominatingCurveConfig(GraphSpec("cycle", {"n": 12}), p_max=0)


# ---------------------------------------------------------------------------
# sensor-network tradeoff

def test_wsn_power_accounting():
    sc = WsnScenario(n=16, k=3, radius=0.6, bs_distance_factor=5.0,
                     cluster_head_counts=(16,), m_values=(8,), trials=2,
                     master_seed=1, solver=SolverParams(max_iter=2000))
    rows = wsn_experiment(sc)
    by_method = {r["method"]: r for r in rows}
    assert set(by_method) == {"proposed", "cluster-16"}
    for row in rows:
        assert row["mean_power"] == pytest.approx(
            row["mean_power_intra"] + row["mean_power_bs"], rel=1e-12)
        # pushing m scalars to a base station 5 units away costs m * 25
        assert row["mean_power_bs"] == pytest.approx(8 * 25.0)
        assert row["trials"] == 2
    # every node its own head: readings travel distance zero inside clusters
    assert by_method["cluster-16"]["mean_power_intra"] == 0.0
    assert by_method["proposed"]["mean_power_intra"] > 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_every_cluster_holds_its_own_head(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 61))
    pos = rng.random((n, 2))
    sc = WsnScenario(n=n, k=1, cluster_head_counts=(1, n // 2, n),
                     master_seed=int(rng.integers(2 ** 31)))
    for nc in sc.cluster_head_counts:
        heads, members, _ = harness._draw_clusters(sc, pos, int(rng.integers(10)), nc)
        assert len(heads) == len(members) == nc
        assert all(heads[c] in members[c] for c in range(nc))
        assert sorted(np.concatenate(members).tolist()) == list(range(n))


def _legacy_cluster_operator(pos, heads, members, m, n, seed):
    """The former in-cluster draw: one draw per cluster into its block of rows,
    a hand-kept row offset, and distances to the head recomputed per cluster."""
    nc = len(heads)
    sizes = np.asarray([members[c].size for c in range(nc)])
    dists2 = [((pos[members[c]] - pos[heads[c]]) ** 2).sum(axis=1) for c in range(nc)]
    alloc = _largest_remainder(m, sizes)
    rng = np.random.default_rng(seed)
    phi = np.zeros((m, n))
    row = 0
    p_intra = 0.0
    for c in range(nc):
        mc = int(alloc[c])
        if mc == 0:
            continue
        cols = members[c]
        phi[row:row + mc, cols] = rng.standard_normal((mc, cols.size))
        row += mc
        p_intra += mc * float(dists2[c].sum())
    return phi, p_intra


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_cluster_operator_equals_the_per_cluster_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    pos = rng.random((n, 2))
    # nodes 0 and 1 share a position: with every node a head, one cluster is
    # empty; the last node may copy another one too
    pos[1] = pos[0]
    pos[-1] = pos[int(rng.integers(n))]
    sc = WsnScenario(n=n, k=1, master_seed=int(rng.integers(2 ** 31)))
    for nc in {1, int(rng.integers(1, n + 1)), n}:
        heads, members, cost = harness._draw_clusters(sc, pos, int(rng.integers(10)), nc)
        assert nc < n or any(mem.size == 0 for mem in members)
        # budgets below nc leave clusters without rows
        for m in {1, max(nc - 1, 1), nc, int(rng.integers(1, n + 1)), n}:
            draw_seed = int(rng.integers(2 ** 63))
            op, power = harness._cluster_operator(members, cost, m, n, draw_seed)
            phi, p_intra = _legacy_cluster_operator(pos, heads, members, m, n, draw_seed)
            assert op.phi.tobytes() == phi.tobytes()
            assert power == p_intra


def test_wsn_rerun_is_bit_identical():
    sc = WsnScenario(n=16, k=3, radius=0.6, cluster_head_counts=(4,),
                     m_values=(8,), trials=1, master_seed=2,
                     solver=SolverParams(max_iter=1000))
    assert wsn_experiment(sc) == wsn_experiment(sc)


def _legacy_forward_route_power(graph, pos, plan) -> float:
    """The former route power: each neighborhood node walks its breadth-first
    shortest path on ``graph`` to the aggregating node, edge by edge."""
    from scipy.sparse import csgraph

    total = 0.0
    for node in plan.nodes:
        node = int(node)
        nb = la.closed_in_neighborhood(plan.base_graph, node)
        _, pred = csgraph.breadth_first_order(graph.adjacency, node,
                                              return_predecessors=True)
        for j in nb:
            cur = int(j)
            while cur != node:
                par = int(pred[cur])
                total += float(((pos[cur] - pos[par]) ** 2).sum())
                cur = par
    return total


def _field(seed: int, n: int, radius: float):
    pos = np.random.default_rng(seed).random((n, 2))
    return pos, la.geometric_graph_from_positions(pos, radius)


@pytest.mark.parametrize("master_seed", [0, 1, 7, 20180417])
def test_route_power_equals_the_walk_on_default_fields(master_seed):
    # the field that wsn_experiment's trial 0 lays out for this master seed
    sc = WsnScenario()
    pos, graph = _field(derive_seed(master_seed, "positions", 0), sc.n, sc.radius)
    for m in sc.m_values:
        plan = la.build_plan(graph, m, "insert-new")
        assert plan.p == 1
        assert harness._forward_route_power(pos, plan) == \
            _legacy_forward_route_power(graph, pos, plan)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_route_power_equals_the_walk_on_one_hop_plans(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 81))
    pos, graph = _field(int(rng.integers(2 ** 31)), n, float(rng.uniform(0.1, 0.7)))
    smallest = graph.dominating_set.size
    for m in {smallest, n, int(rng.integers(smallest, n + 1))}:
        plan = la.build_plan(graph, m, "insert-new")
        assert plan.p == 1
        assert harness._forward_route_power(pos, plan) == \
            _legacy_forward_route_power(graph, pos, plan)


# ---------------------------------------------------------------------------
# worker processes

def _cpus(monkeypatch, count: int) -> None:
    """Let this process's affinity mask report ``count`` CPUs, over a BLAS
    held to one thread whatever the environment held it to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(harness, "_ONE_BLAS_THREAD", True)


def _small_field() -> WsnScenario:
    return WsnScenario(n=40, k=4, radius=0.4, cluster_head_counts=(3, 8), m_values=(20, 30),
                       trials=2, master_seed=5, solver=SolverParams(max_iter=1000))


def test_units_run_in_forked_workers_and_return_in_order(monkeypatch):
    units = [(i,) for i in range(6)]
    for cpus in (2, 3, 1):
        # each of the first `cpus` units waits for the others, so that many
        # processes take one each: this one and cpus - 1 forked children
        meet = multiprocessing.get_context("fork").Barrier(cpus)

        def where(i):
            children = len(multiprocessing.active_children())
            if i < cpus:
                meet.wait(timeout=60)
            return i, os.getpid(), children

        _cpus(monkeypatch, cpus)
        ran = harness._map_in_order(where, units)
        assert [i for i, _, _ in ran] == list(range(6))
        pids = {pid for _, pid, _ in ran}
        assert os.getpid() in pids and len(pids) == cpus
        assert [c for i, pid, c in ran if pid == os.getpid() and i < cpus] == [cpus - 1]
        assert multiprocessing.active_children() == []
    # one CPU runs every unit in this process
    assert ran == [(i, os.getpid(), 0) for i in range(6)]
    # a threaded BLAS already uses every CPU
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "_ONE_BLAS_THREAD", False)
    assert harness._map_in_order(where, units) == ran


@pytest.mark.parametrize("env, one", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True), ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"OMP_NUM_THREADS": "4"}, False), ({}, False)])
def test_workers_are_forked_only_over_one_blas_thread(env, one):
    assert harness._one_blas_thread(env) is one


@pytest.mark.parametrize("run, config, refusal", [
    (wsn_experiment, _small_field(), None),
    (run_unknown_support, _small_config(trials=4, signal_model="random-support"), None),
    (run_known_support, _small_config(sigma=0.1, trials=4), None),
    # refusals raised inside a unit: a plan past saturation, and one of two hops
    (wsn_experiment, WsnScenario(n=16, k=3, radius=0.01, cluster_head_counts=(2,),
                                 m_values=(3,)),
     "dominating set has 16 nodes at saturation, budget is 3"),
    (wsn_experiment, WsnScenario(n=16, k=3, radius=0.3, cluster_head_counts=(2,),
                                 m_values=(4,), master_seed=1),
     "m = 4 is below the field's one-hop dominating set of 5 nodes; "
     "forwarding is costed one hop only"),
], ids=["wsn", "unknown-support", "known-support", "wsn-saturated", "wsn-two-hop"])
def test_rows_do_not_depend_on_the_worker_count(monkeypatch, run, config, refusal):
    def outcome():
        try:
            return run(config)
        except ValueError as exc:
            return type(exc), str(exc)

    _cpus(monkeypatch, 1)
    alone = outcome()
    assert alone[1] == refusal if refusal else isinstance(alone, list)
    _cpus(monkeypatch, 2)
    assert outcome() == alone
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("run, config, solves", [
    # (proposed + 2 head counts) x 2 budgets x 2 fields
    (wsn_experiment, _small_field(), 3 * 2 * 2),
    # 2 samplers x 2 budgets, 4 trials each
    (run_unknown_support, _small_config(trials=4, signal_model="random-support"), 4 * 4),
], ids=["wsn", "unknown-support"])
def test_a_stand_in_solver_sees_every_solve_in_process(monkeypatch, run, config, solves):
    # perfbench/tracing.py times the solves by rebinding harness.bp_l1; a
    # solve in a forked worker would leave its record in the worker
    _cpus(monkeypatch, 2)
    rows = run(config)
    calls = []

    def counting(*args):
        calls.append(os.getpid())
        return recon.bp_l1(*args)

    monkeypatch.setattr(harness, "bp_l1", counting)
    assert run(config) == rows
    assert calls == [os.getpid()] * solves


class _Refused(Exception):
    pass


def test_no_worker_outlives_its_run(monkeypatch):
    _cpus(monkeypatch, 2)
    wsn_experiment(_small_field())
    assert multiprocessing.active_children() == []

    def refuse(basis, spec):
        raise _Refused(f"no signal on support {spec.support.tolist()}")

    monkeypatch.setattr(harness, "synthesize", refuse)
    with pytest.raises(_Refused) as info:
        run_known_support(_small_config())
    assert multiprocessing.active_children() == []
    # the lowest-index failing cell's error, with its own type and message,
    # as the serial loop raises it, whichever process ran that cell
    _cpus(monkeypatch, 1)
    with pytest.raises(_Refused) as alone:
        run_known_support(_small_config())
    assert type(info.value) is _Refused
    assert str(info.value) == str(alone.value)


@pytest.mark.parametrize("bad", [0, 4, 7, None], ids=["first", "middle", "last", "in-caller"])
def test_a_failure_reads_the_same_at_every_worker_count(monkeypatch, bad):
    # units fail from index `bad` on, so the serial loop stops at `bad`; with
    # bad None, every unit that the calling process runs fails
    caller = os.getpid()

    def unit(i):
        if bad is None and os.getpid() == caller:
            raise _Refused("refused in the calling process")
        if bad is None:
            time.sleep(0.05)
        elif i >= bad:
            raise _Refused(f"unit {i} refused")
        return i

    raised = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(_Refused) as info:
            harness._map_in_order(unit, [(i,) for i in range(8)])
        raised.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    message = "refused in the calling process" if bad is None else f"unit {bad} refused"
    assert raised == [(_Refused, message)] * 2


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block is still running after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_every_unit_runs_once_over_more_workers_than_cores(monkeypatch):
    # a lost update of the shared counter would run a unit twice and lose another
    runs = multiprocessing.get_context("fork").Value("q", 0)

    def unit(i):
        with runs.get_lock():
            runs.value += 1
        return i * i

    _cpus(monkeypatch, len(os.sched_getaffinity(0)) + 2)
    with _deadline(60):
        assert harness._map_in_order(unit, [(i,) for i in range(500)]) == \
            [i * i for i in range(500)]
    assert runs.value == 500
    assert multiprocessing.active_children() == []


def test_a_dead_worker_raises_an_error_naming_its_unit(monkeypatch):
    caller = os.getpid()
    lost = multiprocessing.get_context("fork").Value("q", -1)

    def unit(i):
        if os.getpid() != caller:
            lost.value = i
            os._exit(1)
        while lost.value < 0:   # until the child has taken a unit
            time.sleep(0.001)
        return i

    _cpus(monkeypatch, 2)
    with _deadline(60), pytest.raises(RuntimeError) as info:
        harness._map_in_order(unit, [(i,) for i in range(4)])
    assert str(info.value) == (f"unit {lost.value} was lost: a worker process ended "
                               f"before returning it (exit codes 1)")
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# helpers

def test_largest_remainder_allocation():
    alloc = _largest_remainder(10, np.array([1.0, 1.0, 1.0]))
    assert alloc.tolist() == [4, 3, 3]
    alloc = _largest_remainder(7, np.array([5.0, 3.0]))
    assert alloc.tolist() == [4, 3]
    rng = np.random.default_rng(0)
    for _ in range(50):
        sizes = rng.integers(1, 40, size=rng.integers(1, 8)).astype(float)
        m = int(rng.integers(0, 60))
        alloc = _largest_remainder(m, sizes)
        assert alloc.sum() == m
        assert np.all(alloc >= np.floor(m * sizes / sizes.sum()))


def test_spatial_dct_basis_is_permuted_dct():
    rng = np.random.default_rng(3)
    pos = rng.random((12, 2))
    basis = _spatial_dct_basis(pos)
    gram = basis.u.T @ basis.u
    assert np.abs(gram - np.eye(12)).max() <= 1e-12
    order = np.lexsort((pos[:, 1], pos[:, 0]))
    assert np.array_equal(basis.u[order, :], la.dct_basis(12).u)


# ---------------------------------------------------------------------------
# result files

def test_write_csv_meta_line_and_body(tmp_path):
    path = tmp_path / "table.csv"
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -1.0}]
    write_csv(path, rows, {"config-hash": "abc123", "seed": 7, "version": "0.1.0"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config-hash=abc123, seed=7, version=0.1.0"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert len(lines) == 4


def test_write_csv_reruns_byte_identical(tmp_path):
    cfg = _small_config(trials=2)
    paths = []
    for name in ("one.csv", "two.csv"):
        rows = run_known_support(cfg)
        p = tmp_path / name
        write_csv(p, rows, result_meta(cfg.to_dict(), cfg.master_seed))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
