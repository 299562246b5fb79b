"""End-to-end command line flows through temporary files."""

import json

import numpy as np
import pytest

import localagg as la
from localagg.cli import main
from localagg.sampler import plan_from_json
from localagg.spectral import load_matrix_csv


def _run(*argv):
    return main([str(a) for a in argv])


def test_generate_then_load(tmp_path):
    out = tmp_path / "graph.txt"
    pos = tmp_path / "pos.txt"
    code = _run("generate", "--kind", "random-geometric",
                "--params", json.dumps({"n": 15, "radius": 0.5}),
                "--seed", 3, "--out", out, "--positions-out", pos)
    assert code == 0
    graph = la.load_edge_list(out, positions_path=pos)
    reference = la.generate("random-geometric", {"n": 15, "radius": 0.5}, seed=3)
    assert graph.n == 15
    assert graph.edge_set() == reference.edge_set()
    assert np.allclose(graph.positions, reference.positions)


def test_generate_skips_positions_for_abstract_graphs(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", '{"n": 6}', "--out", out,
         "--positions-out", tmp_path / "pos.txt")
    assert not (tmp_path / "pos.txt").exists()
    assert "6 nodes" in capsys.readouterr().out


def test_sample_writes_plan_and_operator(tmp_path):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "erdos-renyi", "--params",
         '{"n": 18, "p_e": 0.3}', "--seed", 1, "--out", gpath)
    plan_path = tmp_path / "plan.json"
    op_path = tmp_path / "phi.csv"
    code = _run("sample", "--graph", gpath, "--m", 10, "--seed", 5,
                "--plan-out", plan_path, "--operator-out", op_path,
                "--operator-seed", 7)
    assert code == 0
    plan = plan_from_json(la.load_edge_list(gpath), plan_path.read_text())
    assert plan.m == 10 and plan.strategy in ("insert-new", "exact")
    phi = load_matrix_csv(op_path)
    assert phi.shape == (10, 18)
    assert np.array_equal(phi, la.draw_operator(plan, seed=7).phi)


def test_sample_plan_json_fields(tmp_path):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", '{"n": 9}', "--out", gpath)
    plan_path = tmp_path / "plan.json"
    _run("sample", "--graph", gpath, "--m", 3, "--strategy",
         "repeat-dominating", "--seed", 0, "--plan-out", plan_path)
    payload = json.loads(plan_path.read_text())
    assert set(payload) >= {"nodes", "p", "strategy", "seed"}
    assert payload["strategy"] in ("repeat-dominating", "exact")
    assert len(payload["nodes"]) == 3


@pytest.mark.parametrize("method", ["ls", "bp"])
def test_reconstruct_round_trip(tmp_path, capsys, method):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "erdos-renyi", "--params",
         '{"n": 16, "p_e": 0.4}', "--seed", 2, "--out", gpath)
    plan_path, op_path = tmp_path / "plan.json", tmp_path / "phi.csv"
    _run("sample", "--graph", gpath, "--m", 12, "--plan-out", plan_path,
         "--operator-out", op_path, "--operator-seed", 4)

    graph = la.load_edge_list(gpath)
    basis = la.gft_basis(graph)
    spec = la.SparseSignalSpec(support=[0, 1, 2], seed=8)
    x = la.synthesize(basis, spec)
    phi = load_matrix_csv(op_path)
    y_path = tmp_path / "y.csv"
    la.save_matrix_csv(y_path, (phi @ x).reshape(-1, 1))

    out = tmp_path / "xstar.csv"
    argv = ["reconstruct", "--graph", gpath, "--operator", op_path,
            "--measurements", y_path, "--method", method, "--out", out]
    if method == "ls":
        argv += ["--support", "0,1,2"]
    assert _run(*argv) == 0
    x_star = load_matrix_csv(out).ravel()
    assert np.abs(x_star - x).max() <= 1e-6
    printed = capsys.readouterr().out
    if method == "bp":
        assert "converged=True, certified=False, primal_residual=" in printed


def test_reconstruct_ls_requires_support(tmp_path):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", '{"n": 5}', "--out", gpath)
    la.save_matrix_csv(tmp_path / "phi.csv", np.eye(5))
    la.save_matrix_csv(tmp_path / "y.csv", np.zeros((5, 1)))
    with pytest.raises(SystemExit, match="--support"):
        _run("reconstruct", "--graph", gpath, "--operator", tmp_path / "phi.csv",
             "--measurements", tmp_path / "y.csv", "--method", "ls",
             "--out", tmp_path / "x.csv")


def test_reconstruct_rejects_unknown_basis(tmp_path):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", '{"n": 5}', "--out", gpath)
    la.save_matrix_csv(tmp_path / "phi.csv", np.eye(5))
    la.save_matrix_csv(tmp_path / "y.csv", np.zeros((5, 1)))
    with pytest.raises(SystemExit, match="basis"):
        _run("reconstruct", "--graph", gpath, "--operator", tmp_path / "phi.csv",
             "--measurements", tmp_path / "y.csv", "--basis", "wavelet",
             "--out", tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# experiment subcommands

def _graph_payload():
    return {"kind": "erdos-renyi", "params": {"n": 18, "p_e": 0.35}, "seed": 1}


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def _read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config-hash=")
    assert ", seed=" in lines[0] and ", version=" in lines[0]
    return lines


def test_experiment_known_support(tmp_path):
    cfg = _write_config(tmp_path, {
        "graph": _graph_payload(), "k": 3,
        "samplers": ["proposed-insert", "uniform"],
        "sweep": {"variable": "m", "values": [6, 10]},
        "trials": 2, "master_seed": 9})
    out = tmp_path / "known.csv"
    assert _run("experiment", "known-support", "--config", cfg,
                "--out", out) == 0
    lines = _read_table(out)
    assert lines[1] == "sampler,sweep_variable,sweep_value,mean_mse_db,trials"
    assert len(lines) == 2 + 4


def test_experiment_unknown_support(tmp_path):
    cfg = _write_config(tmp_path, {
        "graph": {"kind": "erdos-renyi", "params": {"n": 12, "p_e": 0.4},
                  "seed": 2},
        "k": 2, "samplers": ["proposed-insert"],
        "sweep": {"variable": "m", "values": [12]},
        "trials": 2, "master_seed": 0})
    assert _run("experiment", "unknown-support", "--config", cfg,
                "--out", tmp_path / "blind.csv") == 0
    lines = _read_table(tmp_path / "blind.csv")
    assert lines[1] == "sampler,sweep_variable,sweep_value,recovery_prob,trials"
    assert lines[2].endswith(",1.0,2")


def test_experiment_seed_and_trials_overrides(tmp_path):
    base = {"graph": _graph_payload(), "k": 3,
            "samplers": ["proposed-insert"],
            "sweep": {"variable": "m", "values": [8]},
            "trials": 1, "master_seed": 0}
    cfg = _write_config(tmp_path, base)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run("experiment", "known-support", "--config", cfg, "--out", out_a,
         "--seed", 123, "--trials", 4)
    meta = out_a.read_text().splitlines()[0]
    assert "seed=123" in meta
    assert out_a.read_text().splitlines()[2].endswith(",4")
    # same overrides reproduce the same bytes at a different path
    _run("experiment", "known-support", "--config", cfg, "--out", out_b,
         "--seed", 123, "--trials", 4)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_experiment_condition_table(tmp_path):
    cfg = _write_config(tmp_path, {
        "graph": {"kind": "erdos-renyi", "params": {"n": 20, "p_e": 0.3},
                  "seed": 0},
        "k": 4, "m_values": [8, 12], "trials": 2, "master_seed": 5})
    out = tmp_path / "cond.csv"
    assert _run("experiment", "condition-table", "--config", cfg,
                "--out", out) == 0
    lines = _read_table(out)
    assert lines[1] == "method,m,median_cond,trials"
    assert len(lines) == 2 + 4


def test_experiment_dominating_curve(tmp_path):
    cfg = _write_config(tmp_path, {
        "graph": {"kind": "cycle", "params": {"n": 12}, "seed": 0},
        "p_max": 6})
    out = tmp_path / "curve.csv"
    assert _run("experiment", "dominating-curve", "--config", cfg,
                "--out", out) == 0
    lines = _read_table(out)
    assert lines[1] == "p,dominating_size"
    assert [line.split(",")[1] for line in lines[2:]] == \
        ["6", "4", "3", "2", "2", "1"]


def test_experiment_wsn(tmp_path):
    cfg = _write_config(tmp_path, {
        "n": 16, "k": 3, "radius": 0.6, "cluster_head_counts": [4],
        "m_values": [8], "trials": 1, "master_seed": 1,
        "solver": {"max_iter": 1000}})
    out = tmp_path / "wsn.csv"
    assert _run("experiment", "wsn", "--config", cfg, "--out", out) == 0
    lines = _read_table(out)
    assert lines[1].startswith("method,m,mean_power")
    assert len(lines) == 2 + 2  # proposed and one cluster scheme


@pytest.mark.parametrize("overrides, named", [
    (["--trials", 2], "--trials"),
    (["--seed", 3], "--seed"),
    (["--seed", 3, "--trials", 2], "--seed and --trials"),
])
def test_experiment_dominating_curve_refuses_seed_and_trials(tmp_path, overrides, named):
    cfg = _write_config(tmp_path, {"graph": _graph_payload(), "p_max": 3})
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as info:
        _run("experiment", "dominating-curve", "--config", cfg, "--out", out, *overrides)
    assert str(info.value) == f"dominating-curve has no trials and no master seed; drop {named}"
    assert not out.exists()


def test_experiment_requires_output(tmp_path, capsys):
    payload = {"graph": _graph_payload(), "k": 3,
               "samplers": ["proposed-insert"],
               "sweep": {"variable": "m", "values": [6]},
               "trials": 1, "master_seed": 0}
    cfg = _write_config(tmp_path, payload)
    with pytest.raises(SystemExit):
        _run("experiment", "known-support", "--config", cfg)
    assert "--out" in capsys.readouterr().err
    # the path comes from --out only; a config that still names one is refused
    cfg = _write_config(tmp_path, dict(payload, output=str(tmp_path / "x.csv")))
    with pytest.raises(SystemExit, match="--out"):
        _run("experiment", "known-support", "--config", cfg, "--out", tmp_path / "y.csv")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("kind, payload, key", [
    ("known-support", {"graph": _graph_payload(), "k": 3, "sigmaa": 0.5,
                       "sweep": {"variable": "m", "values": [6]}}, "sigmaa"),
    ("unknown-support", {"graph": _graph_payload(), "k": 3,
                         "sweep": {"variable": "m", "value": [6]}}, "value"),
    ("unknown-support", {"graph": _graph_payload(), "k": 3, "solver": {"max_iters": 9},
                         "sweep": {"variable": "m", "values": [6]}}, "max_iters"),
    ("known-support", {"graph": dict(_graph_payload(), sed=2), "k": 3,
                       "sweep": {"variable": "m", "values": [6]}}, "sed"),
    ("wsn", {"n": 16, "k": 3, "trails": 1}, "trails"),
    ("wsn", {"n": 16, "k": 3, "solver": {"rh": 2.0}}, "rh"),
    ("condition-table", {"graph": _graph_payload(), "k": 2, "m_values": [4],
                         "method": ["uniform"]}, "method"),
    ("dominating-curve", {"graph": _graph_payload(), "pmax": 3}, "pmax"),
])
def test_experiment_rejects_unknown_config_keys(tmp_path, kind, payload, key):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        _run("experiment", kind, "--config", cfg, "--out", out)
    message = str(info.value)
    assert f"{cfg}: unknown" in message and repr(key) in message
    assert "accepted: " in message and "\n" not in message
    assert not out.exists()


def _blind_payload(**changes):
    return dict({"graph": _graph_payload(), "k": 3,
                 "sweep": {"variable": "m", "values": [6]}}, **changes)


@pytest.mark.parametrize("kind, payload, problem", [
    ("unknown-support", {"graph": _graph_payload(), "k": 3, "solver": {"rho": float("nan")},
                         "sweep": {"variable": "m", "values": [6]}},
     "solver rho must be a positive finite number, got nan"),
    ("wsn", {"n": 16, "k": 3, "solver": {"max_iter": 2.5}},
     "solver max_iter must be an integer >= 1, got 2.5"),
    ("known-support", _blind_payload(k=0), "k must be an integer >= 1, got 0"),
    ("known-support", _blind_payload(k=True), "k must be an integer >= 1, got True"),
    ("unknown-support", _blind_payload(trials=0), "trials must be an integer >= 1, got 0"),
    ("unknown-support", _blind_payload(trials=2.5), "trials must be an integer >= 1, got 2.5"),
    ("known-support", _blind_payload(master_seed=1.5), "master_seed must be an integer, got 1.5"),
    ("known-support", _blind_payload(fixed_m=6.0, sweep={"variable": "sigma", "values": [0.1]}),
     "fixed_m must be an integer >= 1, got 6.0"),
    ("unknown-support", _blind_payload(sweep={"variable": "m", "values": [6.5]}),
     "swept m must be an integer >= 1, got 6.5"),
    ("unknown-support", _blind_payload(samplers=["nope"]), "unknown sampler tag 'nope'"),
    ("unknown-support", _blind_payload(samplers=["weighted"]),
     "samplers ['weighted'] need the support and cannot run blind"),
    ("known-support", _blind_payload(graph=dict(_graph_payload(), seed=1.0)),
     "graph seed must be an integer >= 0, got 1.0"),
    ("wsn", {"n": 16, "k": 3, "trials": 0}, "trials must be an integer >= 1, got 0"),
    ("wsn", {"n": 16, "k": 3, "m_values": [8, 9.5]},
     "m_values entry must be an integer >= 1, got 9.5"),
    ("wsn", {"n": 16, "k": 3, "cluster_head_counts": [2, 30]},
     "cluster head counts must lie in [1, n]"),
    ("condition-table", {"graph": _graph_payload(), "k": 2, "m_values": [4], "trials": 2.5},
     "trials must be an integer >= 1, got 2.5"),
    ("condition-table", {"graph": _graph_payload(), "k": 2.0, "m_values": [4]},
     "k must be an integer >= 1, got 2.0"),
    ("condition-table", {"graph": _graph_payload(), "k": 2, "m_values": [4.5]},
     "m_values entry must be an integer >= 1, got 4.5"),
    ("dominating-curve", {"graph": _graph_payload(), "p_max": 2.5},
     "p_max must be an integer >= 1, got 2.5"),
    # required keys, graphs that the generator refuses, supports larger than the graph
    ("known-support", {"graph": _graph_payload(), "sweep": {"variable": "m", "values": [6]}},
     "missing config key(s) 'k'"),
    ("condition-table", {"graph": _graph_payload(), "k": 2}, "missing config key(s) 'm_values'"),
    ("known-support", _blind_payload(graph={"kind": "erdos-renyi", "params": {"n": 18}}),
     "missing graph key(s) 'seed'"),
    ("known-support", _blind_payload(graph=dict(_graph_payload(), params={"n": 0, "p_e": 0.3})),
     "graph: n must be >= 1"),
    ("unknown-support", _blind_payload(graph=dict(_graph_payload(), kind="torus")),
     f"graph: unknown graph kind 'torus', expected one of {la.graph.GENERATOR_KINDS}"),
    ("condition-table", {"graph": dict(_graph_payload(), params={"n": 0, "p_e": 0.3}), "k": 2,
                         "m_values": [4]}, "graph: n must be >= 1"),
    ("dominating-curve", {"graph": dict(_graph_payload(), kind="torus")},
     f"graph: unknown graph kind 'torus', expected one of {la.graph.GENERATOR_KINDS}"),
    ("known-support", _blind_payload(k=20), "k must be <= the graph's n = 18, got 20"),
    ("condition-table", {"graph": _graph_payload(), "k": 200, "m_values": [4]},
     "k must be <= the graph's n = 18, got 200"),
    # a generator parameter left out, and a budget that no node sampler can draw
    ("known-support", _blind_payload(graph=dict(_graph_payload(), params={"n": 18})),
     "graph: missing parameter 'p_e'"),
    ("known-support", _blind_payload(samplers=["uniform"],
                                     sweep={"variable": "m", "values": [6, 30]}),
     "m must be <= the graph's n = 18 for sampler 'uniform', got 30"),
    ("known-support", _blind_payload(samplers=["successive", "minpinv"], fixed_m=19,
                                     sweep={"variable": "sigma", "values": [0.1]}),
     "m must be <= the graph's n = 18 for sampler 'minpinv', got 19"),
    ("condition-table", {"graph": _graph_payload(), "k": 2, "m_values": [4, 30]},
     "m must be <= the graph's n = 18 for sampler 'proposed-insert', got 30"),
])
def test_experiment_refuses_bad_solver_settings(tmp_path, kind, payload, problem):
    # Python's json reads and writes NaN, so a config file can carry one; the
    # config classes refuse counts that are not integers instead of truncating
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        _run("experiment", kind, "--config", cfg, "--out", out)
    assert str(info.value) == f"{cfg}: {problem}"
    assert not out.exists()


@pytest.mark.parametrize("kind, payload, problem", [
    # a NaN or negative noise level would run noiseless under its own label
    ("known-support", _blind_payload(fixed_m=6, sweep={"variable": "sigma",
                                                       "values": [-0.01, 0.02]}),
     "swept sigma must be a finite number >= 0, got -0.01"),
    ("known-support", _blind_payload(fixed_m=6, sweep={"variable": "sigma",
                                                       "values": [0.01, float("nan")]}),
     "swept sigma must be a finite number >= 0, got nan"),
    ("known-support", _blind_payload(fixed_m=6, sweep={"variable": "sigma",
                                                       "values": [0.01, float("inf")]}),
     "swept sigma must be a finite number >= 0, got inf"),
    ("known-support", _blind_payload(fixed_m=6, sweep={"variable": "sigma", "values": [True]}),
     "swept sigma must be a finite number >= 0, got True"),
    ("known-support", _blind_payload(sigma=-0.1), "sigma must be a finite number >= 0, got -0.1"),
    ("known-support", _blind_payload(sigma=float("nan")),
     "sigma must be a finite number >= 0, got nan"),
    ("known-support", _blind_payload(sigma="0.1"), "sigma must be a finite number >= 0, got '0.1'"),
    # a graph count such as "n": 40.7 is refused, not truncated to another graph
    ("known-support", _blind_payload(graph=dict(_graph_payload(), params={"n": 40.7, "p_e": 0.3})),
     "graph: n must be an integer, got 40.7"),
    ("unknown-support", _blind_payload(graph=dict(_graph_payload(), params={"n": True, "p_e": 0.3})),
     "graph: n must be an integer, got True"),
    ("dominating-curve", {"graph": {"kind": "random-geometric", "seed": 1,
                                    "params": {"n": 30, "radius": 0.3, "weighted": 1}}},
     "graph: weighted must be true or false, got 1"),
])
def test_experiment_refuses_bad_noise_levels_and_graph_counts(tmp_path, kind, payload, problem):
    test_experiment_refuses_bad_solver_settings(tmp_path, kind, payload, problem)


@pytest.mark.parametrize("target, text, line, problem", [
    ("operator", "1,0,0\n# comment\n0,1\n", 3, "expected 3 entries"),
    ("operator", "1,0,0\n0,x1,0\n", 2, "'x1' is not a number"),
    ("operator", "\n1,nan,0\n", 2, "'nan' is not finite"),
    ("measurements", "1\n-inf\n", 2, "'-inf' is not finite"),
    ("measurements", "1\n\n2,3\n", 3, "expected 1 entries"),
])
def test_reconstruct_reports_matrix_file_errors_by_line(tmp_path, target, text, line,
                                                       problem):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", '{"n": 3}', "--out", gpath)
    files = {"operator": tmp_path / "phi.csv", "measurements": tmp_path / "y.csv"}
    files["operator"].write_text("1,0,0\n0,1,0\n")
    files["measurements"].write_text("1\n2\n")
    files[target].write_text(text)
    with pytest.raises(SystemExit) as info:
        _run("reconstruct", "--graph", gpath, "--operator", files["operator"],
             "--measurements", files["measurements"], "--out", tmp_path / "x.csv")
    assert str(info.value).startswith(f"{files[target]}:{line}: ")
    assert problem in str(info.value) and "\n" not in str(info.value)
    assert not (tmp_path / "x.csv").exists()


def _reconstruct_inputs(tmp_path, n=3, m=2):
    gpath = tmp_path / "graph.txt"
    _run("generate", "--kind", "cycle", "--params", json.dumps({"n": n}), "--out", gpath)
    la.save_matrix_csv(tmp_path / "phi.csv", np.eye(n)[:m])
    la.save_matrix_csv(tmp_path / "y.csv", np.ones((m, 1)))
    return ["reconstruct", "--graph", gpath, "--operator", tmp_path / "phi.csv",
            "--measurements", tmp_path / "y.csv", "--out", tmp_path / "x.csv"]


def test_reconstruct_reports_graph_file_errors_by_line(tmp_path):
    argv = _reconstruct_inputs(tmp_path)
    (tmp_path / "graph.txt").write_text("3\n0 1\n1 1\n")
    with pytest.raises(SystemExit) as info:
        _run(*argv)
    assert str(info.value) == f"{tmp_path / 'graph.txt'}:3: self-loop 1"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("support, problem", [
    ("0,-1", "support index -1 is outside 0..4"),
    ("1,5", "support index 5 is outside 0..4"),
    ("2,0,2", "support indices must be distinct"),
])
def test_reconstruct_rejects_bad_support(tmp_path, support, problem):
    argv = _reconstruct_inputs(tmp_path, n=5, m=4)
    with pytest.raises(SystemExit) as info:
        _run(*argv, "--method", "ls", "--support", support)
    assert str(info.value) == f"--support {support}: {problem}"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("target", ["phi.csv", "y.csv"])
def test_reconstruct_rejects_an_empty_matrix_file(tmp_path, target):
    # an operator file without rows used to end in an IndexError traceback
    argv = _reconstruct_inputs(tmp_path)
    (tmp_path / target).write_text("# no rows\n\n")
    with pytest.raises(SystemExit) as info:
        _run(*argv)
    assert str(info.value) == f"{tmp_path / target}: no rows"


def test_reconstruct_names_files_that_do_not_fit_the_graph(tmp_path):
    argv = _reconstruct_inputs(tmp_path)
    la.save_matrix_csv(tmp_path / "phi.csv", np.eye(4))
    with pytest.raises(SystemExit) as info:
        _run(*argv)
    assert str(info.value) == (f"{tmp_path / 'phi.csv'}, {tmp_path / 'y.csv'}: "
                               "operator has 4 columns but the basis has 3 nodes")
