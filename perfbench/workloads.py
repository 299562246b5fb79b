"""The three benchmark workloads: seeded set-up plus one closed-loop trial at a time.

Every workload takes its seed from run.py and hands the library only the
inputs generated from it.  ``setup(lib, seed)`` builds what stays fixed over
a run and is what ``setup_s`` times; ``prepare(state)`` then adds, untimed,
what only the benchmark needs, such as a trial schedule; ``trial(lib, state,
i)`` runs trial i and returns a ``TrialResult``.
``lib`` holds the library entry points, plain or traced (see tracing.py);
calls outside the traced layers go to localagg directly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from localagg import (
    GraphSpec,
    SolverParams,
    SparseSignalSpec,
    WsnScenario,
    connected_components,
    derive_seed,
    greedy_dominating_set,
    measure,
    p_hop_graph,
    synthesize,
)
from localagg.recon import PERFECT_DB


class OutputCheckError(Exception):
    """A library output failed the benchmark's correctness check."""


@dataclass
class TrialResult:
    solves: int        # recoveries scored against the -40 dB gate
    recovered: int     # of those, how many passed it
    digest: str        # fingerprint of every output, to compare traced and plain runs


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise OutputCheckError(message)


def _check_bp(op, res, y) -> None:
    """bp_l1 returns its projection-side iterate, feasible even when capped."""
    _check(bool(np.all(np.isfinite(res.x_star))), "bp_l1 estimate is not finite")
    gap = float(np.linalg.norm(op.phi @ res.x_star - y))
    _check(gap <= 1e-6 * float(np.linalg.norm(y)),
           f"bp_l1 estimate misses the measurements by {gap:.3e}")


class Workload:
    setup_repeats = 5
    calls_harness = False   # layer calls happen inside localagg.harness
    probe_sizes = (100, 400, 1000)   # gauge.py probe sizes spanning the working set
    traced_trials: int   # trials of a traced run, fixed so its counts repeat at a seed

    def prepare(self, st: dict) -> None:
        pass

    def trials_available(self, st: dict) -> int:
        return sys.maxsize


# ---------------------------------------------------------------------------
# blind-community: acceptance criterion 6's sweep, plans cached in set-up

class BlindCommunity(Workload):
    name = "blind-community"
    probe_sizes = (100,)    # every array of a trial is n = 100 wide and cache-resident
    traced_trials = 600
    graph_spec = GraphSpec("community", {"n": 100, "n_communities": 5,
                                         "p_intra": 0.1, "p_inter": 0.001}, seed=7)
    k = 10
    samplers = ("proposed-insert", "uniform")
    budgets = (50, 70, 90)
    solver = SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=4000)
    cells = tuple(itertools.product(samplers, budgets))

    def setup(self, lib, seed: int) -> dict:
        spec = self.graph_spec
        graph = lib.generate(spec.kind, spec.params, spec.seed)
        basis = lib.gft_basis(graph)
        # the plan seeds harness._OperatorFactory uses for the same master seed
        plans = {m: lib.build_plan(graph, m, "insert-new",
                                   seed=derive_seed(seed, "plan", "proposed-insert", m))
                 for m in self.budgets}
        return {"seed": seed, "graph": graph, "basis": basis, "plans": plans}

    def trial(self, lib, st: dict, i: int) -> TrialResult:
        # trial i is harness.run_unknown_support's trial i // 6 of cell i % 6
        tag, m = self.cells[i % len(self.cells)]
        ts = derive_seed(st["seed"], tag, m, i // len(self.cells))
        n, basis = st["graph"].n, st["basis"]
        spec = SparseSignalSpec.draw(n, self.k, "random-support", derive_seed(ts, "signal"))
        x = synthesize(basis, spec)
        op_seed = derive_seed(ts, "operator")
        if tag == "uniform":
            op = lib.uniform_node_sampling(n, m, seed=op_seed)
        else:
            op = lib.draw_operator(st["plans"][m], seed=op_seed)
        y = measure(op, x)
        res = lib.bp_l1(op, basis, y, self.solver).scored(x)
        _check_bp(op, res, y)
        return TrialResult(1, int(res.perfect), _digest(res.x_star, res.solver_stats))


# ---------------------------------------------------------------------------
# sampling-rgg2000: one fresh plan per trial at the scaling size

def _stride_order(size: int, offset: int) -> list[int]:
    """All of range(size) in a golden-ratio stride order starting at ``offset``.

    Any prefix of the order covers the range nearly evenly, so the budgets a
    time-limited run reaches, and their cost, do not drift with its length.
    """
    step = max(1, round(size * 0.618))
    while math.gcd(step, size) != 1:
        step += 1
    return [(offset + j * step) % size for j in range(size)]


class SamplingRgg2000(Workload):
    name = "sampling-rgg2000"
    setup_repeats = 3
    traced_trials = 45
    # One fixed connected graph: across seeds, per-graph differences in the
    # dominating-set sizes moved the trial rate by 11 % (IQR over 8 graphs).
    graph_spec = GraphSpec("random-geometric", {"n": 2000, "radius": 0.06}, seed=2000)
    k = 20
    insert_over = 150   # insert-new budgets run from |dom of 2-hop| to |dom| + this
    repeat_over = 30    # repeat-dominating budgets sit 1..this above a dominating set

    def setup(self, lib, seed: int) -> dict:
        spec = self.graph_spec
        graph = lib.generate(spec.kind, spec.params, spec.seed)
        return {"seed": seed, "graph": graph, "basis": lib.gft_basis(graph)}

    def prepare(self, st: dict) -> None:
        graph = st["graph"]
        if np.unique(connected_components(graph)).size != 1:
            raise RuntimeError("the sampling-rgg2000 graph is not connected")
        dom = [int(greedy_dominating_set(graph).size),
               int(greedy_dominating_set(p_hop_graph(graph, 2)).size),
               int(greedy_dominating_set(p_hop_graph(graph, 3)).size)]
        # Budgets below |dom| take the p-hop search path, budgets above it the
        # growth path; each (strategy, m) occurs once, so no plan can be reused.
        insert = list(range(dom[1] + 1, dom[0] + self.insert_over + 1))
        repeat = sorted({d + o for d in dom for o in range(1, self.repeat_over + 1)})
        rng = np.random.default_rng(derive_seed(st["seed"], "budget-order"))
        orders = [[("insert-new", insert[j])
                   for j in _stride_order(len(insert), int(rng.integers(len(insert))))],
                  [("repeat-dominating", repeat[j])
                   for j in _stride_order(len(repeat), int(rng.integers(len(repeat))))]]
        st["schedule"] = [orders[i % 2][i // 2] for i in range(2 * min(map(len, orders)))]

    def trials_available(self, st: dict) -> int:
        return len(st["schedule"])

    def trial(self, lib, st: dict, i: int) -> TrialResult:
        strategy, m = st["schedule"][i]
        seed, graph, basis = st["seed"], st["graph"], st["basis"]
        plan = lib.build_plan(graph, m, strategy, seed=derive_seed(seed, "plan", strategy, m))
        op = lib.draw_operator(plan, seed=derive_seed(seed, "draw", strategy, m))
        spec = SparseSignalSpec.draw(graph.n, self.k, "random-support",
                                     derive_seed(seed, "signal", strategy, m))
        x = synthesize(basis, spec)
        y = measure(op, x)
        res = lib.ls_known_support(op, basis, spec.support, y).scored(x)
        _check(bool(np.all(np.isfinite(res.x_star))), "ls estimate is not finite")
        # noiseless known-support recovery is exact (acceptance criterion 3's standard)
        _check(res.mse_db <= -200.0, f"ls_known_support reached only {res.mse_db:.1f} dB")
        return TrialResult(1, int(res.perfect), _digest(plan.nodes, res.x_star))


# ---------------------------------------------------------------------------
# wsn-field: one sensor field per trial through harness.wsn_experiment

class WsnField(Workload):
    name = "wsn-field"
    calls_harness = True
    traced_trials = 5
    fields = 256        # more fields than a 60 s run reaches at the seed commit
    solver = SolverParams(tol_abs=1e-7, tol_rel=1e-7, max_iter=6000)

    def setup(self, lib, seed: int) -> dict:
        # No library work: every field builds its graph, basis and plans inside
        # the trial, so setup_s here times only this list.  It still shows work
        # that a change moves out of the trial and ahead of the first field.
        scenarios = [WsnScenario(trials=1, master_seed=derive_seed(seed, "field", f),
                                 solver=self.solver) for f in range(self.fields)]
        return {"scenarios": scenarios}

    def trials_available(self, st: dict) -> int:
        return len(st["scenarios"])

    def trial(self, lib, st: dict, i: int) -> TrialResult:
        sc = st["scenarios"][i]
        rows = lib.wsn_experiment(sc)
        expected = (1 + len(sc.cluster_head_counts)) * len(sc.m_values)
        _check(len(rows) == expected, f"wsn_experiment gave {len(rows)} rows, not {expected}")
        d_bs = sc.bs_distance_factor
        for r in rows:
            _check(all(math.isfinite(r[key]) for key in
                       ("mean_power", "mean_power_intra", "mean_power_bs", "mean_mse_db")),
                   f"non-finite wsn row {r}")
            _check(r["mean_power_bs"] == r["m"] * d_bs ** 2,
                   f"base-station power {r['mean_power_bs']} != m * d_bs^2 in {r}")
        # with trials=1 each row is exactly one bp_l1 solve
        recovered = sum(r["mean_mse_db"] < PERFECT_DB for r in rows)
        return TrialResult(len(rows), recovered, _digest(rows))


WORKLOADS = {w.name: w for w in (BlindCommunity(), SamplingRgg2000(), WsnField())}
