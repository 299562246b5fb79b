"""In-memory spans around the benchmark's calls into each library layer.

A span records its name, its parent span, start and end times and a few
counts read off the call's result after the clock stops.  Spans are kept in a
list and reduced to per-layer metrics once the traced run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from localagg import baselines, graph, harness, recon, sampler, spectral


def _bp_counts(res) -> dict:
    # bp_l1 leaves its loop early only on convergence, so not converged means capped
    stats = res.solver_stats
    return {"iterations": int(stats["iterations"]), "converged": bool(stats["converged"])}


def _plan_counts(plan) -> dict:
    return {"insertions": plan.m - int(plan.dominating_set.size)}


def _operator_counts(op) -> dict:
    return {"nnz": int(np.count_nonzero(op.phi))}


# layer name -> (library function, counts read off its result)
LAYERS = {
    "graph.generate": (graph.generate, None),
    "spectral.gft_basis": (spectral.gft_basis, None),
    "sampler.build_plan": (sampler.build_plan, _plan_counts),
    "sampler.draw_operator": (sampler.draw_operator, _operator_counts),
    "baselines.uniform_node_sampling": (baselines.uniform_node_sampling, None),
    "recon.bp_l1": (recon.bp_l1, _bp_counts),
    "recon.ls_known_support": (recon.ls_known_support, None),
    "harness.wsn_experiment": (harness.wsn_experiment, None),
}

# names that localagg.harness imports and calls inside wsn_experiment
HARNESS_IMPORTS = {
    "geometric_graph_from_positions": ("graph.generate", graph.geometric_graph_from_positions,
                                       None),
    "dct_basis": ("spectral.dct_basis", spectral.dct_basis, None),
    "build_plan": ("sampler.build_plan", sampler.build_plan, _plan_counts),
    "draw_operator": ("sampler.draw_operator", sampler.draw_operator, _operator_counts),
    "bp_l1": ("recon.bp_l1", recon.bp_l1, _bp_counts),
}


def plain_layers() -> SimpleNamespace:
    """The unmodified library functions, under their short names."""
    return SimpleNamespace(**{name.rsplit(".", 1)[1]: fn for name, (fn, _) in LAYERS.items()})


class Tracer:
    """Collects spans; each span is [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._open[-1] if self._open else -1, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec[4] = counts(out)   # read after the clock stopped
            return out

        return traced

    def layers(self) -> SimpleNamespace:
        """Traced stand-ins for ``plain_layers()``."""
        return SimpleNamespace(**{name.rsplit(".", 1)[1]: self.wrap(name, fn, counts)
                                  for name, (fn, counts) in LAYERS.items()})

    @contextmanager
    def harness_patched(self):
        """Swap timing wrappers into the names localagg.harness calls, then restore them."""
        saved = {attr: getattr(harness, attr) for attr in HARNESS_IMPORTS}
        try:
            for attr, (name, fn, counts) in HARNESS_IMPORTS.items():
                setattr(harness, attr, self.wrap(name, fn, counts))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(harness, attr, fn)


def _durations(spans) -> tuple[np.ndarray, np.ndarray]:
    """Each span's duration and the summed duration of its direct children."""
    dur = np.array([s[3] - s[2] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child[s[1]] += d
    return dur, child


def layer_metrics(spans) -> dict:
    """Per-layer metrics, as name -> (value, unit), from one traced run's spans."""
    dur, child = _durations(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name):
        return float(dur[by_name.get(name, [])].sum())

    def calls(name):
        return len(by_name.get(name, []))

    out = {}
    bp = by_name.get("recon.bp_l1", [])
    iters = np.array([spans[i][4]["iterations"] for i in bp], dtype=np.int64)
    converged = np.array([spans[i][4]["converged"] for i in bp], dtype=bool)
    bp_s = total("recon.bp_l1")
    out["recon.bp_l1.s"] = (bp_s, "s")
    out["recon.bp_l1.calls"] = (calls("recon.bp_l1"), "count")
    out["recon.bp_l1.iterations"] = (int(iters.sum()), "count")
    out["recon.bp_l1.iter_p50"] = (float(np.median(iters)) if bp else 0.0, "count")
    out["recon.bp_l1.iter_max"] = (int(iters.max()) if bp else 0, "count")
    out["recon.bp_l1.us_per_iter"] = (1e6 * bp_s / iters.sum() if bp else 0.0, "us")
    out["recon.bp_l1.converged_frac"] = (float(converged.mean()) if bp else 0.0, "frac")
    capped_s = float(dur[np.asarray(bp, dtype=np.int64)[~converged]].sum()) if bp else 0.0
    out["recon.bp_l1.capped_s_frac"] = (capped_s / bp_s if bp else 0.0, "frac")

    plans = by_name.get("sampler.build_plan", [])
    insertions = sum(spans[i][4]["insertions"] for i in plans)
    plan_s = total("sampler.build_plan")
    out["sampler.build_plan.s"] = (plan_s, "s")
    out["sampler.build_plan.calls"] = (len(plans), "count")
    out["sampler.build_plan.insertions"] = (insertions, "count")
    out["sampler.build_plan.us_per_insertion"] = (
        1e6 * plan_s / insertions if insertions else 0.0, "us")

    draws = by_name.get("sampler.draw_operator", [])
    out["sampler.draw_operator.s"] = (total("sampler.draw_operator"), "s")
    out["sampler.draw_operator.calls"] = (len(draws), "count")
    out["sampler.draw_operator.nnz"] = (sum(spans[i][4]["nnz"] for i in draws), "count")

    out["baselines.uniform_node_sampling.s"] = (total("baselines.uniform_node_sampling"), "s")
    out["recon.ls_known_support.s"] = (total("recon.ls_known_support"), "s")
    out["recon.ls_known_support.calls"] = (calls("recon.ls_known_support"), "count")
    out["spectral.gft_basis.s"] = (total("spectral.gft_basis"), "s")
    out["spectral.dct_basis.s"] = (total("spectral.dct_basis"), "s")
    out["graph.generate.s"] = (total("graph.generate"), "s")

    wsn = by_name.get("harness.wsn_experiment", [])
    out["harness.self_s"] = (float((dur[wsn] - child[wsn]).sum()), "s")
    trials = by_name.get("trial", [])
    out["trace.uncovered_s"] = (float((dur[trials] - child[trials]).sum()), "s")
    return out
