"""Experiment drivers: seeded sweeps over samplers with CSV result tables.

Seeding contract: every random object consumed by an experiment comes from a
seed derived as SHA-256 over the pipe-joined decimal/repr rendering of
(master seed, purpose tag, sweep value, trial index, ...), taking the first
8 digest bytes little-endian.  Identical configs and master seeds therefore
reproduce result tables bit for bit on one platform.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np
from scipy.sparse import csgraph

from . import __version__
from .baselines import (
    minpinv_greedy,
    successive_aggregations,
    uniform_node_sampling,
    weighted_node_sampling,
)
from .graph import (
    Graph,
    check_int,
    closed_in_neighborhood,
    generate,
    geometric_graph_from_positions,
    p_hop_graph,
)
from .recon import (
    SIGNAL_MODELS,
    SolverParams,
    SparseSignalSpec,
    bp_l1,
    bp_l1_many,
    ls_known_support,
    synthesize,
    to_db,
)
from .sampler import SamplingOperator, build_plan, draw_operator
from .spectral import BASIS_TAGS, OrthoBasis, build_basis, condition_number, dct_basis, gft_basis

SAMPLER_TAGS = ("proposed-insert", "proposed-repeat", "uniform", "weighted",
                "minpinv", "successive")
# these need the support at sampling time, so they are excluded from blind runs
SUPPORT_AWARE = ("weighted", "minpinv")
# plan-building strategy of each aggregation sampler
STRATEGY = {"proposed-insert": "insert-new", "proposed-repeat": "repeat-dominating"}
# these give at most n measurements: distinct nodes, or a plan of full row rank
AT_MOST_N = ("proposed-insert", "proposed-repeat", "uniform", "minpinv")


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed from a master seed and a tuple of labels/values."""
    def canon(p):
        if isinstance(p, float):
            return repr(p)
        return str(p)

    text = "|".join([str(int(master))] + [canon(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class ConfigError(ValueError):
    """An experiment config holds a key that nothing reads or a value that no run takes."""


def check_keys(d: dict, accepted, where: str, required=()) -> None:
    """Refuse keys of ``d`` outside ``accepted``, so a typo does not go unread,
    and refuse ``d`` if it lacks one of ``required``."""
    unknown = sorted(set(d) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(sorted(accepted))}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigError(f"missing {where} key(s) {', '.join(map(repr, missing))}")


def _solver_from_dict(d: dict) -> SolverParams:
    check_keys(d, [f.name for f in fields(SolverParams)], "solver")
    try:
        return SolverParams(**d)
    except ValueError as exc:
        raise ConfigError(f"solver {exc}") from None


def _check_real(name: str, value, positive: bool = False) -> None:
    """Refuse a value that is not a finite number >= 0 (> 0 when ``positive``)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        raise ConfigError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                          f"got {value!r}")


def _check_samplers(tags) -> None:
    for tag in tags:
        if tag not in SAMPLER_TAGS:
            raise ConfigError(f"unknown sampler tag {tag!r}")


@dataclass(frozen=True)
class GraphSpec:
    kind: str
    params: dict
    seed: int

    def build(self) -> Graph:
        try:
            return generate(self.kind, self.params, self.seed)
        except ValueError as exc:
            raise ConfigError(f"graph: {exc}") from None
        except KeyError as exc:
            # the builders index params by the names they need
            raise ConfigError(f"graph: missing parameter {exc.args[0]!r}") from None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        check_keys(d, ("kind", "params", "seed"), "graph", required=("kind", "params", "seed"))
        check_int("graph seed", d["seed"], 0, ConfigError)
        return cls(kind=d["kind"], params=dict(d["params"]), seed=d["seed"])


@dataclass
class ExperimentConfig:
    """Knobs for the known- and unknown-support sweeps."""

    graph: GraphSpec
    k: int
    samplers: tuple = ("proposed-insert",)
    basis: str = "gft-normalized"
    signal_model: str = "bandlimited"
    sweep_variable: str = "m"
    sweep_values: tuple = ()
    trials: int = 1
    master_seed: int = 0
    sigma: float = 0.0
    fixed_m: int | None = None
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        self.samplers = tuple(self.samplers)
        self.sweep_values = tuple(self.sweep_values)
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.sweep_variable not in ("m", "sigma"):
            raise ConfigError("sweep_variable must be 'm' or 'sigma'")
        if not self.sweep_values:
            raise ConfigError("sweep_values must be nonempty")
        # score_cell adds noise only when sigma > 0, so a NaN or negative level
        # would run noiseless under its own label
        _check_real("sigma", self.sigma)
        self.sigma = float(self.sigma)
        if self.sweep_variable == "sigma":
            for value in self.sweep_values:
                _check_real("swept sigma", value)
        if list(self.sweep_values) != sorted(set(self.sweep_values)):
            raise ConfigError("sweep values must be strictly increasing")
        _check_samplers(self.samplers)
        if self.basis not in BASIS_TAGS:
            raise ConfigError(f"unknown basis {self.basis!r}, expected one of {BASIS_TAGS}")
        if self.signal_model not in SIGNAL_MODELS:
            raise ConfigError(f"unknown signal_model {self.signal_model!r}, "
                              f"expected one of {SIGNAL_MODELS}")
        if self.sweep_variable == "sigma" and self.fixed_m is None:
            raise ConfigError("sweeping sigma requires fixed_m")

    def to_dict(self) -> dict:
        d = {
            "graph": self.graph.to_dict(),
            "k": self.k,
            "samplers": list(self.samplers),
            "basis": self.basis,
            "signal_model": self.signal_model,
            "sweep": {"variable": self.sweep_variable,
                      "values": list(self.sweep_values)},
            "trials": self.trials,
            "master_seed": self.master_seed,
            "sigma": self.sigma,
            "solver": asdict(self.solver),
        }
        if self.fixed_m is not None:
            d["fixed_m"] = self.fixed_m
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_keys(d, ("graph", "k", "samplers", "basis", "signal_model", "sweep", "trials",
                       "master_seed", "sigma", "fixed_m", "solver"), "config",
                   required=("graph", "k"))
        solver = _solver_from_dict(d.get("solver", {}))
        sweep = d.get("sweep", {})
        check_keys(sweep, ("variable", "values"), "sweep")
        # a count such as "trials": 2.5 is refused, not truncated
        for name, minimum in (("k", 1), ("trials", 1), ("master_seed", None), ("fixed_m", 1)):
            if name in d:
                check_int(name, d[name], minimum, ConfigError)
        if sweep.get("variable", "m") == "m":
            for m in sweep.get("values", ()):
                check_int("swept m", m, 1, ConfigError)
        return cls(
            graph=GraphSpec.from_dict(d["graph"]),
            k=d["k"],
            samplers=tuple(d.get("samplers", ("proposed-insert",))),
            basis=d.get("basis", "gft-normalized"),
            signal_model=d.get("signal_model", "bandlimited"),
            sweep_variable=sweep.get("variable", "m"),
            sweep_values=tuple(sweep.get("values", ())),
            trials=d.get("trials", 1),
            master_seed=d.get("master_seed", 0),
            sigma=d.get("sigma", 0.0),
            fixed_m=d.get("fixed_m"),
            solver=solver,
        )


class _OperatorFactory:
    """Realizes sampler tags as operators, caching what is deterministic."""

    def __init__(self, graph: Graph, basis: OrthoBasis):
        self.graph = graph
        self.basis = basis
        self._cache: dict = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def operator(self, tag: str, m: int, support, seed: int,
                 plan_seed: int) -> SamplingOperator:
        """Operator of sampler ``tag`` with budget m.

        ``seed`` drives the random draw of the operator, ``plan_seed`` the plan
        of an aggregation sampler; the support is read by the support-aware
        samplers only.
        """
        if tag in STRATEGY:
            plan = self._cached((tag, m, plan_seed),
                                lambda: build_plan(self.graph, m, STRATEGY[tag], seed=plan_seed))
            return draw_operator(plan, seed=seed)
        if tag == "uniform":
            return uniform_node_sampling(self.graph.n, m, seed=seed)
        if tag == "weighted":
            return weighted_node_sampling(self.basis, support, m, seed=seed)
        if tag == "minpinv":
            key = (tag, m, tuple(int(v) for v in np.asarray(support)))
            return self._cached(key, lambda: minpinv_greedy(self.basis, support, m))
        if tag == "successive":
            return self._cached((tag, m), lambda: successive_aggregations(self.graph, None, m))
        raise ValueError(f"unknown sampler tag {tag!r}")


def _check_k_fits(k: int, graph: Graph) -> None:
    if k > graph.n:
        raise ConfigError(f"k must be <= the graph's n = {graph.n}, got {k}")


def _check_m_fits(samplers, m: int, graph: Graph) -> None:
    for tag in samplers:
        if tag in AT_MOST_N and m > graph.n:
            raise ConfigError(f"m must be <= the graph's n = {graph.n} for sampler {tag!r}, "
                              f"got {m}")


def _sweep(config: ExperimentConfig, column: str, reduce, score_cell) -> list[dict]:
    """One row per sampler and sweep value, ``column`` = reduce(mean trial score).

    ``score_cell(basis, trials, sigma)`` returns or yields the scores of one
    cell's trials in trial order; ``trials`` yields each trial as
    ``(op, spec, x, trial_seed)``, the signal x drawn from spec and measured
    through op, drawing it only when asked for.
    """
    graph = config.graph.build()
    _check_k_fits(config.k, graph)
    m_max = max(config.sweep_values) if config.sweep_variable == "m" else config.fixed_m
    _check_m_fits(config.samplers, m_max, graph)
    basis = build_basis(graph, config.basis)
    factory = _OperatorFactory(graph, basis)
    rows = []
    for tag in config.samplers:
        for value in config.sweep_values:
            if config.sweep_variable == "m":
                m, sigma = int(value), config.sigma
            else:
                m, sigma = int(config.fixed_m), float(value)
            plan_seed = derive_seed(config.master_seed, "plan", tag, m)

            def draw(t):
                ts = derive_seed(config.master_seed, tag, value, t)
                spec = SparseSignalSpec.draw(graph.n, config.k, config.signal_model,
                                             derive_seed(ts, "signal"))
                x = synthesize(basis, spec)
                op = factory.operator(tag, m, spec.support, derive_seed(ts, "operator"),
                                      plan_seed)
                return op, spec, x, ts

            total = 0.0
            for score in score_cell(basis, map(draw, range(config.trials)), sigma):
                total += score
            rows.append({"sampler": tag, "sweep_variable": config.sweep_variable,
                         "sweep_value": value, column: reduce(total / config.trials),
                         "trials": config.trials})
    return rows


def run_known_support(config: ExperimentConfig) -> list[dict]:
    """Mean reconstruction error per sampler and sweep value, support given.

    Measurements are y = Phi (x + noise); reconstruction is least squares on
    the true support; per-point aggregation is the decibel value of the mean
    linear MSE over trials.
    """
    def score_cell(basis, trials, sigma):
        for op, spec, x, ts in trials:
            pre = x
            if sigma > 0:
                noise = np.random.default_rng(derive_seed(ts, "noise"))
                pre = x + sigma * noise.standard_normal(x.size)
            res = ls_known_support(op, basis, spec.support, op.phi @ pre)
            yield float(np.mean((res.x_star - x) ** 2))

    return _sweep(config, "mean_mse_db", to_db, score_cell)


def run_unknown_support(config: ExperimentConfig) -> list[dict]:
    """Perfect-recovery probability per sampler and budget, support unknown.

    Noiseless measurements, minimum-l1 reconstruction; a trial counts as
    recovered when its error lands below the -40 dB threshold.  Each cell's
    solves run through ``bp_l1_many``, in blocks of same-shape problems.
    """
    if config.sweep_variable != "m":
        raise ConfigError("blind recovery sweeps measurements only")
    if config.sigma != 0.0:
        raise ConfigError("blind recovery runs are noiseless")
    bad = [t for t in config.samplers if t in SUPPORT_AWARE]
    if bad:
        raise ConfigError(f"samplers {bad} need the support and cannot run blind")

    def score_cell(basis, trials, sigma):
        signals = []

        def problems():
            for op, _, x, _ in trials:
                signals.append(x)
                yield op, op.phi @ x

        results = bp_l1_many(problems(), basis, config.solver)
        return [float(res.scored(x).perfect) for res, x in zip(results, signals)]

    return _sweep(config, "recovery_prob", float, score_cell)


def condition_table(graph_spec: GraphSpec, k: int, m_values, trials: int,
                    master_seed: int, methods=("proposed-insert", "successive")) -> list[dict]:
    """Median conditioning of the support-restricted system per method and m.

    Each trial regenerates the graph, draws a random size-k support, realizes
    each method's operator and records cond(Phi @ U restricted to the support).
    """
    _check_samplers(methods)
    check_int("k", k, 1, ConfigError)
    check_int("trials", trials, 1, ConfigError)
    check_int("master_seed", master_seed, None, ConfigError)
    m_values = list(m_values)
    for m in m_values:
        check_int("m_values entry", m, 1, ConfigError)
    conds: dict = {(meth, m): [] for meth in methods for m in m_values}
    for t in range(trials):
        g = replace(graph_spec, seed=derive_seed(master_seed, "graph", t)).build()
        _check_k_fits(k, g)
        _check_m_fits(methods, max(m_values, default=0), g)
        basis = gft_basis(g, normalized=True)
        factory = _OperatorFactory(g, basis)
        rng = np.random.default_rng(derive_seed(master_seed, "support", t))
        support = np.sort(rng.choice(g.n, size=k, replace=False))
        u_s = basis.u[:, support]
        for meth in methods:
            for m in m_values:
                draw = "unif" if meth == "uniform" else "draw"
                op = factory.operator(meth, m, support, derive_seed(master_seed, draw, t, m),
                                      derive_seed(master_seed, "plan", t, m))
                conds[(meth, m)].append(condition_number(op.phi @ u_s))
    return [{"method": meth, "m": m, "median_cond": float(np.median(conds[(meth, m)])),
             "trials": trials}
            for meth in methods for m in m_values]


def dominating_curve(graph_spec: GraphSpec, p_max: int) -> list[dict]:
    """Greedy dominating-set size of the p-hop expansion for p = 1..p_max."""
    check_int("p_max", p_max, 1, ConfigError)
    graph = graph_spec.build()
    return [{"p": p, "dominating_size": int(p_hop_graph(graph, p).dominating_set.size)}
            for p in range(1, p_max + 1)]


# ---------------------------------------------------------------------------
# sensor-network tradeoff

@dataclass
class WsnScenario:
    """Random sensor field reporting compressed samples to a far base station."""

    n: int = 250
    k: int = 50
    radius: float = 0.2
    bs_distance_factor: float = 5.0
    cluster_head_counts: tuple = (5, 15, 30)
    m_values: tuple = (60, 90, 120, 150, 180)
    trials: int = 10
    master_seed: int = 0
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        self.cluster_head_counts = tuple(self.cluster_head_counts)
        self.m_values = tuple(self.m_values)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ConfigError("need 1 <= k <= n")
        for nc in self.cluster_head_counts:
            if not 1 <= nc <= self.n:
                raise ConfigError("cluster head counts must lie in [1, n]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["cluster_head_counts"] = list(self.cluster_head_counts)
        d["m_values"] = list(self.m_values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WsnScenario":
        check_keys(d, [f.name for f in fields(cls)], "config")
        for name, minimum in (("n", 1), ("k", 1), ("trials", 1), ("master_seed", None)):
            if name in d:
                check_int(name, d[name], minimum, ConfigError)
        for name in ("cluster_head_counts", "m_values"):
            for v in d.get(name, ()):
                check_int(f"{name} entry", v, 1, ConfigError)
        # a radius <= 0 leaves the fields edgeless and a NaN one pairs every
        # node; a NaN distance factor writes NaN powers
        for name in ("radius", "bs_distance_factor"):
            if name in d:
                _check_real(name, d[name], positive=True)
        d = dict(d)
        if "solver" in d:
            d["solver"] = _solver_from_dict(d["solver"])
        return cls(**d)


def _spatial_dct_basis(positions: np.ndarray) -> OrthoBasis:
    """DCT atoms laid over nodes sorted by (x, y); smooth fields become sparse."""
    n = positions.shape[0]
    order = np.lexsort((positions[:, 1], positions[:, 0]))
    base = dct_basis(n).u
    u = np.empty_like(base)
    u[order, :] = base
    return OrthoBasis(u=u)


def _forward_route_power(graph: Graph, plan) -> float:
    """Squared-distance cost of forwarding every aggregated scalar.

    Every node of a measurement's neighborhood sends its value to the
    aggregating node along the breadth-first shortest path on the original
    graph, paying the squared length of every edge walked.
    """
    pos = graph.positions
    total = 0.0
    for node in plan.nodes:
        node = int(node)
        nb = closed_in_neighborhood(plan.base_graph, node)
        _, pred = csgraph.breadth_first_order(graph.adjacency, node,
                                              return_predecessors=True)
        for j in nb:
            j = int(j)
            cur = j
            while cur != node:
                par = int(pred[cur])
                total += float(((pos[cur] - pos[par]) ** 2).sum())
                cur = par
    return total


def _largest_remainder(m: int, sizes: np.ndarray) -> np.ndarray:
    quota = m * sizes / sizes.sum()
    alloc = np.floor(quota).astype(np.int64)
    frac = quota - alloc
    leftover = m - int(alloc.sum())
    order = np.argsort(-frac, kind="stable")
    alloc[order[:leftover]] += 1
    return alloc


def wsn_experiment(scenario: WsnScenario) -> list[dict]:
    """Power/error tradeoff of aggregated sampling against in-cluster sensing.

    Both approaches push m scalars to the base station (cost m * d_bs^2) and
    reconstruct blindly via l1 minimization in a spatial DCT basis; they
    differ in how measurements are formed and what in-network forwarding
    costs.  Returns one row per method and budget with mean powers and mean
    reconstruction error.
    """
    ms = scenario.master_seed
    d_bs2 = float(scenario.bs_distance_factor) ** 2
    agg: dict = {}        # (method, m) -> per-trial (intra-network power, mse)
    redraws: dict = {}    # method -> head redraws summed over trials
    for t in range(scenario.trials):
        rng_pos = np.random.default_rng(derive_seed(ms, "positions", t))
        pos = rng_pos.random((scenario.n, 2))
        graph = geometric_graph_from_positions(pos, scenario.radius)
        basis = _spatial_dct_basis(pos)
        spec = SparseSignalSpec(support=np.arange(scenario.k), model="bandlimited",
                                seed=derive_seed(ms, "signal", t))
        x = synthesize(basis, spec)

        for m in scenario.m_values:
            plan = build_plan(graph, m, "insert-new",
                              seed=derive_seed(ms, "plan", t, m))
            op = draw_operator(plan, seed=derive_seed(ms, "draw", t, m))
            res = bp_l1(op, basis, op.phi @ x, scenario.solver)
            err = float(np.mean((res.x_star - x) ** 2))
            agg.setdefault(("proposed", m), []).append(
                (_forward_route_power(graph, plan), err))

        for nc in scenario.cluster_head_counts:
            method = f"cluster-{nc}"
            heads, members, tries = _draw_clusters(scenario, pos, t, nc)
            redraws[method] = redraws.get(method, 0) + tries - 1
            sizes = np.asarray([members[c].size for c in range(nc)])
            dists2 = [((pos[members[c]] - pos[heads[c]]) ** 2).sum(axis=1)
                      for c in range(nc)]
            for m in scenario.m_values:
                alloc = _largest_remainder(m, sizes)
                rng = np.random.default_rng(derive_seed(ms, "cluster-draw", t, nc, m))
                phi = np.zeros((m, scenario.n))
                row = 0
                p_intra = 0.0
                for c in range(nc):
                    mc = int(alloc[c])
                    if mc == 0:
                        continue
                    cols = members[c]
                    phi[row:row + mc, cols] = rng.standard_normal((mc, cols.size))
                    row += mc
                    # the head's own reading travels distance zero
                    p_intra += mc * float(dists2[c].sum())
                op = SamplingOperator(phi=phi)
                res = bp_l1(op, basis, op.phi @ x, scenario.solver)
                err = float(np.mean((res.x_star - x) ** 2))
                agg.setdefault((method, m), []).append((p_intra, err))

    rows = []
    for (method, m), vals in agg.items():
        intra, err = np.asarray(vals).T
        p_bs = m * d_bs2
        rows.append({
            "method": method, "m": m,
            "mean_power": float(intra.mean() + p_bs),
            "mean_power_intra": float(intra.mean()),
            "mean_power_bs": p_bs,
            "mean_mse_db": to_db(float(err.mean())),
            "trials": scenario.trials,
            "head_redraws": redraws.get(method, 0),
        })
    return rows


def _draw_clusters(scenario: WsnScenario, pos: np.ndarray, trial: int, nc: int):
    """Heads plus nearest-head membership; redraw on a degenerate clustering."""
    for attempt in range(64):
        rng = np.random.default_rng(derive_seed(scenario.master_seed, "heads",
                                                trial, nc, attempt))
        heads = rng.choice(scenario.n, size=nc, replace=False)
        d2 = ((pos[:, None, :] - pos[heads][None, :, :]) ** 2).sum(axis=2)
        owner = np.argmin(d2, axis=1)
        members = [np.flatnonzero(owner == c) for c in range(nc)]
        if all(ms.size > 0 for ms in members):
            return heads, members, attempt + 1
    raise RuntimeError("could not draw a clustering without empty clusters")


# ---------------------------------------------------------------------------
# result files

def write_csv(path, rows: list[dict], fieldnames: list[str], meta: dict) -> None:
    """Result table with a leading comment line carrying provenance."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + ", ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def result_meta(payload: dict, master_seed: int) -> dict:
    return {"config-hash": config_hash(payload), "seed": master_seed,
            "version": __version__}
