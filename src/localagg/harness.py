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
import multiprocessing
import multiprocessing.connection
import os
import traceback
from dataclasses import MISSING, dataclass, field, fields, asdict
from functools import partial

import numpy as np

from . import __version__, recon
from .baselines import successive_aggregations, uniform_node_sampling
from .graph import (
    SEEDLESS_KINDS,
    Graph,
    check_int,
    check_real,
    check_seed,
    generate,
    geometric_graph_from_positions,
    p_hop_graph,
)
from .recon import (
    SIGNAL_MODELS,
    SolverParams,
    SparseSignalSpec,
    bp_l1,
    ls_known_support,
    synthesize,
    to_db,
)
from .sampler import SamplingOperator, _closed_rows, build_plan, draw_operator
from .spectral import OrthoBasis, condition_number, dct_basis, gft_basis

SAMPLER_TAGS = ("proposed-insert", "proposed-repeat", "uniform", "successive")
# plan-building strategy of each aggregation sampler
STRATEGY = {"proposed-insert": "insert-new", "proposed-repeat": "repeat-dominating"}
# these give at most n measurements: distinct nodes, or a plan of full row rank
AT_MOST_N = ("proposed-insert", "proposed-repeat", "uniform")
# the conditioning table compares aggregation against successive powers
CONDITION_METHODS = ("proposed-insert", "successive")


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed from a master seed and a tuple of labels/values."""
    def canon(p):
        if isinstance(p, float):
            # float() first: numpy 2 renders an np.float64 as "np.float64(0.01)"
            return repr(float(p))
        return str(p)

    text = "|".join([str(int(master))] + [canon(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class ConfigError(ValueError):
    """An experiment config holds a key that nothing reads or a value that no run takes."""


def _typed(label: str, value, json_type: type):
    """``value`` if it is a JSON list (``json_type`` list) or object (dict)."""
    if not isinstance(value, json_type):
        raise ConfigError(f"{label} must be {'a list' if json_type is list else 'an object'}, "
                          f"got {value!r}")
    return value


def _label(where: str, key: str) -> str:
    """How a message names a config value, e.g. "k" or "graph seed"."""
    return key if where == "config" else f"{where} {key}"


def _read(d, where: str, types: dict, required=()) -> dict:
    """The values of the JSON object ``d``, read by ``types`` (key -> field
    annotation); an unknown key, so a typo, and a missing required one are
    refused.  The values themselves are checked by the config they build."""
    unknown = sorted(set(_typed(where, d, dict)) - set(types))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(sorted(types))}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigError(f"missing {where} key(s) {', '.join(map(repr, missing))}")
    values = {}
    for key, value in d.items():
        reader = _READERS.get(types[key])
        values[key] = value if reader is None else reader(_label(where, key), value)
    return values


def _solver_from_dict(d) -> SolverParams:
    values = _read(d, "solver", *_schema(SolverParams))
    try:
        return SolverParams(**values)
    except ValueError as exc:
        raise ConfigError(f"solver {exc}") from None


# how _read reads a value, by the annotation of its field
_READERS = {
    "tuple": lambda label, value: tuple(_typed(label, value, list)),
    "dict": lambda label, value: dict(_typed(label, value, dict)),
    "GraphSpec": lambda label, value: GraphSpec.from_dict(value),
    "SolverParams": lambda label, value: _solver_from_dict(value),
}


def _check_samplers(label, tags) -> None:
    _nonempty(label, tags)
    for tag in tags:
        if tag not in SAMPLER_TAGS:
            raise ConfigError(f"unknown sampler tag {tag!r}")
    _distinct(label, tags)


# the value checks of the config tables, each called as check(label, value)
_count = partial(check_int, minimum=1, error=ConfigError)
_seed = partial(check_int, error=ConfigError)
_real = partial(check_real, error=ConfigError)
_positive = partial(check_real, positive=True, error=ConfigError)


def _nonempty(label: str, values) -> None:
    """Refuse an empty list, which would select no result row."""
    if not values:
        raise ConfigError(f"{label} must be nonempty")


def _distinct(label: str, values) -> None:
    """Refuse a repeated entry, whose rows would be written twice or merged."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{label} repeats {value!r}")


def _counts(label: str, values) -> None:
    for value in values:
        _count(f"{label} entry", value)
    _distinct(label, values)


def _budgets(label: str, values) -> None:
    _nonempty(label, values)
    _counts(label, values)


def _schema(cls) -> tuple[dict, list]:
    """The annotation of each field of a dataclass by name, and the fields without a default."""
    return ({f.name: f.type for f in fields(cls)},
            [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING])


class _Config:
    """A config that one JSON object spells out: its keys are the dataclass
    fields, and those without a default are required.  ``CHECKS`` maps a field
    to the check of its value, which construction runs (``wsn_experiment`` for a
    ``WsnScenario``), so a config read from a file or built in code is checked."""

    WHERE = "config"

    def __post_init__(self):
        for name, rule in self.CHECKS.items():
            rule(_label(self.WHERE, name), getattr(self, name))

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**_read(d, cls.WHERE, *_schema(cls)))

    def to_dict(self) -> dict:
        """The JSON object of the config; a field left as None, nested or not, is left out."""
        d = asdict(self, dict_factory=lambda items: {k: v for k, v in items if v is not None})
        return {key: list(value) if isinstance(value, tuple) else value for key, value in d.items()}


def _seeded(label: str, spec: "GraphSpec") -> None:
    """Refuse a graph of a random kind without the seed that its run draws it from."""
    if spec.seed is None and spec.kind not in SEEDLESS_KINDS:
        raise ConfigError(f"missing {label} key(s) 'seed'")


def _unseeded(label: str, spec: "GraphSpec") -> None:
    if spec.seed is not None:
        raise ConfigError(f"{label} seed is not read by condition-table, "
                          f"whose trials draw their graphs from master_seed")


@dataclass(frozen=True)
class GraphSpec(_Config):
    kind: str
    params: dict
    seed: int | None = None

    WHERE = "graph"

    def __post_init__(self):
        if self.seed is not None:
            check_seed("graph seed", self.seed, self.kind, "graph kind", ConfigError)

    def build(self, seed: int | None = None) -> Graph:
        """The graph, drawn from ``seed`` if given, else from the spec's; never from OS entropy."""
        if seed is None:
            _seeded("graph", self)
            seed = self.seed or 0
        try:
            return generate(self.kind, self.params, seed)
        except ValueError as exc:
            raise ConfigError(f"graph: {exc}") from None


@dataclass
class ExperimentConfig(_Config):
    """Knobs for the known- and unknown-support sweeps: a sweep of the noise
    level sigma at ``fixed_m`` when that is set, else of the budget m."""

    graph: GraphSpec
    k: int
    samplers: tuple = ("proposed-insert",)
    signal_model: str = "bandlimited"
    sweep_values: tuple = ()
    trials: int = 1
    master_seed: int = 0
    fixed_m: int | None = None
    solver: SolverParams = field(default_factory=SolverParams)

    # a count such as "trials": 2.5 is refused, not truncated
    CHECKS = {"graph": _seeded, "k": _count, "trials": _count, "master_seed": _seed,
              "samplers": _check_samplers}

    @property
    def sweep_variable(self) -> str:
        """What the sweep values set: "sigma" at a fixed m, else "m"."""
        return "m" if self.fixed_m is None else "sigma"

    def __post_init__(self):
        self.samplers = tuple(self.samplers)
        self.sweep_values = tuple(self.sweep_values)
        super().__post_init__()
        if self.fixed_m is not None:
            _count("fixed_m", self.fixed_m)
        _nonempty("sweep_values", self.sweep_values)
        # _known_cell adds noise only when sigma > 0, so a NaN or negative swept
        # level would run noiseless under its own label
        swept = _count if self.sweep_variable == "m" else _real
        for value in self.sweep_values:
            swept(f"swept {self.sweep_variable}", value)
        if list(self.sweep_values) != sorted(set(self.sweep_values)):
            raise ConfigError("sweep values must be strictly increasing")
        if self.signal_model not in SIGNAL_MODELS:
            raise ConfigError(f"unknown signal_model {self.signal_model!r}, "
                              f"expected one of {SIGNAL_MODELS}")


@dataclass
class ConditionTableConfig(_Config):
    """Knobs for the conditioning table."""

    graph: GraphSpec
    k: int
    m_values: tuple
    trials: int = 10
    master_seed: int = 0

    CHECKS = {"graph": _unseeded, "k": _count, "trials": _count, "master_seed": _seed,
              "m_values": _budgets}


@dataclass
class DominatingCurveConfig(_Config):
    """Knobs for the dominating-set curve."""

    graph: GraphSpec
    p_max: int = 4

    CHECKS = {"graph": _seeded, "p_max": _count}

    @property
    def master_seed(self) -> int | None:
        """The seed a result table names, the graph's: a seedless kind has none."""
        return self.graph.seed


class _OperatorFactory:
    """Realizes sampler tags as operators, caching what is deterministic."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._cache: dict = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def operator(self, tag: str, m: int, seed: int) -> SamplingOperator:
        """Operator of sampler ``tag`` with budget m; ``seed`` drives its random draw.

        An aggregation sampler's plan is deterministic, so one plan serves every draw.
        """
        if tag in STRATEGY:
            plan = self._cached((tag, m), lambda: build_plan(self.graph, m, STRATEGY[tag]))
            return draw_operator(plan, seed=seed)
        if tag == "uniform":
            return uniform_node_sampling(self.graph.n, m, seed=seed)
        # every config checks its tags against SAMPLER_TAGS, so this is "successive"
        return self._cached((tag, m), lambda: successive_aggregations(self.graph, m))


def _check_fits(graph: Graph, k: int, samplers, m: int) -> None:
    if k > graph.n:
        raise ConfigError(f"k must be <= the graph's n = {graph.n}, got {k}")
    for tag in samplers:
        if tag in AT_MOST_N and m > graph.n:
            raise ConfigError(f"m must be <= the graph's n = {graph.n} for sampler {tag!r}, "
                              f"got {m}")


def _one_blas_thread(environ) -> bool:
    """Whether ``environ`` holds BLAS to one thread.  OpenBLAS, which numpy's
    wheels bundle, reads its thread count from ``OPENBLAS_NUM_THREADS`` or,
    if that is unset, from ``OMP_NUM_THREADS``."""
    return environ.get("OPENBLAS_NUM_THREADS", environ.get("OMP_NUM_THREADS")) == "1"


# BLAS fixes its thread count when numpy loads.  A threaded BLAS already
# spreads one process over the CPUs, and forked workers would each start its
# threads again (on a 2-vCPU Xeon VM the test suite took 122 s with workers
# and 88 s without), so _map_in_order forks only over a BLAS held to one thread.
_ONE_BLAS_THREAD = _one_blas_thread(os.environ)


def _run_taken(fn, units: list, counter):
    """Run the units this process takes from the shared ``counter``, in index
    order across all processes, and yield each as (index, ok, result or error).
    A failure hands out no further unit: every lower index is taken by then."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(units):
            return
        try:
            ok, value = True, fn(*units[i])
        except Exception as exc:
            with counter.get_lock():
                counter.value = len(units)
            ok, value = False, exc
        yield i, ok, value


def _work(fn, units: list, counter, send) -> None:
    """A forked child's loop: send each unit it runs as (index, ok, result or error).
    A value that does not pickle ends the child, and the caller reports its unit lost."""
    for i, ok, value in _run_taken(fn, units, counter):
        if not ok:   # a pickled error leaves its traceback behind, so send its text along
            value.__notes__ = [*getattr(value, "__notes__", ()), "raised in a forked worker:\n"
                               + "".join(traceback.format_exception(value)).rstrip()]
        send.send((i, ok, value))


def _map_in_order(fn, units: list) -> list:
    """``[fn(*unit) for unit in units]``, run by this process beside one forked
    child per further CPU.

    Every process takes the next unit index from one shared counter, so units
    start in index order.  The children inherit ``fn`` and ``units`` at the
    fork, so nothing of them is pickled; each sends its results back through
    its own pipe, and they are returned in unit order, so a reduction over
    them keeps its order and bits.  A failing unit stops the handing out of
    further units, and the error raised is the lowest-index failing unit's,
    with its own type and message, as the serial loop raises it.  A child
    that ends without returning its unit raises an error naming that unit.
    Every child is killed and reaped on every path.

    The units run in this process alone when one CPU or one unit leaves
    nothing to share; when BLAS was not held to one thread
    (``_ONE_BLAS_THREAD``), as the runner script and the benchmark hold it;
    on a platform without CPU affinity masks (macOS, Windows), where forking
    is unsafe or missing; and when this module's ``bp_l1`` is a stand-in,
    such as the timing wrapper of ``perfbench/tracing.py``, whose records of
    a child's solves would never reach this process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(units)) if _ONE_BLAS_THREAD else 1
    if workers < 2 or bp_l1 is not recon.bp_l1:
        return [fn(*unit) for unit in units]
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    children, pipes, results = [], [], {}

    def receive(ready) -> None:
        for conn in ready:
            try:
                i, ok, value = conn.recv()
                results[i] = ok, value
            except EOFError:   # the child has exited
                pipes.remove(conn)
                conn.close()

    try:
        for _ in range(workers - 1):
            conn, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_work, args=(fn, units, counter, send))
            child.start()
            children.append(child)
            send.close()   # before the next fork, so only its child holds the sending end
            pipes.append(conn)
        for i, ok, value in _run_taken(fn, units, counter):
            results[i] = ok, value
            receive(multiprocessing.connection.wait(pipes, 0))   # a child blocks once its pipe fills
        while pipes:
            receive(multiprocessing.connection.wait(pipes))
    finally:
        for child in children:
            child.kill()
            child.join()
        for conn in pipes:
            conn.close()
    for i in range(len(units)):
        if i not in results:
            codes = ", ".join(str(child.exitcode) for child in children)
            raise RuntimeError(f"unit {i} was lost: a worker process ended before returning it "
                               f"(exit codes {codes})")
        if not results[i][0]:
            raise results[i][1]
    return [results[i][1] for i in range(len(units))]


@dataclass(frozen=True)
class _Sweep:
    """What every cell of a sweep reads: built once, shared by the workers that run the cells."""

    config: ExperimentConfig
    graph: Graph
    basis: OrthoBasis
    factory: _OperatorFactory

    def point(self, value) -> tuple[int, float]:
        """(m, sigma) at sweep value ``value``: an m sweep is noiseless."""
        if self.config.sweep_variable == "m":
            return int(value), 0.0
        return int(self.config.fixed_m), float(value)

    def trials(self, tag: str, value):
        """Yield each trial of a cell as ``(op, spec, x, trial_seed)``, the signal
        x drawn from spec and measured through op, drawing it only when asked for."""
        c = self.config
        m, _ = self.point(value)
        for t in range(c.trials):
            ts = derive_seed(c.master_seed, tag, value, t)
            spec = SparseSignalSpec.draw(self.graph.n, c.k, c.signal_model,
                                         derive_seed(ts, "signal"))
            x = synthesize(self.basis, spec)
            yield self.factory.operator(tag, m, derive_seed(ts, "operator")), spec, x, ts


def _sweep(config: ExperimentConfig, column: str, reduce, cell) -> list[dict]:
    """One row per sampler and sweep value, ``column`` = reduce(mean trial score).

    ``cell(sweep, tag, value)`` returns the scores of one cell's trials in
    trial order.  The cells run through ``_map_in_order``, this process and
    its forked children taking them in order.
    """
    graph = config.graph.build()
    m_max = max(config.sweep_values) if config.sweep_variable == "m" else config.fixed_m
    _check_fits(graph, config.k, config.samplers, m_max)
    sweep = _Sweep(config, graph, gft_basis(graph), _OperatorFactory(graph))
    cells = [(tag, value) for tag in config.samplers for value in config.sweep_values]
    rows = []
    for (tag, value), scores in zip(cells, _map_in_order(partial(cell, sweep), cells)):
        total = 0.0
        for score in scores:
            total += score
        rows.append({"sampler": tag, "sweep_variable": config.sweep_variable,
                     "sweep_value": value, column: reduce(total / config.trials),
                     "trials": config.trials})
    return rows


def _known_cell(sweep: _Sweep, tag: str, value) -> list[float]:
    """Least-squares error on the true support of each trial of one cell."""
    _, sigma = sweep.point(value)
    scores = []
    for op, spec, x, ts in sweep.trials(tag, value):
        pre = x
        if sigma > 0:
            noise = np.random.default_rng(derive_seed(ts, "noise"))
            pre = x + sigma * noise.standard_normal(x.size)
        res = ls_known_support(op, sweep.basis, spec.support, op.phi @ pre)
        scores.append(float(np.mean((res.x_star - x) ** 2)))
    return scores


def _unknown_cell(sweep: _Sweep, tag: str, value) -> list[float]:
    """1.0 for each trial of one cell that l1 recovers perfectly, else 0.0."""
    return [float(bp_l1(op, sweep.basis, op.phi @ x, sweep.config.solver).scored(x).perfect)
            for op, _, x, _ in sweep.trials(tag, value)]


def run_known_support(config: ExperimentConfig) -> list[dict]:
    """Mean reconstruction error per sampler and sweep value, support given.

    Measurements are y = Phi (x + noise); reconstruction is least squares on
    the true support; per-point aggregation is the decibel value of the mean
    linear MSE over trials.
    """
    if config.solver != SolverParams():
        raise ConfigError("least-squares runs take no l1 solver settings")
    return _sweep(config, "mean_mse_db", to_db, _known_cell)


def run_unknown_support(config: ExperimentConfig) -> list[dict]:
    """Perfect-recovery probability per sampler and budget, support unknown.

    Noiseless measurements, minimum-l1 reconstruction; a trial counts as
    recovered when its error lands below the -40 dB threshold.
    """
    if config.sweep_variable != "m":
        raise ConfigError("blind recovery sweeps measurements only")
    return _sweep(config, "recovery_prob", float, _unknown_cell)


def run_condition_table(config: ConditionTableConfig) -> list[dict]:
    """Median conditioning of the support-restricted system per method and m.

    Each trial regenerates the graph, draws a random size-k support, realizes
    each method's operator and records cond(Phi @ U restricted to the support).
    """
    ms, m_values = config.master_seed, config.m_values
    conds: dict = {(meth, m): [] for meth in CONDITION_METHODS for m in m_values}
    for t in range(config.trials):
        g = config.graph.build(derive_seed(ms, "graph", t))
        _check_fits(g, config.k, CONDITION_METHODS, max(m_values))
        basis = gft_basis(g, normalized=True)
        factory = _OperatorFactory(g)
        rng = np.random.default_rng(derive_seed(ms, "support", t))
        support = np.sort(rng.choice(g.n, size=config.k, replace=False))
        u_s = basis.u[:, support]
        for meth in CONDITION_METHODS:
            for m in m_values:
                op = factory.operator(meth, m, derive_seed(ms, "draw", t, m))
                conds[(meth, m)].append(condition_number(op.phi @ u_s))
    return [{"method": meth, "m": m, "median_cond": float(np.median(conds[(meth, m)])),
             "trials": config.trials}
            for meth in CONDITION_METHODS for m in m_values]


def run_dominating_curve(config: DominatingCurveConfig) -> list[dict]:
    """Greedy dominating-set size of the p-hop expansion for p = 1..p_max."""
    graph = config.graph.build()
    return [{"p": p, "dominating_size": int(p_hop_graph(graph, p).dominating_set.size)}
            for p in range(1, config.p_max + 1)]


# ---------------------------------------------------------------------------
# sensor-network tradeoff

@dataclass
class WsnScenario(_Config):
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

    # a radius <= 0 leaves the fields edgeless and a NaN one pairs every node;
    # a NaN distance factor writes NaN powers
    CHECKS = {"n": _count, "k": _count, "trials": _count, "master_seed": _seed,
              "cluster_head_counts": _counts, "m_values": _budgets,
              "radius": _positive, "bs_distance_factor": _positive}

    def __post_init__(self):
        # the CHECKS run in wsn_experiment, not here: the wsn-field benchmark
        # times the construction of 256 scenarios in its set-up
        self.cluster_head_counts = tuple(self.cluster_head_counts)
        self.m_values = tuple(self.m_values)


def _spatial_dct_basis(positions: np.ndarray) -> OrthoBasis:
    """DCT atoms laid over nodes sorted by (x, y); smooth fields become sparse."""
    rank = np.argsort(np.lexsort((positions[:, 1], positions[:, 0])))
    return OrthoBasis(u=dct_basis(positions.shape[0]).u[rank])


def _forward_route_power(pos: np.ndarray, plan) -> float:
    """Squared-distance cost of forwarding every aggregated scalar.

    Each node of a measurement's closed neighborhood sends its value one hop
    to the aggregating node, paying the squared distance between them, with
    node i at ``pos[i]``; the aggregating node's own value travels distance
    zero.  The model holds for one-hop plans only, which ``wsn_experiment``
    checks.  The terms are added one at a time in row-major order, so the
    total is the one a plain loop over the rows gives; numpy's pairwise
    ``sum`` and the compensated builtin ``sum`` of Python 3.12 round
    differently.
    """
    rows, cols = _closed_rows(plan.base_graph, plan.nodes)
    d2 = ((pos[cols] - pos[plan.nodes[rows]]) ** 2).sum(axis=1)
    return float(np.add.accumulate(d2)[-1])


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
    reconstruction error.  A budget below a field's one-hop dominating set
    is refused: its plan would aggregate over several hops, which the
    forwarding cost does not model.

    This process draws each field (positions, graph, DCT basis, signal and
    cluster heads); its rows then run through ``_map_in_order``, one unit per
    (method, m) row, which builds the row's plan or cluster operator, costs
    its forwarding and solves.
    """
    _Config.__post_init__(scenario)  # the CHECKS that WsnScenario's construction skips
    if any(nc > scenario.n for nc in scenario.cluster_head_counts):
        raise ConfigError("cluster head counts must lie in [1, n]")
    for name, most in (("k", scenario.k), ("m", max(scenario.m_values))):
        if most > scenario.n:
            raise ConfigError(f"{name} must be <= the field's n = {scenario.n}, got {most}")
    ms = scenario.master_seed
    d_bs2 = float(scenario.bs_distance_factor) ** 2
    agg: dict = {}        # (method, m) -> per-trial (intra-network power, mse)
    for t in range(scenario.trials):
        rng_pos = np.random.default_rng(derive_seed(ms, "positions", t))
        pos = rng_pos.random((scenario.n, 2))
        graph = geometric_graph_from_positions(pos, scenario.radius)
        basis = _spatial_dct_basis(pos)
        spec = SparseSignalSpec(support=np.arange(scenario.k),
                                seed=derive_seed(ms, "signal", t))
        x = synthesize(basis, spec)
        clusters = {nc: _draw_clusters(scenario, pos, t, nc) for nc in scenario.cluster_head_counts}

        def row(nc, m):
            """(intra-network power, mse) of one row: the proposed plan if nc is None."""
            if nc is None:
                plan = build_plan(graph, m, "insert-new")
                if plan.p > 1:
                    raise ConfigError(
                        f"m = {m} is below the field's one-hop dominating set of "
                        f"{graph.dominating_set.size} nodes; forwarding is costed one hop only")
                op = draw_operator(plan, seed=derive_seed(ms, "draw", t, m))
                power = _forward_route_power(pos, plan)
            else:
                _, members, cost = clusters[nc]
                seed = derive_seed(ms, "cluster-draw", t, nc, m)
                op, power = _cluster_operator(members, cost, m, scenario.n, seed)
            res = bp_l1(op, basis, op.phi @ x, scenario.solver)
            return power, float(np.mean((res.x_star - x) ** 2))

        units = [(nc, m) for nc in (None, *scenario.cluster_head_counts)
                 for m in scenario.m_values]
        for (nc, m), result in zip(units, _map_in_order(row, units)):
            agg.setdefault(("proposed" if nc is None else f"cluster-{nc}", m), []).append(result)

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
        })
    return rows


def _draw_clusters(scenario: WsnScenario, pos: np.ndarray, trial: int, nc: int):
    """Heads, nearest-head clusters and each cluster's sum of squared distances to its head.

    A head is at distance zero from itself, so its cluster is empty only if
    another head shares its position; ``_largest_remainder`` then gives that
    cluster no rows.
    """
    # the trailing 0, once the index of a redraw, keeps the heads of every committed table
    rng = np.random.default_rng(derive_seed(scenario.master_seed, "heads", trial, nc, 0))
    heads = rng.choice(scenario.n, size=nc, replace=False)
    d2 = ((pos[:, None, :] - pos[heads][None, :, :]) ** 2).sum(axis=2)
    owner = np.argmin(d2, axis=1)
    members = [np.flatnonzero(owner == c) for c in range(nc)]
    return heads, members, np.array([d2[mem, c].sum() for c, mem in enumerate(members)])


def _cluster_operator(members: list, cost: np.ndarray, m: int, n: int, seed: int):
    """In-cluster sensing: m Gaussian rows and their intra-network power.

    ``_largest_remainder`` gives cluster c ``alloc[c]`` rows over its members,
    each gathered at the head for ``cost[c]``.  One call draws the rows in
    order, the values one draw per cluster gives; costs add in cluster order.
    """
    alloc = _largest_remainder(m, np.asarray([c.size for c in members]))
    gathered = [members[c] for c in np.repeat(np.arange(len(members)), alloc)]
    cols = np.concatenate(gathered)
    rows = np.repeat(np.arange(m), [g.size for g in gathered])
    phi = np.zeros((m, n))
    phi[rows, cols] = np.random.default_rng(seed).standard_normal(cols.size)
    return SamplingOperator(phi=phi), float(np.add.accumulate(alloc * cost)[-1])


# experiment kind -> (config class, run); each run returns one or more rows,
# built from one dict literal whose keys are the table's columns
EXPERIMENTS = {
    "known-support": (ExperimentConfig, run_known_support),
    "unknown-support": (ExperimentConfig, run_unknown_support),
    "condition-table": (ConditionTableConfig, run_condition_table),
    "dominating-curve": (DominatingCurveConfig, run_dominating_curve),
    "wsn": (WsnScenario, wsn_experiment),
}


# ---------------------------------------------------------------------------
# result files

def write_csv(path, rows: list[dict], meta: dict) -> None:
    """Result table with a leading comment line carrying provenance; the
    header is the first row's keys."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + ", ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def result_meta(payload: dict, master_seed: int) -> dict:
    return {"config-hash": config_hash(payload), "seed": master_seed,
            "version": __version__}
