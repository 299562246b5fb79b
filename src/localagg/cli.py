"""Command line front end: generate graphs, build plans, reconstruct, run experiments."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import harness
from .graph import (SEEDLESS_KINDS, HopPlanInfeasibleError, check_int, generate, load_edge_list,
                    save_edge_list)
from .recon import bp_l1, check_support, ls_known_support
from .sampler import (STRATEGIES, PoolExhaustedError, SamplingOperator, build_plan,
                      draw_operator, plan_to_json)
from .spectral import build_basis, load_matrix_csv, save_matrix_csv


def _cmd_generate(args):
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--params {args.params}: {exc}") from None
    if not isinstance(params, dict):
        raise SystemExit(f"--params must be a JSON object, got {args.params}")
    if args.seed is not None:
        check_int("--seed", args.seed, minimum=0, error=SystemExit)
        if args.kind in SEEDLESS_KINDS:
            raise SystemExit(f"--seed is not read by --kind {args.kind}, which draws nothing")
    try:
        graph = generate(args.kind, params, args.seed or 0)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    save_edge_list(graph, args.out)
    print(f"wrote {graph.n} nodes, {graph.num_edges} edges to {args.out}")


def _cmd_sample(args):
    if args.operator_seed is not None and not args.operator_out:
        raise SystemExit("--operator-seed is read only with --operator-out")
    check_int("--operator-seed", args.operator_seed or 0, minimum=0, error=SystemExit)
    try:
        # the loader's message starts with the file name and line
        graph = load_edge_list(args.graph)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        plan = build_plan(graph, args.m, args.strategy)
    except (ValueError, PoolExhaustedError) as exc:
        raise SystemExit(f"--m {args.m}: {exc}") from None
    with open(args.plan_out, "w") as fh:
        fh.write(plan_to_json(plan) + "\n")
    print(f"plan: m={plan.m} p={plan.p} strategy={plan.strategy} "
          f"dominating={plan.dominating_set.size}")
    if args.operator_out:
        op = draw_operator(plan, seed=args.operator_seed or 0)
        save_matrix_csv(args.operator_out, op.phi)
        print(f"wrote operator {op.m}x{op.n} to {args.operator_out}")


def _cmd_reconstruct(args):
    if args.method == "ls" and not args.support:
        raise SystemExit("ls reconstruction needs --support")
    if args.method == "bp" and args.support is not None:
        raise SystemExit("--support is read only with --method ls")
    try:
        # each loader's message starts with the file name and line, and
        # build_basis names an unknown basis
        basis = build_basis(load_edge_list(args.graph), args.basis)
        phi = load_matrix_csv(args.operator)
        y = load_matrix_csv(args.measurements).ravel()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    op = SamplingOperator(phi=phi)
    if args.method == "ls":
        try:
            support = check_support([int(v) for v in args.support.split(",")], basis.n)
        except ValueError as exc:
            raise SystemExit(f"--support {args.support}: {exc}") from None
    try:
        res = (ls_known_support(op, basis, support, y) if args.method == "ls"
               else bp_l1(op, basis, y))
    except ValueError as exc:
        raise SystemExit(f"{args.operator}, {args.measurements}: {exc}") from None
    save_matrix_csv(args.out, res.x_star.reshape(-1, 1))
    stats = ", ".join(f"{k}={v}" for k, v in res.solver_stats.items())
    print(f"wrote reconstruction to {args.out} ({stats})")


def _cmd_experiment(args):
    config_class, run = harness.EXPERIMENTS[args.what]
    given = {"--seed": ("master_seed", args.seed), "--trials": ("trials", args.trials)}
    overrides = {key: value for key, value in given.values() if value is not None}
    if not overrides.keys() <= {f.name for f in fields(config_class)}:
        named = " and ".join(opt for opt, (_, value) in given.items() if value is not None)
        raise SystemExit(f"{args.what} has no trials and no master seed; drop {named}")
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise SystemExit(f"{args.config}: {exc}") from None
    if isinstance(payload, dict):  # from_dict refuses any other JSON value
        if "output" in payload:
            raise SystemExit("config key 'output' is not read: pass the CSV path with --out")
        payload.update(overrides)
    try:
        config = config_class.from_dict(payload)
        rows = run(config)
    except (harness.ConfigError, HopPlanInfeasibleError) as exc:
        raise SystemExit(f"{args.config}: {exc}") from None
    harness.write_csv(args.out, rows, harness.result_meta(config.to_dict(), config.master_seed))
    print(f"wrote {len(rows)} rows to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="localagg",
                                     description="graph signal sampling by local aggregations")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random graph as an edge list")
    g.add_argument("--kind", required=True)
    g.add_argument("--params", required=True, help="JSON object of generator parameters")
    g.add_argument("--seed", type=int,
                   help=f"default 0; refused for {', '.join(SEEDLESS_KINDS)}, which draw nothing")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("sample", help="build a sampling plan, optionally draw the operator")
    s.add_argument("--graph", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--strategy", choices=STRATEGIES, default="insert-new")
    s.add_argument("--plan-out", required=True)
    s.add_argument("--operator-out", default=None)
    s.add_argument("--operator-seed", type=int, help="default 0; needs --operator-out")
    s.set_defaults(func=_cmd_sample)

    r = sub.add_parser("reconstruct", help="recover a signal from measurements")
    r.add_argument("--graph", required=True)
    r.add_argument("--operator", required=True)
    r.add_argument("--measurements", required=True)
    r.add_argument("--basis", default="gft-normalized")
    r.add_argument("--method", choices=("ls", "bp"), default="bp")
    r.add_argument("--support", default=None, help="comma-separated indices for ls")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_reconstruct)

    e = sub.add_parser("experiment", help="run a seeded experiment from a JSON config")
    e.add_argument("what", choices=tuple(harness.EXPERIMENTS))
    e.add_argument("--config", required=True)
    e.add_argument("--seed", type=int, default=None, help="override master seed")
    e.add_argument("--trials", type=int, default=None, help="override trial count")
    e.add_argument("--out", required=True, help="CSV result path")
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except OSError as exc:  # a file named on the command line cannot be read or written
        # a write that fails as the file is closed carries no file name
        where = "" if exc.filename is None else f"{exc.filename}: "
        raise SystemExit(where + exc.strerror) from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
