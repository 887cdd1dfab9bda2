"""Command-line front end: optimize, count, gen, bench.

All outputs are deterministic for a given seed; wall-clock fields are
reported as 0 unless --timing is passed, so repeated invocations are
byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .cost import CardinalitySource, CostParams
from .enumerators import ALGORITHMS, run_algorithm
from .errors import GraphFormatError, OptimizeTimeout, SpanPlanError
from .graph import TopologyKind, gen_topology, graph_to_json, load_document, parse_json
from .plan import plan_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(1, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None


def _load_graph(path: str):
    return load_document(_read(path))


def _load_catalog_file(graph, path: str) -> CardinalitySource:
    from .cost import CardinalityCatalog

    doc = parse_json(_read(path), f" in {path}")
    if isinstance(doc, dict) and "cardinalities" in doc:
        section = doc["cardinalities"]
        if isinstance(section, dict):
            doc = section
        elif "cardinalities" not in graph.name_to_id:  # else a key map naming that table
            raise GraphFormatError(f"{path}: 'cardinalities' must be an object")
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path} does not hold a cardinality map")
    return CardinalityCatalog.from_key_map(graph, doc)


def _resolve_source(graph, embedded, path: str | None, what: str) -> CardinalitySource:
    if path:
        return _load_catalog_file(graph, path)
    if embedded is not None:
        return embedded
    raise GraphFormatError(f"no {what} available: pass a catalog file or embed one in the graph")


def _write(path: str, text: str, newline: str | None = None) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise SpanPlanError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _params(args) -> CostParams:
    return CostParams(tau=args.tau, lam=args.lam)


def cmd_optimize(args) -> int:
    graph, embedded = _load_graph(args.graph)
    source = _resolve_source(graph, embedded, args.selection_catalog, "selection catalog")
    params = _params(args)
    plan, stats = run_algorithm(args.algo, graph, source, params, timeout=args.timeout)
    _emit(plan_to_json(plan, graph, stats, timing=args.timing), args.out)
    return 0


def cmd_count(args) -> int:
    from . import oracle

    graph, _ = _load_graph(args.graph)
    counts = oracle.enumerate_ordered_trees(graph, timeout=args.timeout)
    doc = {**counts._asdict(), "t_b": oracle.binary_tree_space_size(graph.n_vertices)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    graph, model = gen_topology(
        args.topology,
        args.tables,
        args.seed,
        base_range=tuple(args.card_range),
        sel_range=tuple(args.sel_range),
    )
    _emit(graph_to_json(graph, model), args.out)
    return 0


def cmd_bench(args) -> int:
    from . import bench as benchmod

    params = _params(args)
    algorithms = benchmod.check_algorithms(args.algos.split(",") if args.algos else ALGORITHMS)
    if args.graph:
        queries = []
        for path in args.graph:
            graph, embedded = _load_graph(path)
            selection = _resolve_source(graph, embedded, args.selection_catalog, "selection catalog")
            evaluation = None
            if args.evaluation_catalog:
                evaluation = _load_catalog_file(graph, args.evaluation_catalog)
            name = path.rsplit("/", 1)[-1]
            name = name[: -len(".json")] if name.endswith(".json") else name
            queries.append(
                benchmod.WorkloadQuery(
                    query_id=name,
                    graph=graph,
                    selection_source=selection,
                    evaluation_source=evaluation,
                )
            )
        records = benchmod.run_workload(queries, algorithms, params, timeout=args.timeout)
    elif args.topology:
        records = benchmod.topology_sweep(
            args.topology, args.sizes, args.seeds, algorithms, params, timeout=args.timeout
        )
    else:
        raise GraphFormatError("bench needs --graph files or a --topology sweep")

    if not args.timing:
        records = [rec._replace(opt_time_ms=0.0) for rec in records]
    csv_text = benchmod.records_to_csv(records)
    summary = benchmod.aggregate(records)
    if args.out:
        _write(args.out, csv_text, newline="")
        summary_path = (args.out[:-4] if args.out.endswith(".csv") else args.out) + ".summary.json"
        try:
            _write(summary_path, json.dumps(summary, indent=2) + "\n")
        except SpanPlanError:
            os.remove(args.out)  # leave no partial result
            raise
    else:
        sys.stdout.write(csv_text)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _timeout(text: str) -> float:
    """--timeout: a finite number of seconds above 0.  Raised as a planner
    error, not an argparse one, so the diagnostic is one line."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not (0.0 < seconds < math.inf):
        raise SpanPlanError(f"--timeout must be a finite number of seconds above 0, got {text!r}")
    return seconds


def _common_cost_flags(p) -> None:
    p.add_argument("--tau", type=float, default=0.2, help="scan discount factor")
    p.add_argument("--lambda", dest="lam", type=float, default=2.0, help="index-lookup factor")


def build_parser() -> _Parser:
    parser = _Parser(prog="spanplan", description="Join-order planning over spanning trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="plan one query")
    p_opt.add_argument("--graph", required=True, help="join-graph JSON file")
    p_opt.add_argument("--algo", choices=ALGORITHMS, default="este")
    p_opt.add_argument("--selection-catalog", help="cardinality catalog JSON file")
    p_opt.add_argument("--timeout", type=_timeout, default=60.0)
    p_opt.add_argument("--out", help="write the plan JSON here instead of stdout")
    p_opt.add_argument("--timing", action="store_true", help="report real elapsed times")
    _common_cost_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_cnt = sub.add_parser("count", help="count the ordered spanning-tree space")
    p_cnt.add_argument("--graph", required=True)
    p_cnt.add_argument("--timeout", type=_timeout, default=60.0)
    p_cnt.add_argument("--out")
    p_cnt.set_defaults(func=cmd_count)

    p_gen = sub.add_parser("gen", help="generate a synthetic topology")
    p_gen.add_argument("--topology", required=True,
                       choices=[k.value for k in TopologyKind])
    p_gen.add_argument("--tables", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--card-range", type=int, nargs=2, default=[1_000, 1_000_000],
                       metavar=("LO", "HI"))
    p_gen.add_argument("--sel-range", type=float, nargs=2, default=[1e-5, 1e-1],
                       metavar=("LO", "HI"))
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a workload and emit CSV")
    p_bench.add_argument("--graph", action="append", help="query graph JSON (repeatable)")
    p_bench.add_argument("--selection-catalog")
    p_bench.add_argument("--evaluation-catalog")
    p_bench.add_argument("--algos", help="comma list; default all five")
    p_bench.add_argument("--topology", choices=[k.value for k in TopologyKind])
    p_bench.add_argument("--sizes", type=_int_list, default=[4, 5, 6, 7],
                         help="comma list of table counts for sweeps")
    p_bench.add_argument("--seeds", type=int, default=3, help="seeds per sweep size")
    p_bench.add_argument("--timeout", type=_timeout, default=60.0)
    p_bench.add_argument("--out", help="CSV path; a .summary.json lands next to it")
    p_bench.add_argument("--timing", action="store_true")
    _common_cost_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except OptimizeTimeout as exc:
        print(f"spanplan: timeout: {exc}", file=sys.stderr)
        return 2
    except SpanPlanError as exc:
        print(f"spanplan: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
