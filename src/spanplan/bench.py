"""Workload runner: cost ratios against the exhaustive optimum, optimization
times, complexity grouping, topology sweeps, CSV emission.

Workload-level cost ratio is sum(algorithm costs) / sum(exhaustive costs)
over the queries where the exhaustive baseline succeeded; per-query ratios
are also emitted.  When an evaluation catalog is supplied, plans are chosen
under the selection source and every reported cost (including the baseline)
is re-evaluated under the evaluation source.
"""
from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

from .cost import CardinalitySource, CostContext, CostParams
from .enumerators import ALGORITHMS, run_algorithm
from .errors import GraphFormatError, LimitExceededError, SpanPlanError
from .graph import JoinGraph, TopologyKind, gen_topology, topology_kind
from .plan import reevaluate_plan

SIMPLE = "simple"
MODERATE = "moderate"
COMPLEX = "complex"


def complexity_group(n_joins: int) -> str:
    """Bucket a query by join count: <=9 simple, 10-19 moderate, >=20 complex."""
    if n_joins <= 9:
        return SIMPLE
    if n_joins <= 19:
        return MODERATE
    return COMPLEX


class WorkloadQuery(NamedTuple):
    query_id: str
    graph: JoinGraph
    selection_source: CardinalitySource
    evaluation_source: CardinalitySource | None = None
    topology: str | None = None
    n_tables: int | None = None
    seed: int | None = None


class BenchRecord(NamedTuple):
    """One CSV row: a (query, algorithm) outcome."""
    query_id: str
    group: str
    algorithm: str
    internal_cost: float | None = None
    cost_ratio: float | None = None
    opt_time_ms: float | None = None
    distinct_plans: int | None = None
    topology: str | None = None
    n_tables: int | None = None
    seed: int | None = None
    error: str | None = None


CSV_COLUMNS = list(BenchRecord._fields)


def _run_query(query: WorkloadQuery, algorithms, params: CostParams | None,
               timeout: float) -> list[BenchRecord]:
    base = dict(
        query_id=query.query_id,
        group=complexity_group(query.graph.n_edges),
        topology=query.topology,
        n_tables=query.n_tables if query.n_tables is not None else query.graph.n_vertices,
        seed=query.seed,
    )
    sel_ctx = CostContext(query.graph, query.selection_source, params)
    eval_ctx = None
    if query.evaluation_source is not None:
        eval_ctx = CostContext(query.graph, query.evaluation_source, params)

    def final_cost(plan) -> float:
        if eval_ctx is not None:
            plan = reevaluate_plan(plan, query.graph, eval_ctx)
        if not math.isfinite(plan.total_cost):
            raise LimitExceededError(f"the {plan.algorithm} plan's cost overflows a float")
        return plan.internal_cost

    def outcome(name: str) -> dict:
        """The fields of name's row that its run fills in; a row whose
        final cost fails keeps what its search gave."""
        fields = {}
        try:
            plan, stats = run_algorithm(name, query.graph, sel_ctx, params, timeout=timeout)
            fields["opt_time_ms"] = stats.elapsed * 1000.0
            if name == "este":
                fields["distinct_plans"] = stats.plans_enumerated
            fields["internal_cost"] = final_cost(plan)
        except SpanPlanError as exc:
            fields["error"] = f"{type(exc).__name__}: {exc}"
        return fields

    records = [BenchRecord(algorithm=name, **base, **outcome(name)) for name in algorithms]
    baseline = next((r.internal_cost for r in records if r.algorithm == "exhaustive"), None)
    if baseline is None or baseline <= 0:
        return records
    return [r if r.internal_cost is None else r._replace(cost_ratio=r.internal_cost / baseline)
            for r in records]


def check_algorithms(algorithms) -> list[str]:
    """algorithms as a list; a name that is unknown or listed twice raises
    SpanPlanError."""
    algorithms = list(algorithms)
    for i, name in enumerate(algorithms):
        if name not in ALGORITHMS:
            raise SpanPlanError(f"unknown algorithm {name!r}")
        if name in algorithms[:i]:
            raise SpanPlanError(f"algorithm {name!r} is listed twice")
    return algorithms


def run_workload(queries, algorithms=ALGORITHMS, params: CostParams | None = None,
                 timeout: float = 60.0):
    """One BenchRecord per (query, algorithm); per-query failures are
    recorded, never raised, but an unknown or repeated algorithm, or a query
    id listed twice, raises SpanPlanError before any query runs.  Output
    order is (query_id, algorithm)."""
    algorithms = check_algorithms(algorithms)
    queries = list(queries)
    seen = set()
    for query in queries:
        if query.query_id in seen:
            raise SpanPlanError(f"query id {query.query_id!r} is listed twice")
        seen.add(query.query_id)
    records = [rec for query in queries
               for rec in _run_query(query, algorithms, params, timeout)]
    order = {name: i for i, name in enumerate(algorithms)}
    records.sort(key=lambda r: (r.query_id, order[r.algorithm]))
    return records


# The most queries one topology sweep runs (sizes times seeds per size).
# A sweep builds every graph before its first search, so a larger one is
# refused before any work.
MAX_SWEEP_QUERIES = 10_000


def topology_sweep(kind: TopologyKind | str, sizes, seeds_per_size: int,
                   algorithms=ALGORITHMS, params: CostParams | None = None,
                   timeout: float = 60.0):
    """Generate graphs for every (size, seed) and run the workload on them.
    Fewer than 1 seed per size raises GraphFormatError, and more than
    MAX_SWEEP_QUERIES queries LimitExceededError, before any graph is built."""
    kind = topology_kind(kind)
    sizes = list(sizes)
    if seeds_per_size < 1:
        raise GraphFormatError(f"a sweep needs at least 1 seed per size, got {seeds_per_size}")
    if len(sizes) * seeds_per_size > MAX_SWEEP_QUERIES:
        raise LimitExceededError(f"a sweep of sizes x seeds runs {len(sizes) * seeds_per_size}"
                                 f" queries, above the limit of {MAX_SWEEP_QUERIES}")
    queries = []
    for n in sizes:
        for seed in range(seeds_per_size):
            graph, model = gen_topology(kind, n, seed)
            queries.append(
                WorkloadQuery(
                    query_id=f"{kind.value}-{n:02d}-s{seed}",
                    graph=graph,
                    selection_source=model,
                    topology=kind.value,
                    n_tables=n,
                    seed=seed,
                )
            )
    return run_workload(queries, algorithms, params, timeout=timeout)


def aggregate(records) -> dict:
    """Per-group and total summaries.

    Workload cost ratio = sum of algorithm costs / sum of exhaustive costs,
    restricted to queries where the exhaustive baseline produced a cost.
    """
    if not records:
        raise SpanPlanError("no records to aggregate")
    baseline_by_query = {
        r.query_id: r.internal_cost
        for r in records
        if r.algorithm == "exhaustive" and r.internal_cost is not None
    }

    def summarize(recs) -> dict:
        per_algo: dict[str, dict] = {}
        for algo in sorted({r.algorithm for r in recs}):
            mine = [r for r in recs if r.algorithm == algo]
            cost_sum = 0.0
            base_sum = 0.0
            n_ratio = 0
            opt_ms = 0.0
            errors = 0
            for r in mine:
                if r.opt_time_ms is not None:
                    opt_ms += r.opt_time_ms
                if r.error is not None:
                    errors += 1
                base = baseline_by_query.get(r.query_id)
                if r.internal_cost is not None and base is not None and base > 0:
                    cost_sum += r.internal_cost
                    base_sum += base
                    n_ratio += 1
            per_algo[algo] = {
                "queries": len(mine),
                "rated_queries": n_ratio,
                "cost_ratio": (cost_sum / base_sum) if base_sum > 0 else None,
                "opt_time_ms": opt_ms,
                "errors": errors,
            }
        return per_algo

    groups = {}
    for grp in (SIMPLE, MODERATE, COMPLEX):
        recs = [r for r in records if r.group == grp]
        if recs:
            groups[grp] = summarize(recs)
    return {
        "ratio_definition": "sum(algorithm costs) / sum(exhaustive costs) over rated queries",
        "groups": groups,
        "total": summarize(records),
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_cell(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def _parse_cell(line: int, col: str, text: str):
    if text == "":
        return None
    try:
        if col in ("internal_cost", "cost_ratio", "opt_time_ms"):
            return float(text)
        if col in ("distinct_plans", "n_tables", "seed"):
            return int(text)
    except ValueError:
        raise SpanPlanError(f"CSV line {line}: {col} {text!r} is not a number") from None
    return text


def read_csv(text: str) -> list[BenchRecord]:
    """Parse the CSV text that records_to_csv writes.  A missing or
    unexpected header, a row whose cell count differs from the header's,
    or a number that does not parse raises SpanPlanError naming the line."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CSV_COLUMNS:
        raise SpanPlanError(f"CSV line 1: expected the header {','.join(CSV_COLUMNS)}")
    out = []
    for row in reader:
        line = reader.line_num
        if len(row) != len(CSV_COLUMNS):
            raise SpanPlanError(f"CSV line {line} has {len(row)} cells; the header has"
                                f" {len(CSV_COLUMNS)}")
        out.append(BenchRecord(*[_parse_cell(line, col, cell)
                                 for col, cell in zip(CSV_COLUMNS, row)]))
    return out


def growth_exponent(sizes, counts) -> tuple[float, float]:
    """Log-log least-squares slope and R^2 of counts against sizes."""
    x = [math.log(s) for s in sizes]
    y = [math.log(c) for c in counts]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    ss_res = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2
