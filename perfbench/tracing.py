"""In-memory span tracing around spanplan's public entry points.

Nothing inside ``src/`` is edited: ``install`` replaces each traced
function, at every place a ``spanplan`` module binds it, with a wrapper
that records a span (name, start, end, parent span, request id) or only
bumps a counter.  Per-layer metrics are then computed per pass of a
workload from those spans: a span's self time is its duration minus the
durations of its direct children.

A traced function that is renamed or inlined by a later change must not
silently read as zero: ``install`` fails on a missing attribute, and
``check_required`` fails when a metric that a workload is meant to exercise
comes out as zero.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

# One per-layer metric: (name, unit, better, workloads on which it must be
# non-zero).  BENCHMARK.json lists the same names, units and directions.
ALL = ("exact", "greedy", "cli_short", "oracle")
LAYER_METRICS = [
    ("cli.import_ms", "ms", "lower", ALL),
    ("cli.python_floor_ms", "ms", "lower", ALL),
    ("cli.command_ms", "ms", "lower", ("cli_short",)),
    ("graph.load_ms", "ms", "lower", ALL),
    ("graph.subsets_ms", "ms", "lower", ("exact", "cli_short", "oracle")),
    ("graph.masks_scanned", "count", "lower", ("exact", "cli_short", "oracle")),
    ("graph.connected_found", "count", "lower", ("exact", "cli_short", "oracle")),
    ("graph.subset_yield", "ratio", "higher", ("exact", "cli_short", "oracle")),
    ("cost.context_ms", "ms", "lower", ALL),
    ("cost.cards_ms", "ms", "lower", ("exact", "cli_short", "oracle")),
    ("cost.cards_computed", "count", "lower", ALL),
    ("cost.merge_calls", "count", "lower", ("exact", "greedy", "cli_short")),
    ("cost.merge_distinct", "count", "lower", ("exact", "greedy", "cli_short")),
    ("cost.merge_reuse", "ratio", "higher", ("exact", "greedy", "cli_short")),
    ("kernels.dp_ms", "ms", "lower", ("exact", "cli_short")),
    ("kernels.dp_splits", "count", "lower", ("exact", "cli_short")),
    ("kernels.dp_subplans", "count", "lower", ("exact", "cli_short")),
    ("kernels.bound_gap", "ratio", "lower", ("exact", "cli_short")),
    ("kernels.brute_ms", "ms", "lower", ("oracle",)),
    ("kernels.count_ms", "ms", "lower", ("cli_short", "oracle")),
    ("kernels.arrangements_per_s", "1/s", "higher", ("cli_short", "oracle")),
    ("enumerators.exhaustive_self_ms", "ms", "lower", ("exact", "cli_short")),
    ("enumerators.goo_bound_ms", "ms", "lower", ("exact", "cli_short")),
    ("enumerators.este_ms", "ms", "lower", ("greedy", "cli_short")),
    ("enumerators.prim_ms", "ms", "lower", ("greedy", "cli_short")),
    ("enumerators.kruskal_ms", "ms", "lower", ("greedy", "cli_short")),
    ("enumerators.goo_ms", "ms", "lower", ("greedy", "cli_short")),
    ("enumerators.evaluations", "count", "lower", ("greedy", "cli_short")),
    ("enumerators.join_costs_computed", "count", "lower", ("greedy", "cli_short")),
    ("enumerators.distinct_plans", "count", "higher", ("greedy", "cli_short")),
    ("enumerators.eval_useful_ratio", "ratio", "higher", ("greedy", "cli_short")),
    ("plan.serialize_ms", "ms", "lower", ("exact", "greedy", "cli_short")),
    ("oracle.self_ms", "ms", "lower", ("cli_short", "oracle")),
    ("bench.run_ms", "ms", "lower", ("cli_short",)),
    ("trace.overhead_ms", "ms", "lower", ()),
    ("trace.overhead_ratio", "ratio", "lower", ()),
]

# Span name -> per-layer self-time metric.  A goo span directly under an
# exhaustive span is the pruning bound, not a top-level greedy run.
SELF_TIME = {
    "cli.main": "cli.command_ms",
    "graph.load_document": "graph.load_ms",
    "graph.connected_subset_masks": "graph.subsets_ms",
    "cost.CostContext": "cost.context_ms",
    "cost.ensure_cards": "cost.cards_ms",
    "kernels.dp_search": "kernels.dp_ms",
    "kernels.brute_search": "kernels.brute_ms",
    "kernels.count_trees": "kernels.count_ms",
    "enumerators.exhaustive": "enumerators.exhaustive_self_ms",
    "enumerators.este": "enumerators.este_ms",
    "enumerators.prim": "enumerators.prim_ms",
    "enumerators.kruskal": "enumerators.kruskal_ms",
    "enumerators.goo": "enumerators.goo_ms",
    "plan.plan_to_json": "plan.serialize_ms",
    "oracle.brute_force_optimal": "oracle.self_ms",
    "oracle.enumerate_ordered_trees": "oracle.self_ms",
    "bench.run_workload": "bench.run_ms",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at the top
    request: int


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    active: bool = False
    request: int = 0
    _stack: list = field(default_factory=list)

    def bump(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def parent_name(self, span_index: int) -> str | None:
        parent = self.spans[span_index].parent
        return self.spans[parent].name if parent >= 0 else None

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so each active call records a span; on_return(tracer,
        span_index, args, result) may add counters from the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.request)
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(tracer, index, args, result)
            return result

        return wrapper

    def counter(self, fn, on_call):
        """Wrap fn so each active call runs on_call(counters, fn, args),
        which calls fn itself, instead of recording a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            return on_call(tracer.counters, fn, args)

        return wrapper


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# --- result hooks ---------------------------------------------------------

def _on_subsets(tr, _i, _args, result):
    tr.bump("graph.connected_found", len(result))


def _on_dp(tr, _i, _args, result):
    tr.bump("kernels.dp_subplans", result[2])
    tr.bump("kernels.dp_splits", result[3])
    tr.bump("dp.optimum_sum", result[0])


def _on_arrangements(position):
    def hook(tr, _i, _args, result):
        tr.bump("kernels.arrangements", result[position])
    return hook


def _on_greedy(tr, i, _args, result):
    stats = result[1]
    if tr.parent_name(i) == "enumerators.exhaustive":
        tr.bump("dp.bound_sum", result[0].internal_cost)
        return
    tr.bump("enumerators.evaluations", stats.evaluations)
    tr.bump("enumerators.join_costs_computed", stats.join_costs_computed)
    tr.bump("enumerators.distinct_plans", result[2] if len(result) > 2 else stats.plans_enumerated)


def _count_connectivity_test(counters, fn, args):
    counters["graph.masks_scanned"] = counters.get("graph.masks_scanned", 0) + 1
    return fn(*args)


def _count_lookup(counters, fn, args):
    counters["cost.cards_computed"] = counters.get("cost.cards_computed", 0) + 1
    return fn(*args)


def _count_merge(counters, fn, args):
    # A merge is distinct when it grows the context's memo.
    memo = args[0]._merge_memo
    before = len(memo)
    result = fn(*args)
    counters["cost.merge_calls"] = counters.get("cost.merge_calls", 0) + 1
    counters["cost.merge_distinct"] = counters.get("cost.merge_distinct", 0) + len(memo) - before
    return result


def install(tracer: Tracer):
    """Wrap spanplan's layer entry points; returns an undo callable.

    Raises AttributeError or KeyError when a traced entry point no longer
    exists under its name.
    """
    from spanplan import _kernels, bench, cli, cost, enumerators, graph, oracle, plan

    kern = _kernels.get_backend("auto")
    functions = [
        (cli, "main", "cli.main", None),
        (graph, "load_document", "graph.load_document", None),
        (graph, "connected_subset_masks", "graph.connected_subset_masks", _on_subsets),
        (enumerators, "exhaustive", "enumerators.exhaustive", None),
        (enumerators, "este", "enumerators.este", _on_greedy),
        (enumerators, "prim", "enumerators.prim", _on_greedy),
        (enumerators, "kruskal", "enumerators.kruskal", _on_greedy),
        (enumerators, "goo", "enumerators.goo", _on_greedy),
        (plan, "plan_to_json", "plan.plan_to_json", None),
        (oracle, "brute_force_optimal", "oracle.brute_force_optimal", None),
        (oracle, "enumerate_ordered_trees", "oracle.enumerate_ordered_trees", None),
        (bench, "run_workload", "bench.run_workload", None),
        (kern, "dp_search", "kernels.dp_search", _on_dp),
        (kern, "brute_search", "kernels.brute_search", _on_arrangements(2)),
        (kern, "count_trees", "kernels.count_trees", _on_arrangements(0)),
    ]
    methods = [
        (graph.JoinGraph, "is_connected_mask",
         tracer.counter(graph.JoinGraph.is_connected_mask, _count_connectivity_test)),
        (cost.CostContext, "__init__", tracer.span("cost.CostContext", cost.CostContext.__init__)),
        (cost.CostContext, "ensure_cards", tracer.span("cost.ensure_cards", cost.CostContext.ensure_cards)),
        (cost.CostContext, "merge", tracer.counter(cost.CostContext.merge, _count_merge)),
        (cost.SelectivityModel, "lookup", tracer.counter(cost.SelectivityModel.lookup, _count_lookup)),
        (cost.CardinalityCatalog, "lookup", tracer.counter(cost.CardinalityCatalog.lookup, _count_lookup)),
    ]

    # Resolve every entry point before patching any, so a missing one
    # leaves the program untouched.
    patches = [(owner, attr, owner.__dict__[attr], wrapper) for owner, attr, wrapper in methods]
    modules = [m for key, m in list(sys.modules.items())
               if key == "spanplan" or key.startswith("spanplan.")]
    for module, attr, name, hook in functions:
        original = getattr(module, attr)
        wrapper = tracer.span(name, original, hook)
        # Rebind at every place a spanplan module holds the function, so
        # calls through re-exports and `from x import f` bindings are seen.
        patches += [(m, attr, original, wrapper) for m in dict.fromkeys([module] + modules)
                    if m.__dict__.get(attr) is original]
    undo = []
    for holder, attr, original, wrapper in patches:
        if holder.__dict__.get(attr) is original:
            setattr(holder, attr, wrapper)
            undo.append((holder, attr, original))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


def pass_metrics(tracer: Tracer, first_span: int, counters_before: dict) -> dict:
    """Per-layer metrics of one pass: the spans from first_span on, and the
    counter increments since counters_before."""
    spans = tracer.spans[first_span:]
    shifted = [Span(s.name, s.start, s.end, s.parent - first_span if s.parent >= first_span else -1,
                    s.request) for s in spans]
    out = dict.fromkeys(SELF_TIME.values(), 0.0)
    out["enumerators.goo_bound_ms"] = 0.0
    for span, own in zip(shifted, self_times(shifted)):
        metric = SELF_TIME[span.name]
        if span.name == "enumerators.goo" and span.parent >= 0 \
                and shifted[span.parent].name == "enumerators.exhaustive":
            metric = "enumerators.goo_bound_ms"
        out[metric] += own * 1000.0
    counts = {k: v - counters_before.get(k, 0) for k, v in tracer.counters.items()}
    for key in ("graph.masks_scanned", "graph.connected_found", "cost.cards_computed",
                "cost.merge_calls", "cost.merge_distinct", "kernels.dp_splits",
                "kernels.dp_subplans", "enumerators.evaluations",
                "enumerators.join_costs_computed", "enumerators.distinct_plans"):
        out[key] = counts.get(key, 0)
    out["graph.subset_yield"] = _ratio(out["graph.connected_found"], out["graph.masks_scanned"])
    out["cost.merge_reuse"] = (1.0 - _ratio(out["cost.merge_distinct"], out["cost.merge_calls"])
                               if out["cost.merge_calls"] else 0.0)
    out["kernels.bound_gap"] = _ratio(counts.get("dp.bound_sum", 0), counts.get("dp.optimum_sum", 0))
    arranging_s = (out["kernels.brute_ms"] + out["kernels.count_ms"]) / 1000.0
    out["kernels.arrangements_per_s"] = _ratio(counts.get("kernels.arrangements", 0), arranging_s)
    out["enumerators.eval_useful_ratio"] = _ratio(out["enumerators.join_costs_computed"],
                                                  out["enumerators.evaluations"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def check_required(workload: str, metrics: dict) -> list[str]:
    """Names of metrics the workload is meant to exercise that read zero."""
    return [name for name, _u, _b, wl in LAYER_METRICS
            if workload in wl and not metrics.get(name)]


def write_spans(tracer: Tracer, path) -> None:
    """Write the run's spans as JSON lines, once the run is over."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
