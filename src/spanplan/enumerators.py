"""Plan enumeration strategies.

Five enumerators over one cost context:

* ``exhaustive`` — dynamic program over connected vertex subsets (optimal).
* ``prim`` — grow a single component by the cheapest adjacent join;
  linear plans only.
* ``kruskal`` — min-heap of candidate joins across all components with
  lazy invalidation; linear or bushy plans.
* ``goo`` — greedy cheapest-merge over all component pairs (baseline).
* ``este`` — ensemble: run prim and kruskal once seeded from every edge,
  keep the cheapest plan.

All of them price candidate joins identically through CostContext.merge,
so their costs are exactly comparable.
"""
from __future__ import annotations

import heapq
import math
import time

from . import _kernels
from .cost import CardinalitySource, CostContext, CostParams
from .errors import LimitExceededError, SpanPlanError
from .graph import JoinGraph, iter_bits
from .plan import EnumStats, Plan, PlanBuilder, canonical_encoding

EXHAUSTIVE_VERTEX_LIMIT = 20


class _Collector:
    """Tracks distinct costed subsets/splits and raw evaluation count."""

    __slots__ = ("masks", "splits", "evals")

    def __init__(self):
        self.masks: set[int] = set()
        self.splits: set[tuple[int, int]] = set()
        self.evals = 0

    def record(self, l_mask: int, r_mask: int) -> None:
        self.evals += 1
        key = (l_mask, r_mask) if l_mask < r_mask else (r_mask, l_mask)
        self.splits.add(key)
        self.masks.add(l_mask | r_mask)

    def stats(self, plans: int, elapsed: float) -> EnumStats:
        return EnumStats(
            subplans_reached=len(self.masks),
            join_costs_computed=len(self.splits),
            plans_enumerated=plans,
            evaluations=self.evals,
            elapsed=elapsed,
        )


def _context(graph, source, params) -> CostContext:
    if isinstance(source, CostContext):
        return source
    return CostContext(graph, source, params)


def _empty_plan(graph: JoinGraph, ctx: CostContext, algorithm: str):
    builder = PlanBuilder(graph, ctx, algorithm)
    return builder.build()


def _eval(ctx: CostContext, col: _Collector, l_mask: int, r_mask: int):
    col.record(l_mask, r_mask)
    return ctx.merge(l_mask, r_mask)


def _prim_run(graph: JoinGraph, ctx: CostContext, start_edge: int | None,
              col: _Collector) -> Plan:
    builder = PlanBuilder(graph, ctx, "prim")
    n_edges = graph.n_edges
    consumed = [False] * n_edges

    if start_edge is None:
        best_cost = None
        for e in graph.edges:
            res = _eval(ctx, col, 1 << e.v1, 1 << e.v2)
            if best_cost is None or res.step_cost < best_cost:
                best_cost = res.step_cost
                first = e.id
    else:
        e = graph.edges[start_edge]
        _eval(ctx, col, 1 << e.v1, 1 << e.v2)
        first = start_edge

    edge0 = graph.edges[first]
    component = (1 << edge0.v1) | (1 << edge0.v2)
    builder.add_step(first, 1 << edge0.v1, 1 << edge0.v2)
    consumed[first] = True

    remaining = n_edges - 1
    while remaining:
        # Cyclic edges become filters before the next selection.
        for e in graph.edges:
            if consumed[e.id]:
                continue
            if (component >> e.v1) & 1 and (component >> e.v2) & 1:
                builder.add_filter(e.id)
                consumed[e.id] = True
                remaining -= 1
        if not remaining:
            break
        best = None
        for e in graph.edges:
            if consumed[e.id]:
                continue
            in1 = (component >> e.v1) & 1
            in2 = (component >> e.v2) & 1
            if in1 == in2:
                continue  # either cyclic (handled above) or not adjacent yet
            outside = e.v2 if in1 else e.v1
            res = _eval(ctx, col, component, 1 << outside)
            if best is None or res.step_cost < best[0]:
                best = (res.step_cost, e.id, outside)
        if best is None:
            raise SpanPlanError("graph became non-adjacent during enumeration")
        _cost, eid, outside = best
        builder.add_step(eid, component, 1 << outside)
        component |= 1 << outside
        consumed[eid] = True
        remaining -= 1
    return builder.build()


def _kruskal_run(graph: JoinGraph, ctx: CostContext, start_edge: int | None,
                 col: _Collector) -> Plan:
    builder = PlanBuilder(graph, ctx, "kruskal")
    n_edges = graph.n_edges
    comp_of = {v: 1 << v for v in range(graph.n_vertices)}
    consumed = [False] * n_edges
    stamps = [0] * n_edges
    # Entries are (cost, edge id, stamp): equal costs pop lowest edge id first.
    heap: list[tuple[float, int, int]] = []

    for e in graph.edges:
        res = _eval(ctx, col, 1 << e.v1, 1 << e.v2)
        heapq.heappush(heap, (res.step_cost, e.id, 0))

    def do_merge(eid: int) -> None:
        e = graph.edges[eid]
        lm, rm = comp_of[e.v1], comp_of[e.v2]
        builder.add_step(eid, lm, rm)
        merged = lm | rm
        for v in iter_bits(merged):
            comp_of[v] = merged
        consumed[eid] = True
        # Refresh candidates adjacent to the merged component; entries for
        # edges that fell inside one component resolve to filters on pop.
        for e2 in graph.edges:
            if consumed[e2.id]:
                continue
            c1, c2 = comp_of[e2.v1], comp_of[e2.v2]
            if c1 == c2 or (c1 != merged and c2 != merged):
                continue
            stamps[e2.id] += 1
            res2 = _eval(ctx, col, c1, c2)
            heapq.heappush(heap, (res2.step_cost, e2.id, stamps[e2.id]))

    if start_edge is not None:
        do_merge(start_edge)

    while heap:
        _cost, eid, stamp = heapq.heappop(heap)
        if consumed[eid] or stamp != stamps[eid]:
            continue
        e = graph.edges[eid]
        if comp_of[e.v1] == comp_of[e.v2]:
            builder.add_filter(eid)
            consumed[eid] = True
            continue
        do_merge(eid)
    return builder.build()


def _greedy(run, algorithm: str, graph: JoinGraph, source: CardinalitySource,
            params: CostParams | None, start_edge: int | None):
    ctx = _context(graph, source, params)
    col = _Collector()
    t0 = time.perf_counter()
    if graph.n_vertices == 1:
        plan = _empty_plan(graph, ctx, algorithm)
    else:
        plan = run(graph, ctx, start_edge, col)
    return plan, col.stats(1, time.perf_counter() - t0)


def prim(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         start_edge: int | None = None):
    """Component-growing enumeration from start_edge, or by default from the
    cheapest two-way join."""
    return _greedy(_prim_run, "prim", graph, source, params, start_edge)


def kruskal(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
            start_edge: int | None = None):
    """Heap-driven enumeration over all components; start_edge, when given,
    forces the first merge."""
    return _greedy(_kruskal_run, "kruskal", graph, source, params, start_edge)


def goo(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None):
    """Greedy cheapest-merge baseline over all joinable component pairs,
    ranked by operator step cost."""
    ctx = _context(graph, source, params)
    col = _Collector()
    t0 = time.perf_counter()
    builder = PlanBuilder(graph, ctx, "goo")
    if graph.n_vertices == 1:
        return builder.build(), col.stats(1, time.perf_counter() - t0)

    comps = [1 << v for v in range(graph.n_vertices)]
    while len(comps) > 1:
        best = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                a, b = comps[i], comps[j]
                lo, hi = (a, b) if a < b else (b, a)
                crossing = graph.crossing_edges(a, b)
                if not crossing:
                    continue
                res = _eval(ctx, col, lo, hi)
                key = (res.step_cost, lo, hi)
                if best is None or key < best[0]:
                    best = (key, lo, hi, min(crossing), crossing)
        if best is None:
            raise SpanPlanError("graph became disconnected during enumeration")
        _key, lo, hi, eid, crossing = best
        builder.add_step(eid, lo, hi)
        for other in crossing:
            if other != eid:
                builder.add_filter(other)
        comps.remove(lo)
        comps.remove(hi)
        comps.append(lo | hi)
    plan = builder.build()
    return plan, col.stats(1, time.perf_counter() - t0)


def este(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None):
    """Ensemble enumeration: prim and kruskal once from every edge.

    Returns (plan, stats, distinct_plans).  The winner is the member plan
    with the lowest cost, ties broken on the canonical plan encoding so the
    result is independent of execution order.
    """
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    col = _Collector()
    if graph.n_vertices == 1:
        plan = _empty_plan(graph, ctx, "este")
        return plan, col.stats(1, time.perf_counter() - t0), 1

    best_plan = None
    best_key = None
    encodings = set()
    for run in (_prim_run, _kruskal_run):
        for e in graph.edges:
            mplan = run(graph, ctx, e.id, col)
            enc = canonical_encoding(mplan)
            encodings.add(enc)
            key = (mplan.internal_cost, enc)
            if best_key is None or key < best_key:
                best_key = key
                best_plan = mplan
    distinct = len(encodings)
    plan = Plan(
        algorithm="este",
        steps=best_plan.steps,
        filters=best_plan.filters,
        internal_cost=best_plan.internal_cost,
        total_cost=best_plan.total_cost,
        shape=best_plan.shape,
    )
    stats = col.stats(distinct, time.perf_counter() - t0)
    return plan, stats, distinct


def exhaustive(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
               *, prune: bool = True, timeout: float | None = None):
    """Optimal plan by dynamic programming over connected vertex subsets.

    best(S) = min over connected splits (S1, S2) of
    merge(S1, S2) + best(S1) + best(S2).  With prune=True, a first greedy
    pass supplies an upper bound and subsets costing more than it are never
    extended (safe: increments are non-negative).
    """
    if graph.n_vertices > EXHAUSTIVE_VERTEX_LIMIT:
        raise LimitExceededError(f"exhaustive enumeration limited to {EXHAUSTIVE_VERTEX_LIMIT}"
                                 f" tables; got {graph.n_vertices}")
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    if graph.n_vertices == 1:
        plan = _empty_plan(graph, ctx, "exhaustive")
        return plan, EnumStats(plans_enumerated=1, elapsed=time.perf_counter() - t0)

    from .graph import connected_subset_masks

    ctx.ensure_cards(connected_subset_masks(graph))
    bound = float("inf")
    if prune:
        greedy_plan, _ = goo(graph, ctx)
        bound = greedy_plan.internal_cost
    deadline = t0 + timeout if timeout else 0.0

    root_cost, choices, subplans, splits, evals = _kernels.get_backend().dp_search(
        ctx.instance, bound, deadline)
    if not math.isfinite(root_cost):
        raise LimitExceededError("the optimal plan's cost overflows a float")

    builder = PlanBuilder(graph, ctx, "exhaustive")

    def emit(mask: int) -> None:
        if mask & (mask - 1) == 0:
            return
        s1, _op, _side = choices[mask]
        s2 = mask ^ s1
        emit(s1)
        emit(s2)
        builder.add_step(min(graph.crossing_edges(s1, s2)), s1, s2)

    emit(graph.full_mask)
    tree_edges = {s.edge for s in builder.steps}
    for e in graph.edges:
        if e.id not in tree_edges:
            builder.add_filter(e.id)
    plan = builder.build()
    if plan.internal_cost != root_cost:
        raise SpanPlanError("kernel cost does not match the reconstructed plan")
    stats = EnumStats(
        subplans_reached=subplans,
        join_costs_computed=splits,
        plans_enumerated=1,
        evaluations=evals,
        elapsed=time.perf_counter() - t0,
    )
    return plan, stats


ALGORITHMS = ("exhaustive", "prim", "kruskal", "goo", "este")


def run_algorithm(name: str, graph: JoinGraph, source: CardinalitySource,
                  params: CostParams | None = None, *, timeout: float | None = None):
    """Dispatch by algorithm name; returns (plan, stats)."""
    if name == "exhaustive":
        return exhaustive(graph, source, params, timeout=timeout)
    if name == "prim":
        return prim(graph, source, params)
    if name == "kruskal":
        return kruskal(graph, source, params)
    if name == "goo":
        return goo(graph, source, params)
    if name == "este":
        plan, stats, _distinct = este(graph, source, params)
        return plan, stats
    raise ValueError(f"unknown algorithm {name!r}")
