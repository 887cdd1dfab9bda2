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

``prim``, ``kruskal`` and ``este`` run their members in the backend's
``greedy_search`` kernel, where members share the choice made at each
state, and replay only the winner's joins through ``PlanBuilder``; ``goo``
and ``exhaustive`` hand their joins to it directly.  ``PlanBuilder`` prices
the joins, tracks the components and derives the filters.  Each returns
``(plan, stats)``.  Every join is priced by the one cost formula
(``formula.merge``, mirrored in ``kernels.c``), so costs are exactly
comparable, and a replayed plan must cost what the kernel reported.
``EnumStats.subplans_reached`` and ``join_costs_computed`` count the
distinct subsets and splits costed; ``evaluations`` counts the evaluations
actually performed.
"""
from __future__ import annotations

import math
import time

from . import _kernels
from ._kernels import formula
from .cost import CardinalitySource, CostContext, CostParams
from .errors import LimitExceededError, OptimizeTimeout, SpanPlanError
from .graph import JoinGraph
from .plan import EnumStats, PlanBuilder

EXHAUSTIVE_VERTEX_LIMIT = 20


def _context(graph, source, params) -> CostContext:
    if isinstance(source, CostContext):
        return source
    return CostContext(graph, source, params)


def _greedy(name: str, graph: JoinGraph, source: CardinalitySource, params: CostParams | None,
            runs, timeout: float | None):
    """Run greedy members in the search kernel and replay its winner."""
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    deadline = _kernels.deadline(t0, timeout)
    try:
        joins, cost, subplans, splits, evals, plans = _kernels.get_backend().greedy_search(
            ctx.instance, runs, deadline)
    except KeyError as exc:
        ctx.source.lookup(graph, exc.args[0])  # raises the source's own error
        raise
    except OptimizeTimeout:
        raise OptimizeTimeout(f"{name} ran past its deadline") from None
    builder = PlanBuilder(graph, ctx, name)
    for eid, l_mask, r_mask in joins:
        builder.add_step(eid, l_mask, r_mask)
    plan = builder.build()
    if plan.internal_cost != cost:
        raise SpanPlanError("kernel cost does not match the replayed plan")
    stats = EnumStats(
        subplans_reached=subplans,
        join_costs_computed=splits,
        plans_enumerated=plans,
        evaluations=evals,
        elapsed=time.perf_counter() - t0,
    )
    return plan, stats


def _one_run(kind: int, graph: JoinGraph, start_edge: int | None) -> list:
    if start_edge is not None and not 0 <= start_edge < graph.n_edges:
        raise IndexError(f"start_edge {start_edge} is not an edge id of this graph")
    return [(kind, start_edge)]


def prim(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         start_edge: int | None = None, *, timeout: float | None = None):
    """Component-growing enumeration from start_edge, or by default from the
    cheapest two-way join."""
    return _greedy("prim", graph, source, params, _one_run(formula.PRIM, graph, start_edge),
                   timeout)


def kruskal(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
            start_edge: int | None = None, *, timeout: float | None = None):
    """Heap-driven enumeration over all components; start_edge, when given,
    forces the first merge."""
    return _greedy("kruskal", graph, source, params, _one_run(formula.KRUSKAL, graph, start_edge),
                   timeout)


def goo(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
        *, timeout: float | None = None):
    """Greedy cheapest-merge baseline over all joinable component pairs,
    ranked by (step cost, smaller mask, larger mask).  Each component keeps
    the mask of its neighbouring vertices, so adjacency is one AND; only the
    winning pair looks up its lowest crossing edge.  The deadline is checked
    between rounds."""
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    deadline = _kernels.deadline(t0, timeout)
    builder = PlanBuilder(graph, ctx, "goo")
    # Each component, oldest first, with the vertices adjacent to it.
    comps = {1 << v: adj for v, adj in enumerate(graph.adjacency)}
    splits: set[tuple[int, int]] = set()
    evals = 0
    while len(comps) > 1:
        if builder.steps and deadline and time.perf_counter() > deadline:
            raise OptimizeTimeout("goo ran past its deadline")
        best = None
        pairs = list(comps.items())
        for i, (a, nbr) in enumerate(pairs):
            for b, _ in pairs[i + 1:]:
                if not nbr & b:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                key = (ctx.merge(lo, hi).step_cost, lo, hi)
                evals += 1
                splits.add((lo, hi))
                if best is None or key < best:
                    best = key
        if best is None:
            raise SpanPlanError("graph became disconnected during enumeration")
        _cost, lo, hi = best
        builder.add_step(min(graph.crossing_edges(lo, hi)), lo, hi)
        comps[lo | hi] = (comps.pop(lo) | comps.pop(hi)) & ~(lo | hi)
    stats = EnumStats(
        subplans_reached=len({l_mask | r_mask for l_mask, r_mask in splits}),
        join_costs_computed=len(splits),
        plans_enumerated=1,
        evaluations=evals,
        elapsed=time.perf_counter() - t0,
    )
    return builder.build(), stats


def este(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         *, timeout: float | None = None):
    """Ensemble enumeration: prim and kruskal once from every edge.

    Returns (plan, stats); ``stats.plans_enumerated`` is the number of
    distinct member plans.  The winner is the member plan with the lowest
    cost, ties broken on the canonical plan encoding so the result is
    independent of execution order.  A one-table graph has no edge to seed
    a member from, so each member runs once unseeded.
    """
    starts = range(graph.n_edges) or (None,)
    runs = [(kind, start) for kind in (formula.PRIM, formula.KRUSKAL) for start in starts]
    return _greedy("este", graph, source, params, runs, timeout)


def exhaustive(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
               *, prune: bool = True, timeout: float | None = None):
    """Optimal plan by dynamic programming over connected vertex subsets.

    best(S) = min over connected splits (S1, S2) of
    merge(S1, S2) + best(S1) + best(S2).  With prune=True, a first greedy
    pass supplies an upper bound and subsets costing more than it are never
    extended (safe: increments are non-negative).  The deadline is checked
    after the subset scan, the cardinalities and the bound, and inside the
    DP.
    """
    if graph.n_vertices > EXHAUSTIVE_VERTEX_LIMIT:
        raise LimitExceededError(f"exhaustive enumeration limited to {EXHAUSTIVE_VERTEX_LIMIT}"
                                 f" tables; got {graph.n_vertices}")
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    deadline = _kernels.deadline(t0, timeout)

    def check_deadline() -> None:
        if deadline and time.perf_counter() > deadline:
            raise OptimizeTimeout("exhaustive enumeration ran past its deadline")

    from .graph import connected_subset_masks

    masks = connected_subset_masks(graph)
    check_deadline()
    ctx.ensure_cards(masks)
    check_deadline()
    bound = float("inf")
    if prune:
        greedy_plan, _ = goo(graph, ctx)
        bound = greedy_plan.internal_cost
        check_deadline()

    root_cost, choices, subplans, splits = _kernels.get_backend().dp_search(
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
    plan = builder.build()
    if plan.internal_cost != root_cost:
        raise SpanPlanError("kernel cost does not match the reconstructed plan")
    stats = EnumStats(
        subplans_reached=subplans,
        join_costs_computed=splits,
        plans_enumerated=1,
        evaluations=splits,
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
        return prim(graph, source, params, timeout=timeout)
    if name == "kruskal":
        return kruskal(graph, source, params, timeout=timeout)
    if name == "goo":
        return goo(graph, source, params, timeout=timeout)
    if name == "este":
        return este(graph, source, params, timeout=timeout)
    raise ValueError(f"unknown algorithm {name!r}")
