"""Plan enumeration strategies.

Five enumerators over one cost context:

* ``exhaustive`` — dynamic program over connected vertex subsets (optimal).
* ``prim`` — grow a single component by the cheapest adjacent join;
  linear plans only.
* ``kruskal`` — min-heap of candidate joins across all components with
  lazy invalidation; linear or bushy plans.
* ``goo`` — greedy cheapest-merge over all component pairs (baseline).
* ``este`` — ensemble: run prim and kruskal once seeded from every edge,
  keep the cheapest plan.  The members share the choice made at each
  state (see ``_Search``).

Each returns ``(plan, stats)``.  A search only emits its joins:
``PlanBuilder`` prices them, tracks the components and derives the filters.
All of them price candidate joins identically through CostContext.merge,
so their costs are exactly comparable.  ``EnumStats.subplans_reached`` and
``join_costs_computed`` count the distinct subsets and splits costed;
``evaluations`` counts the evaluations actually performed.
"""
from __future__ import annotations

import dataclasses
import heapq
import math
import time

from . import _kernels
from .cost import CardinalitySource, CostContext, CostParams
from .errors import LimitExceededError, OptimizeTimeout, SpanPlanError
from .graph import JoinGraph
from .plan import EnumStats, Plan, PlanBuilder, canonical_encoding

EXHAUSTIVE_VERTEX_LIMIT = 20


class _Search:
    """The state one enumeration shares between its greedy runs.

    It holds the distinct splits costed, the evaluations performed, and
    one memo per member kind of the choice made at each state.  A prim
    run's next join depends only on its component, and a kruskal run's
    only on the partition into components: every valid lazy-heap entry
    prices ``merge(comp_of[v1], comp_of[v2])`` for the current components.
    So a run that reaches a state an earlier run left replays the stored
    choices through ``PlanBuilder``; the splits it would have costed are
    recorded already.  ``prim`` and ``kruskal`` get a fresh one.
    """

    __slots__ = ("graph", "ctx", "ends", "splits", "evals", "prim_next", "kruskal_next",
                 "_opening")

    def __init__(self, graph: JoinGraph, ctx: CostContext):
        self.graph = graph
        self.ctx = ctx
        self.ends = tuple((e.id, e.v1, e.v2) for e in graph.edges)
        self.splits: set[tuple[int, int]] = set()
        self.evals = 0
        self.prim_next: dict[int, tuple[int, int]] = {}  # component -> (edge, outside vertex mask)
        self.kruskal_next: dict[tuple[int, ...], int] = {}  # comp_of -> edge
        self._opening: list | None = None

    def kruskal_opening(self) -> list:
        """A copy of kruskal's first heap: every single-edge join, priced
        once per enumeration.  Entries are (cost, edge id, stamp), so equal
        costs pop lowest edge id first."""
        if self._opening is None:
            merge, splits = self.ctx.merge, self.splits
            heap = []
            for eid, v1, v2 in self.ends:
                l_mask, r_mask = 1 << v1, 1 << v2
                heap.append((merge(l_mask, r_mask).step_cost, eid, 0))
                splits.add((l_mask, r_mask) if l_mask < r_mask else (r_mask, l_mask))
            self.evals += len(heap)
            heapq.heapify(heap)
            self._opening = heap
        return self._opening.copy()

    def stats(self, plans: int, elapsed: float) -> EnumStats:
        return EnumStats(
            subplans_reached=len({l_mask | r_mask for l_mask, r_mask in self.splits}),
            join_costs_computed=len(self.splits),
            plans_enumerated=plans,
            evaluations=self.evals,
            elapsed=elapsed,
        )


def _context(graph, source, params) -> CostContext:
    if isinstance(source, CostContext):
        return source
    return CostContext(graph, source, params)


def _prim_run(search: _Search, start_edge: int | None) -> Plan:
    ctx, ends, splits = search.ctx, search.ends, search.splits
    merge = ctx.merge
    builder = PlanBuilder(search.graph, ctx, "prim")
    if search.graph.n_vertices == 1:
        return builder.build()  # no edge to open with
    openings = ends if start_edge is None else (ends[start_edge],)
    best_cost = None
    for eid, v1, v2 in openings:
        l_mask, r_mask = 1 << v1, 1 << v2
        cost = merge(l_mask, r_mask).step_cost
        splits.add((l_mask, r_mask) if l_mask < r_mask else (r_mask, l_mask))
        if best_cost is None or cost < best_cost:
            best_cost, first = cost, eid
    evals = len(openings)
    _eid, v1, v2 = ends[first]
    l_mask, r_mask = 1 << v1, 1 << v2
    builder.add_step(first, l_mask, r_mask)
    component = l_mask | r_mask

    memo = search.prim_next
    full = search.graph.full_mask
    while component != full:
        choice = memo.get(component)
        if choice is None:
            # The first strictly cheapest candidate in edge-id order wins.
            # Later edges to an outside vertex already priced repeat the
            # same join, so they can never be strictly cheaper.
            best_cost = None
            seen = 0
            for eid, v1, v2 in ends:
                in1 = (component >> v1) & 1
                if in1 == (component >> v2) & 1:
                    continue  # inside the component or not adjacent to it
                outside = 1 << (v2 if in1 else v1)
                if outside & seen:
                    continue
                seen |= outside
                cost = merge(component, outside).step_cost
                evals += 1
                splits.add((component, outside) if component < outside else (outside, component))
                if best_cost is None or cost < best_cost:
                    best_cost, choice = cost, (eid, outside)
            memo[component] = choice
        eid, outside = choice
        builder.add_step(eid, component, outside)
        component |= outside
    search.evals += evals
    return builder.build()


def _kruskal_run(search: _Search, start_edge: int | None) -> Plan:
    ctx, ends, splits = search.ctx, search.ends, search.splits
    merge = ctx.merge
    builder = PlanBuilder(search.graph, ctx, "kruskal")
    comp_of = builder.comp_of
    stamps = [0] * len(ends)
    heap = search.kruskal_opening()
    memo = search.kruskal_next
    full = search.graph.full_mask

    # The component made by the last join, whose candidates have not been
    # re-priced yet; 0 before the first join.
    merged = builder.join(start_edge) if start_edge is not None else 0
    evals = 0
    while comp_of[0] != full:
        state = tuple(comp_of)
        eid = memo.get(state)
        if eid is None:
            if merged:
                # Re-price the candidates adjacent to the merged component.
                for e2, v1, v2 in ends:
                    c1, c2 = comp_of[v1], comp_of[v2]
                    if c1 == c2 or (c1 != merged and c2 != merged):
                        continue
                    stamps[e2] += 1
                    heapq.heappush(heap, (merge(c1, c2).step_cost, e2, stamps[e2]))
                    evals += 1
                    splits.add((c1, c2) if c1 < c2 else (c2, c1))
            # Skip stale entries and edges now inside one component (those
            # become filters).
            while True:
                _cost, eid, stamp = heapq.heappop(heap)
                if stamp == stamps[eid]:
                    _eid, v1, v2 = ends[eid]
                    if comp_of[v1] != comp_of[v2]:
                        break
            memo[state] = eid
        merged = builder.join(eid)
    search.evals += evals
    return builder.build()


def _greedy(run, graph: JoinGraph, source: CardinalitySource, params: CostParams | None,
            start_edge: int | None):
    ctx = _context(graph, source, params)
    search = _Search(graph, ctx)
    t0 = time.perf_counter()
    plan = run(search, start_edge)
    return plan, search.stats(1, time.perf_counter() - t0)


def prim(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         start_edge: int | None = None):
    """Component-growing enumeration from start_edge, or by default from the
    cheapest two-way join."""
    return _greedy(_prim_run, graph, source, params, start_edge)


def kruskal(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
            start_edge: int | None = None):
    """Heap-driven enumeration over all components; start_edge, when given,
    forces the first merge."""
    return _greedy(_kruskal_run, graph, source, params, start_edge)


def goo(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None):
    """Greedy cheapest-merge baseline over all joinable component pairs,
    ranked by operator step cost."""
    ctx = _context(graph, source, params)
    search = _Search(graph, ctx)
    t0 = time.perf_counter()
    builder = PlanBuilder(graph, ctx, "goo")
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
                res = ctx.merge(lo, hi)
                search.evals += 1
                search.splits.add((lo, hi))
                key = (res.step_cost, lo, hi)
                if best is None or key < best[0]:
                    best = (key, min(crossing))
        if best is None:
            raise SpanPlanError("graph became disconnected during enumeration")
        (_cost, lo, hi), eid = best
        builder.add_step(eid, lo, hi)
        comps.remove(lo)
        comps.remove(hi)
        comps.append(lo | hi)
    plan = builder.build()
    return plan, search.stats(1, time.perf_counter() - t0)


def este(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         *, timeout: float | None = None):
    """Ensemble enumeration: prim and kruskal once from every edge.

    Returns (plan, stats); ``stats.plans_enumerated`` is the number of
    distinct member plans.  The winner is the member plan with the lowest
    cost, ties broken on the canonical plan encoding so the result is
    independent of execution order.  All members share one ``_Search``.
    The deadline, when ``timeout`` is given, is checked between members.
    A one-table graph has no edge to seed a member from, so each member
    runs once unseeded.
    """
    ctx = _context(graph, source, params)
    t0 = time.perf_counter()
    search = _Search(graph, ctx)
    deadline = _kernels.deadline(t0, timeout)
    best_plan = None
    best_key = None
    encodings = set()
    for run in (_prim_run, _kruskal_run):
        for start_edge in range(graph.n_edges) or (None,):
            if deadline and time.perf_counter() > deadline:
                raise OptimizeTimeout("este ran past its deadline")
            mplan = run(search, start_edge)
            enc = canonical_encoding(mplan)
            encodings.add(enc)
            key = (mplan.internal_cost, enc)
            if best_key is None or key < best_key:
                best_key = key
                best_plan = mplan
    plan = dataclasses.replace(best_plan, algorithm="este")
    return plan, search.stats(len(encodings), time.perf_counter() - t0)


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
    deadline = _kernels.deadline(t0, timeout)

    from .graph import connected_subset_masks

    ctx.ensure_cards(connected_subset_masks(graph))
    bound = float("inf")
    if prune:
        greedy_plan, _ = goo(graph, ctx)
        bound = greedy_plan.internal_cost

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
        return prim(graph, source, params)
    if name == "kruskal":
        return kruskal(graph, source, params)
    if name == "goo":
        return goo(graph, source, params)
    if name == "este":
        return este(graph, source, params, timeout=timeout)
    raise ValueError(f"unknown algorithm {name!r}")
