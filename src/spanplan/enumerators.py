"""Plan enumeration strategies.

Five enumerators over one cost context:

* ``exhaustive`` — dynamic program over connected vertex subsets (optimal).
* ``prim`` — grow a single component by the cheapest adjacent join;
  linear plans only.
* ``kruskal`` — join the cheapest pair of adjacent components, anywhere
  in the graph; linear or bushy plans.
* ``goo`` — greedy cheapest-merge over all component pairs (baseline).
* ``este`` — ensemble: run prim and kruskal once seeded from every edge,
  keep the cheapest plan.

The three greedies share one rule: join the cheapest pair of adjacent
components, each pair priced once, when one of the two is made.  prim and
kruskal break equal costs on the lowest edge between the pair, goo on the
pair's (lower mask, higher mask).

``prim``, ``kruskal`` and ``este`` run their members in the backend's
``greedy_search`` kernel through one member routine: prim is kruskal
restricted to the pairs that hold its component.  Members share the choice
made at each state in one memo keyed by (kind, partition).  ``exhaustive``
runs the ``dp_search`` kernel over the connected subsets.  ``goo`` runs its
loop in Python, but prices each round's pairs with one
``CostContext.merge_pairs`` call, which is one ``merge_pairs`` kernel call
for the pairs the context has not priced.  Every kernel runs through
``CostContext.run_kernel``, which names a kernel's missing mask as the
source does.  Each supplies only its search: ``plan._run_search`` builds
the context, starts the deadline, names a timeout, replays the joins the
search emits (checking that the plan costs what the search reported) and
returns ``(plan, stats)``.  Every join is priced by the one cost formula
(``formula.merge``, mirrored in ``kernels.c``), so costs are exactly
comparable.
``EnumStats.subplans_reached`` and ``join_costs_computed`` count the
distinct subsets and splits costed; ``evaluations`` counts the evaluations
actually performed.
"""
from __future__ import annotations

import math
import time

from ._kernels import formula
from .cost import CardinalitySource, CostParams
from .errors import LimitExceededError, OptimizeTimeout, SpanPlanError
from .graph import JoinGraph
from .plan import _run_search

EXHAUSTIVE_VERTEX_LIMIT = 20


def _greedy(name: str, graph: JoinGraph, source: CardinalitySource, params: CostParams | None,
            runs, timeout: float | None):
    """Run greedy members in the search kernel."""
    def search(ctx, deadline):
        return ctx.run_kernel("greedy_search", runs, deadline)
    return _run_search(name, name, graph, source, params, timeout, search)


def _one_run(kind: int, graph: JoinGraph, start_edge: int | None) -> list:
    if start_edge is not None and (type(start_edge) is not int
                                   or not 0 <= start_edge < graph.n_edges):
        raise IndexError(f"start_edge {start_edge!r} is not an edge id of this graph")
    return [(kind, start_edge)]


def prim(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
         start_edge: int | None = None, *, timeout: float | None = None):
    """Component-growing enumeration from start_edge, or by default from the
    cheapest two-way join."""
    return _greedy("prim", graph, source, params, _one_run(formula.PRIM, graph, start_edge),
                   timeout)


def kruskal(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
            start_edge: int | None = None, *, timeout: float | None = None):
    """Cheapest-pair enumeration over all components; start_edge, when
    given, forces the first merge."""
    return _greedy("kruskal", graph, source, params, _one_run(formula.KRUSKAL, graph, start_edge),
                   timeout)


def goo(graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None,
        *, timeout: float | None = None):
    """Greedy cheapest-merge baseline over all joinable component pairs,
    ranked by (step cost, smaller mask, larger mask).  Each component keeps
    the mask of its neighbouring vertices, so adjacency is one AND; only the
    winning pair looks up its ``formula.lowest_edge``.  Every pair is priced
    once: after the first round, a round prices only the component the last
    one made against its neighbours.  A round prices its pairs with one
    ``CostContext.merge_pairs`` call, so one ``merge_pairs`` kernel call for
    the pairs the context has not priced, which reads each pair's union,
    then its sides, so a missing or overflowing subset is named as
    ``CostContext.merge`` would name it.  A round with no pairs calls no
    kernel.  The deadline is checked between rounds."""
    def search(ctx, deadline):
        # Each component, oldest first, with the vertices adjacent to it and its cost.
        comps = {1 << v: adj for v, adj in enumerate(graph.adjacency)}
        costs = dict.fromkeys(comps, 0.0)
        keys: set[tuple] = set()  # each joinable pair's (step cost, lo, hi)
        joins = []
        evals = 0

        def price(pairs: list) -> None:
            nonlocal evals
            pairs = [(a, b) if a < b else (b, a) for a, b in pairs]
            for (lo, hi), res in zip(pairs, ctx.merge_pairs(pairs)):
                keys.add((res.step_cost, lo, hi))
            evals += len(pairs)

        opening = list(comps.items())
        price([(a, b) for i, (a, nbr) in enumerate(opening) for b, _ in opening[i + 1:]
               if nbr & b])
        while len(comps) > 1:
            if not keys:
                raise SpanPlanError("graph became disconnected during enumeration")
            step, lo, hi = min(keys)
            merged = lo | hi
            edge = formula.lowest_edge(graph.edge_u, graph.edge_v, lo, hi)
            joins.append((edge, lo, hi, ctx.cards[merged]))
            costs[merged] = step + costs.pop(lo) + costs.pop(hi)
            nbr = (comps.pop(lo) | comps.pop(hi)) & ~merged
            keys = {key for key in keys if not (key[1] | key[2]) & merged}
            if comps and deadline and time.perf_counter() > deadline:
                raise OptimizeTimeout
            price([(a, merged) for a in comps if nbr & a])
            comps[merged] = nbr
        # Components only grow, so every pair priced is distinct and so is its union.
        (cost,) = costs.values()
        return cost, joins, evals, evals, evals, 1

    return _run_search("goo", "goo", graph, source, params, timeout, search)


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
    extended (safe: increments are non-negative).  ``stats.bound`` is the
    bound used, goo's cost, or inf with prune=False.  The deadline is
    checked inside the subset scan and the bound, between the phases, and
    inside the DP.
    """
    if graph.n_vertices > EXHAUSTIVE_VERTEX_LIMIT:
        raise LimitExceededError(f"exhaustive enumeration limited to {EXHAUSTIVE_VERTEX_LIMIT}"
                                 f" tables; got {graph.n_vertices}")
    from .graph import connected_subset_masks

    bound = math.inf

    def search(ctx, deadline):
        nonlocal bound

        def check_deadline() -> None:
            if deadline and time.perf_counter() > deadline:
                raise OptimizeTimeout

        masks = connected_subset_masks(graph, deadline)
        check_deadline()
        ctx.ensure_cards(masks)
        check_deadline()
        if prune:
            remaining = deadline - time.perf_counter() if deadline else None
            bound = goo(graph, ctx, timeout=remaining)[0].internal_cost
            check_deadline()
        cost, joins, subplans, splits = ctx.run_kernel("dp_search", masks, bound, deadline)
        if not math.isfinite(cost):
            raise LimitExceededError("the optimal plan's cost overflows a float")
        return cost, joins, subplans, splits, splits, 1

    plan, stats = _run_search("exhaustive", "exhaustive enumeration", graph, source, params,
                              timeout, search)
    stats.bound = bound
    return plan, stats


ALGORITHMS = ("exhaustive", "prim", "kruskal", "goo", "este")


def run_algorithm(name: str, graph: JoinGraph, source: CardinalitySource,
                  params: CostParams | None = None, *, timeout: float | None = None):
    """Dispatch by algorithm name; returns (plan, stats).  A name outside
    ALGORITHMS raises SpanPlanError.  The name is looked up in this module
    at call time, so a function rebound here (a tracer's wrapper) runs."""
    if name not in ALGORITHMS:
        raise SpanPlanError(f"unknown algorithm {name!r}")
    return globals()[name](graph, source, params, timeout=timeout)
