"""Ground-truth brute force over ordered spanning trees.

An ordered edge arrangement of length |V|-1 is a valid plan iff no prefix
closes a cycle (the full set then necessarily spans all vertices).  A valid
arrangement is linear iff every prefix forms a single connected component.
This module counts the arrangement space exactly, in closed form, and
certifies optimality of the dynamic-programming search by exhaustive
comparison.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple

from . import _kernels
from .cost import CardinalitySource, CostContext, CostParams
from .errors import LimitExceededError
from .graph import JoinGraph
from .plan import EnumStats, replay

DEFAULT_ARRANGEMENT_LIMIT = 10**7

BINARY_SPACE_MAX_N = 15


def binary_tree_space_size(n: int) -> int:
    """Number of binary join trees over n permutable tables: (2n)!/(n+1)!."""
    if not 1 <= n <= BINARY_SPACE_MAX_N:
        raise LimitExceededError(f"table count {n} outside [1, {BINARY_SPACE_MAX_N}]")
    return math.factorial(2 * n) // math.factorial(n + 1)


def arrangement_bound(v: int, e: int) -> int:
    """Upper bound on ordered spanning trees: e!/(e-v+1)!."""
    if v < 1:
        raise LimitExceededError("vertex count must be positive")
    if e < v - 1:
        raise LimitExceededError(f"{e} edges cannot span {v} vertices")
    return math.perm(e, v - 1)


class TreeCounts(NamedTuple):
    bound: int
    valid: int
    invalid: int
    linear: int
    bushy: int


def enumerate_ordered_trees(graph: JoinGraph, limit: int = DEFAULT_ARRANGEMENT_LIMIT,
                            timeout: float | None = None) -> TreeCounts:
    """Count all ordered (|V|-1)-edge arrangements, classified, in closed
    form: ``count_trees`` gives the valid and linear ones, whose complements
    are the invalid and bushy ones.  Raises LimitExceededError when there
    are more than limit arrangements, and OptimizeTimeout when the count
    runs past timeout seconds."""
    bound = arrangement_bound(graph.n_vertices, graph.n_edges)
    if bound > limit:
        raise LimitExceededError(f"{bound} arrangements exceed the limit of {limit}")
    deadline = _kernels.deadline(time.perf_counter(), timeout)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    valid, linear = _kernels.get_backend().count_trees(graph.n_vertices, edge_u, edge_v, deadline)
    return TreeCounts(bound, valid, bound - valid, linear, valid - linear)


def brute_force_optimal(graph: JoinGraph, source: CardinalitySource,
                        params: CostParams | None = None,
                        limit: int = DEFAULT_ARRANGEMENT_LIMIT,
                        timeout: float | None = None):
    """Minimum-cost plan by walking every valid ordered spanning tree.

    Returns (plan, stats); stats.plans_enumerated is the exact number of
    valid arrangements compared.
    """
    bound = arrangement_bound(graph.n_vertices, graph.n_edges)
    if bound > limit:
        raise LimitExceededError(f"{bound} arrangements exceed the limit of {limit}")
    ctx = source if isinstance(source, CostContext) else CostContext(graph, source, params)
    t0 = time.perf_counter()
    deadline = _kernels.deadline(t0, timeout)

    from .graph import connected_subset_masks

    ctx.ensure_cards(connected_subset_masks(graph, deadline))
    best_cost, joins, valid, _linear, subplans, splits, evals = _kernels.get_backend().brute_search(
        ctx.instance, deadline)
    if not math.isfinite(best_cost):
        raise LimitExceededError("the optimal plan's cost overflows a float")
    plan = replay(graph, ctx, "brute_force", joins, best_cost)
    stats = EnumStats(
        subplans_reached=subplans,
        join_costs_computed=splits,
        plans_enumerated=valid,
        evaluations=evals,
        elapsed=time.perf_counter() - t0,
    )
    return plan, stats
