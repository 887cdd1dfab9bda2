"""Ground-truth brute force over ordered spanning trees.

An ordered edge arrangement of length |V|-1 is a valid plan iff no prefix
closes a cycle (the full set then necessarily spans all vertices).  A valid
arrangement is linear iff every prefix forms a single connected component.
This module counts the arrangement space exactly, in closed form, and
certifies optimality of the dynamic-programming search by exhaustive
comparison: its walk emits the winning joins, and ``plan._run_search``
builds the plan and the stats as it does for every enumerator; the walk
runs through ``CostContext.run_kernel``, which names a missing mask.  Only
the walk is bounded by the arrangement count; the count is bounded by the
connected table sets it reaches (``trees``).
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple

from . import _kernels
from ._kernels.formula import WALK_EDGES
from .cost import CardinalitySource, CostParams
from .errors import LimitExceededError
from .graph import JoinGraph
from .plan import _run_search

DEFAULT_ARRANGEMENT_LIMIT = 10**7


def binary_tree_space_size(n: int) -> int:
    """Number of binary join trees over n permutable tables: (2n)!/(n+1)!."""
    if n < 1:
        raise LimitExceededError("table count must be positive")
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


def enumerate_ordered_trees(graph: JoinGraph, timeout: float | None = None) -> TreeCounts:
    """Count all ordered (|V|-1)-edge arrangements, classified, in closed
    form: ``count_trees`` gives the valid and linear ones, whose complements
    are the invalid and bushy ones.  Raises LimitExceededError when the
    linear count reaches more table sets than the subset scan may, and
    OptimizeTimeout when the count runs past timeout seconds."""
    bound = arrangement_bound(graph.n_vertices, graph.n_edges)
    deadline = _kernels.deadline(time.perf_counter(), timeout)
    valid, linear = _kernels.count_trees(graph.n_vertices, graph.edge_u, graph.edge_v, deadline)
    return TreeCounts(bound, valid, bound - valid, linear, valid - linear)


def brute_force_optimal(graph: JoinGraph, source: CardinalitySource,
                        params: CostParams | None = None,
                        limit: int = DEFAULT_ARRANGEMENT_LIMIT,
                        timeout: float | None = None):
    """Minimum-cost plan by walking every valid ordered spanning tree.

    Returns (plan, stats); stats.plans_enumerated is the exact number of
    valid arrangements compared.  A graph of more than
    ``formula.WALK_EDGES`` (64) edges is refused first, whatever limit is
    given: it has over 65!/54! arrangements.
    """
    if graph.n_edges > WALK_EDGES:
        raise LimitExceededError(f"{graph.n_edges} edges exceed the oracle's limit of {WALK_EDGES}")
    bound = arrangement_bound(graph.n_vertices, graph.n_edges)
    if bound > limit:
        raise LimitExceededError(f"{bound} arrangements exceed the limit of {limit}")
    from .graph import connected_subset_masks

    def search(ctx, deadline):
        ctx.ensure_cards(connected_subset_masks(graph, deadline))
        cost, joins, valid, _linear, subplans, splits, evals = ctx.run_kernel("brute_search",
                                                                              deadline)
        if not math.isfinite(cost):
            raise LimitExceededError("the optimal plan's cost overflows a float")
        return cost, joins, subplans, splits, evals, valid

    return _run_search("brute_force", "oracle enumeration", graph, source, params, timeout, search)
