"""The cost formula: the package's one Python definition of a join's price.

``join_cost`` prices one join with a given operator and side, ``merge``
chooses the operator and side with it, and ``model_product`` is the
selectivity model's estimate of a subset.  ``cost.CostContext`` prices
every join through this module, and the search kernels (``pure.py`` and
its C mirror ``kernels.c``) use the same operations in the same order, so
costs are bit-for-bit equal everywhere (tests/test_kernels.py).

This module is all a planning process needs of the Python kernels when
the compiled backend runs the searches; ``pure`` is imported only when it
is the backend asked for.
"""
from __future__ import annotations

from dataclasses import dataclass

OP_HJ = 0
OP_INL = 1
SIDE_LEFT = 0
SIDE_RIGHT = 1
# Member kinds of a greedy_search run list.
PRIM = 0
KRUSKAL = 1


@dataclass
class Instance:
    """Compact numeric view of one planning problem."""

    n: int
    edge_u: tuple[int, ...]
    edge_v: tuple[int, ...]
    scan: tuple[float, ...]        # per-vertex scan cost (tau * base size)
    indexed: tuple[bool, ...]
    lam: float
    cards: dict[int, float]        # mask -> output cardinality
    pair_inner: dict[int, int]     # 2-vertex edge mask -> lookup-side vertex
    # The source greedy_search computes cardinalities from: a selectivity
    # model as (bases, ((edge mask, selectivity), ...)), else a catalog.
    model: tuple | None = None
    catalog: dict[int, int] | None = None


def model_product(bases, edge_sels, mask: int) -> float:
    """The selectivity model's estimate of mask before rounding up.

    Bases multiply in ascending vertex order, then selectivities by edge id:
    the order fixes every product bit for bit.
    """
    prod = 1.0
    rest = mask
    while rest:
        low = rest & -rest
        prod *= bases[low.bit_length() - 1]
        rest ^= low
    for edge_mask, sel in edge_sels:
        if mask & edge_mask == edge_mask:
            prod *= sel
    return prod


def join_cost(inst: Instance, l_mask: int, r_mask: int, op: int, side: int):
    """Price one join of two disjoint connected subsets with a given operator.

    ``side`` names the hash-build side for OP_HJ and the index-lookup (inner)
    side for OP_INL, relative to the (l_mask, r_mask) argument order; an INL
    inner is a base table and is not scanned.  This is the package's one
    per-join cost formula.  Returns (step_cost, out_card).
    """
    cards = inst.cards
    out = cards[l_mask | r_mask]
    if op == OP_HJ:
        cost = out + cards[l_mask if side == SIDE_LEFT else r_mask]
        if l_mask & (l_mask - 1) == 0:
            cost = cost + inst.scan[l_mask.bit_length() - 1]
        if r_mask & (r_mask - 1) == 0:
            cost = cost + inst.scan[r_mask.bit_length() - 1]
        return cost, out
    outer_mask = r_mask if side == SIDE_LEFT else l_mask
    outer_card = cards[outer_mask]
    if outer_card > 0.0:
        cost = inst.lam * (out if out >= outer_card else outer_card)
    else:
        cost = 0.0
    if outer_mask & (outer_mask - 1) == 0:
        cost = cost + inst.scan[outer_mask.bit_length() - 1]
    return cost, out


def merge(inst: Instance, l_mask: int, r_mask: int):
    """Choose the operator and side for one join and price it with join_cost.

    Returns (step_cost, op, side, out_card), ``side`` as in join_cost.
    """
    cards = inst.cards
    lc = cards[l_mask]
    rc = cards[r_mask]
    # Hash join: build on the smaller input, ties toward the smaller mask.
    side = SIDE_LEFT if lc < rc or (lc == rc and l_mask < r_mask) else SIDE_RIGHT
    cost, out = join_cost(inst, l_mask, r_mask, OP_HJ, side)

    # Index nested-loop: the inner must be a base table.  When both sides
    # are base tables the edge orientation designates the inner (its right
    # endpoint); otherwise the singleton side is the inner.
    l_single = l_mask & (l_mask - 1) == 0
    r_single = r_mask & (r_mask - 1) == 0
    inner = -1
    if l_single and r_single:
        inner = inst.pair_inner.get(l_mask | r_mask, -1)
    elif r_single:
        inner = r_mask.bit_length() - 1
    elif l_single:
        inner = l_mask.bit_length() - 1
    if inner >= 0 and inst.indexed[inner]:
        inner_side = SIDE_LEFT if 1 << inner == l_mask else SIDE_RIGHT
        inl, _out = join_cost(inst, l_mask, r_mask, OP_INL, inner_side)
        if inl < cost:
            return inl, OP_INL, inner_side, out
    return cost, OP_HJ, side, out
