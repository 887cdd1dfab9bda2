"""The cost formula: the package's one Python definition of a join's price.

``join_cost`` prices one join with a given operator and side, ``merge``
chooses the operator and side with it, and ``model_product`` is the
selectivity model's estimate of a subset.  An ``Instance`` holds inputs
only: the first two read the cardinality memo their caller passes.
``cost.CostContext`` prices every join through this module, and the search
kernels (``pure.py`` and its C mirror ``kernels.c``) use the same operations
in the same order, so costs are bit-for-bit equal (tests/test_kernels.py).

This module is all a planning process needs of the Python kernels when
the compiled backend runs the searches; ``pure`` is imported only when it
is the backend asked for.
"""
from __future__ import annotations

OP_HJ = 0
OP_INL = 1
SIDE_LEFT = 0
SIDE_RIGHT = 1
# Member kinds of a greedy_search run list.
PRIM = 0
KRUSKAL = 1
# The most edges brute_search walks: kernels.c keeps a walk's edge sets in
# one 64-bit word.  A graph with more has over 65!/54! (about 8.7e19)
# arrangements, far past any walk.
WALK_EDGES = 64


class Instance:
    """One planning problem's inputs, as numbers; each caller keeps its own memo."""

    def __init__(self, n: int, edge_u, edge_v, scan, indexed, lam: float,
                 edge_of, model: tuple | None = None, catalog=None):
        self.n = n
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.scan = scan              # per-vertex scan cost (tau * base size)
        self.indexed = indexed
        self.lam = lam
        self.edge_of = edge_of        # 2-vertex edge mask -> its edge id
        # The source a kernel's memo reads: a selectivity model as (bases,
        # edge masks, selectivities), which computes every mask, or a
        # catalog's map of mask -> row count.
        self.model = model
        self.catalog = catalog
        # The compiled backend's view of this instance (loader._problem).
        self.problem = None

    def known_cards(self) -> dict:
        """The cardinalities a kernel starts from: the catalog, or none under
        a model, since a kernel computes each mask on first use exactly as
        the context did."""
        return {} if self.catalog is None else self.catalog


def check_runs(inst: Instance, runs) -> None:
    """Raise ValueError unless runs, a greedy_search run list, is non-empty
    and each run is (PRIM or KRUSKAL, None or an edge id of inst); the
    compiled kernel indexes its edge arrays by these starts.  An edge id is
    an int: True or 1.0 would name edge 1 to C but not to pure."""
    if not runs or not {kind for kind, _start in runs} <= {PRIM, KRUSKAL} \
            or not all(start is None or type(start) is int and 0 <= start < len(inst.edge_u)
                       for _kind, start in runs):
        raise ValueError("greedy_search runs must be a non-empty list of (PRIM or KRUSKAL,"
                         f" None or an edge id below {len(inst.edge_u)})")


def check_masks(inst: Instance, masks) -> None:
    """Raise ValueError unless masks are non-empty subsets of inst's tables:
    the compiled kernels index per-table arrays by masks, and their memo
    keeps mask 0 for a free slot."""
    if masks and not 0 < min(masks) <= max(masks) < 1 << inst.n:
        raise ValueError(f"kernel masks must be non-empty subsets of the instance's {inst.n}"
                         " tables")


def check_walk(inst: Instance) -> None:
    """Raise ValueError when inst has more edges than brute_search walks."""
    if len(inst.edge_u) > WALK_EDGES:
        raise ValueError(f"brute_search walks at most {WALK_EDGES} edges, not"
                         f" {len(inst.edge_u)}")


def model_product(bases, edge_masks, sels, mask: int) -> float:
    """The selectivity model's estimate of mask before rounding up.

    Bases multiply in ascending vertex order, then selectivities by edge id:
    the order fixes every product bit for bit.  A one-table mask holds no
    edge.
    """
    if mask and mask & (mask - 1) == 0:
        return 1.0 * bases[mask.bit_length() - 1]
    prod = 1.0
    rest = mask
    while rest:
        low = rest & -rest
        prod *= bases[low.bit_length() - 1]
        rest ^= low
    for edge_mask, sel in zip(edge_masks, sels):
        if mask & edge_mask == edge_mask:
            prod *= sel
    return prod


def join_cost(inst: Instance, cards, l_mask: int, r_mask: int, op: int, side: int):
    """Price one join of two disjoint connected subsets with a given operator,
    reading cardinalities from cards, the caller's memo (mask -> card).

    ``side`` names the hash-build side for OP_HJ and the index-lookup (inner)
    side for OP_INL, relative to the (l_mask, r_mask) argument order; an INL
    inner is a base table and is not scanned.  This is the package's one
    per-join cost formula.  Returns (step_cost, out_card).
    """
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


def merge(inst: Instance, cards, l_mask: int, r_mask: int):
    """Choose the operator and side for one join and price it with join_cost.

    Returns (step_cost, op, side, out_card), ``side`` as in join_cost.
    """
    # The result's cardinality is read first, as kernels.c reads it, so
    # every path names the same missing mask.
    out = cards[l_mask | r_mask]
    lc = cards[l_mask]
    rc = cards[r_mask]
    # Hash join: build on the smaller input, ties toward the smaller mask.
    side = SIDE_LEFT if lc < rc or (lc == rc and l_mask < r_mask) else SIDE_RIGHT
    cost, _out = join_cost(inst, cards, l_mask, r_mask, OP_HJ, side)

    # Index nested-loop: the inner must be a base table.  When both sides
    # are base tables the edge orientation designates the inner (its right
    # endpoint); otherwise the singleton side is the inner.
    l_single = l_mask & (l_mask - 1) == 0
    r_single = r_mask & (r_mask - 1) == 0
    inner = -1
    if l_single and r_single:
        eid = inst.edge_of.get(l_mask | r_mask)
        if eid is not None:
            inner = inst.edge_v[eid]
    elif r_single:
        inner = r_mask.bit_length() - 1
    elif l_single:
        inner = l_mask.bit_length() - 1
    if inner >= 0 and inst.indexed[inner]:
        inner_side = SIDE_LEFT if 1 << inner == l_mask else SIDE_RIGHT
        inl, _out = join_cost(inst, cards, l_mask, r_mask, OP_INL, inner_side)
        if inl < cost:
            return inl, OP_INL, inner_side, out
    return cost, OP_HJ, side, out
