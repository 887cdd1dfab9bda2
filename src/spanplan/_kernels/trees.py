"""The size of the ordered spanning-tree space, in closed form.

An ordered arrangement of n-1 of a graph's edges is valid when no prefix
closes a cycle, which makes its edges a spanning tree, and linear when
every prefix is one connected tree.  ``count_trees`` counts them without
walking the e!/(e-n+1)! arrangements: each spanning tree is valid in all
(n-1)! of its orders, the spanning trees are counted by Kirchhoff's
matrix-tree theorem, and the linear orders by a dynamic program over the
connected vertex sets they pass through.  The counts are Python ints, so
they stay exact past 2^63.  Only that dynamic program's work grows
exponentially, so it alone is guarded, by the subset scan's budget.
``_kernels.count_trees`` imports this module on its first call.
"""
import math
import time

from ..errors import LimitExceededError, OptimizeTimeout
from ..graph import SUBSET_ENUM_LIMIT


def spanning_trees(n: int, edge_u, edge_v) -> int:
    """The number of spanning trees of a connected graph: the determinant of
    its Laplacian without the last row and column, by fraction-free
    (Bareiss) elimination.  That matrix is positive definite, so every
    pivot is positive and no row is swapped."""
    m = n - 1
    lap = [[0] * m for _ in range(m)]
    for u, v in zip(edge_u, edge_v):
        for a, b in ((u, v), (v, u)):
            if a < m:
                lap[a][a] += 1
                if b < m:
                    lap[a][b] -= 1
    det = 1
    for k in range(m):
        pivot, row_k = lap[k][k], lap[k]
        for row in lap[k + 1:]:
            f = row[k]
            for j in range(k + 1, m):
                row[j] = (pivot * row[j] - f * row_k[j]) // det
        det = pivot
    return det


def linear_orders(n: int, edge_u, edge_v, deadline: float = 0.0) -> int:
    """The number of edge orders whose every prefix is one tree.

    ways[S] counts the orders of such prefixes that span the vertex set S:
    one for each edge's two ends, and S grows by each table w outside it in
    as many ways as w has edges into S.  Sets are visited one size at a
    time; the clock is read at the first set and at every 4096th after it.
    Raises LimitExceededError once more than 1 << SUBSET_ENUM_LIMIT sets
    are reached, so every graph of up to SUBSET_ENUM_LIMIT tables counts,
    and before the first set when a lower bound on the sets already exceeds
    that budget.
    """
    adj = dict.fromkeys((1 << v for v in range(n)), 0)  # a table's bit -> its neighbours
    for u, v in zip(edge_u, edge_v):
        adj[1 << u] |= 1 << v
        adj[1 << v] |= 1 << u
    budget = 1 << SUBSET_ENUM_LIMIT
    too_many = f"the linear-order count reaches more than {budget} connected table sets"
    # Two lower bounds on the sets of two tables or more: each table with any
    # of its higher-numbered neighbours (such sets differ in their lowest
    # table), and the busiest table with any of its neighbours.
    if max(sum((1 << (nbrs & -bit).bit_count()) - 1 for bit, nbrs in adj.items()),
           (1 << max(nbrs.bit_count() for nbrs in adj.values())) - 1) > budget:
        raise LimitExceededError(too_many)
    # S -> [ways, the tables outside S with an edge into S]
    ways = {1 << u | 1 << v: [1, (adj[1 << u] | adj[1 << v]) & ~(1 << u | 1 << v)]
            for u, v in zip(edge_u, edge_v)}
    reached = len(ways)
    states = 0
    for _size in range(2, n):
        grown: dict[int, list] = {}
        for s, (count, frontier) in ways.items():
            if deadline and states % 4096 == 0 and time.perf_counter() > deadline:
                raise OptimizeTimeout("tree enumeration ran past its deadline")
            states += 1
            rest = frontier
            while rest:
                w = rest & -rest
                rest ^= w
                add = count * (adj[w] & s).bit_count()
                if (entry := grown.get(s | w)) is None:
                    reached += 1
                    if reached > budget:
                        raise LimitExceededError(too_many)
                    grown[s | w] = [add, (frontier | adj[w]) & ~(s | w)]
                else:
                    entry[0] += add
        ways = grown
    return ways[(1 << n) - 1][0]


def count_trees(n: int, edge_u, edge_v, deadline: float = 0.0):
    """Count the valid ordered arrangements of n-1 edges of a simple
    connected graph, as a JoinGraph is, and the linear ones among them
    (``oracle`` derives the invalid and bushy ones).  Raises OptimizeTimeout
    past deadline, and LimitExceededError as ``linear_orders`` does.

    Returns (valid, linear).
    """
    if n == 1:
        return 1, 1
    valid = spanning_trees(n, edge_u, edge_v) * math.factorial(n - 1)
    return valid, linear_orders(n, edge_u, edge_v, deadline)
