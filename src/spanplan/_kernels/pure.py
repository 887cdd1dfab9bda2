"""Pure-Python search kernels.

These are the reference implementations of the three searches: the greedy
prim/kruskal members behind ``prim``, ``kruskal`` and ``este``
(``greedy_search``), the subset dynamic program over connected vertex sets
(``dp_search``), and the depth-first enumeration of ordered spanning-tree
edge arrangements (``count_trees`` and ``brute_search``).  They price every
join with ``formula.merge``, the package's one Python cost formula, which
this module re-exports so that ``pure`` offers the same five kernels as the
compiled backend.  The C kernels in ``kernels.c`` mirror this module and
``formula`` operation-for-operation; equivalence is enforced by
tests/test_kernels.py.  ``get_backend("pure")`` imports this module on first
use, so a process that runs the compiled searches never compiles it.

Cost bookkeeping convention: per-join increments fold in the scan costs of
base tables consumed by that join (an index-lookup inner table is never
scanned), and a subtree's cost is always accumulated as
``increment + cost(left) + cost(right)``.  Keeping that expression shape
identical everywhere makes costs bit-for-bit comparable across kernels.
"""
from __future__ import annotations

import dataclasses
import heapq
import math
import time

from ..errors import OptimizeTimeout
from ..graph import iter_bits
# The formula's names are re-exported: merge is one of pure's five kernels,
# and callers that build an Instance by hand find it here too.
from .formula import (  # noqa: F401
    KRUSKAL,
    OP_HJ,
    OP_INL,
    PRIM,
    SIDE_LEFT,
    SIDE_RIGHT,
    Instance,
    join_cost,
    merge,
    model_product,
)

name = "pure"


class _Cards(dict):
    """greedy_search's sparse cardinality memo: a mask is computed when
    first read, as ``ceil(model_product)`` or from the catalog.  A mask the
    source cannot give (absent from the catalog, or past a float under the
    model) raises KeyError(mask)."""

    def __init__(self, inst: Instance):
        super().__init__()
        self.model = inst.model
        self.catalog = inst.catalog or {}

    def __missing__(self, mask: int) -> float:
        if self.model is None:
            card = float(self.catalog[mask])
        else:
            prod = model_product(*self.model, mask)
            if prod == math.inf:
                raise KeyError(mask)
            card = float(math.ceil(prod))
        self[mask] = card
        return card


class _Greedy:
    """The state one greedy_search shares between its members.

    It holds the distinct splits costed, the evaluations performed, and one
    memo per member kind of the choice made at each state.  A prim member's
    next join depends only on its component, and a kruskal member's only on
    the partition into components: every valid heap entry prices
    ``merge(comp_of[u], comp_of[v])`` for the current components.  So a
    member that reaches a state an earlier member left takes the stored
    choice without pricing anything.
    """

    def __init__(self, inst: Instance, deadline: float):
        self.inst = dataclasses.replace(inst, cards=_Cards(inst))
        self.deadline = deadline
        self.full = (1 << inst.n) - 1
        self.splits: set[tuple[int, int]] = set()
        self.evals = 0
        self.states = 0
        self.prim_next: dict[int, tuple[int, int]] = {}  # component -> (edge, outside vertex mask)
        self.kruskal_next: dict[tuple[int, ...], int] = {}  # comp_of -> edge
        self.opening: list | None = None
        # Per-vertex incident edges, as bitmasks of edge ids.
        self.incident = [0] * inst.n
        for e, (u, v) in enumerate(zip(inst.edge_u, inst.edge_v)):
            self.incident[u] |= 1 << e
            self.incident[v] |= 1 << e

    def check_deadline(self) -> None:
        if self.deadline and time.perf_counter() > self.deadline:
            raise OptimizeTimeout("greedy search ran past its deadline")

    def new_state(self) -> None:
        """Count a state whose choice is priced; every 16th reads the clock."""
        self.states += 1
        if self.states % 16 == 0:
            self.check_deadline()

    def price(self, l_mask: int, r_mask: int) -> float:
        """A candidate join's step cost, recorded as one evaluation of a split."""
        cost = merge(self.inst, l_mask, r_mask)[0]
        self.evals += 1
        self.splits.add((l_mask, r_mask) if l_mask < r_mask else (r_mask, l_mask))
        return cost

    def step(self, joins: list, eid: int, l_mask: int, r_mask: int,
             l_cost: float, r_cost: float) -> float:
        """Append a join to a member's plan; returns the joined subtree's cost."""
        cost, op, side, _out = merge(self.inst, l_mask, r_mask)
        joins.append((eid, l_mask, r_mask, op, side))
        return cost + l_cost + r_cost

    def prim(self, start: int | None):
        inst = self.inst
        edge_u, edge_v = inst.edge_u, inst.edge_v
        joins: list = []
        if inst.n == 1:
            return joins, 0.0  # no edge to open with
        best_cost = None
        for eid in range(len(edge_u)) if start is None else (start,):
            cost = self.price(1 << edge_u[eid], 1 << edge_v[eid])
            if best_cost is None or cost < best_cost:
                best_cost, first = cost, eid
        l_mask, r_mask = 1 << edge_u[first], 1 << edge_v[first]
        total = self.step(joins, first, l_mask, r_mask, 0.0, 0.0)
        component = l_mask | r_mask

        memo = self.prim_next
        while component != self.full:
            choice = memo.get(component)
            if choice is None:
                self.new_state()
                # The first strictly cheapest candidate in edge-id order wins.
                # Later edges to an outside vertex already priced repeat the
                # same join, so they can never be strictly cheaper.
                best_cost = None
                seen = 0
                for eid, (u, v) in enumerate(zip(edge_u, edge_v)):
                    in_u = (component >> u) & 1
                    if in_u == (component >> v) & 1:
                        continue  # inside the component or not adjacent to it
                    outside = 1 << (v if in_u else u)
                    if outside & seen:
                        continue
                    seen |= outside
                    cost = self.price(component, outside)
                    if best_cost is None or cost < best_cost:
                        best_cost, choice = cost, (eid, outside)
                memo[component] = choice
            eid, outside = choice
            total = self.step(joins, eid, component, outside, total, 0.0)
            component |= outside
        return joins, total

    def kruskal_opening(self) -> list:
        """A copy of kruskal's first heap: every single-edge join, priced
        once per search.  Entries are (cost, edge id, stamp), so equal costs
        pop lowest edge id first."""
        if self.opening is None:
            inst = self.inst
            heap = [(self.price(1 << u, 1 << v), eid, 0)
                    for eid, (u, v) in enumerate(zip(inst.edge_u, inst.edge_v))]
            heapq.heapify(heap)
            self.opening = heap
        return self.opening.copy()

    def kruskal(self, start: int | None):
        inst = self.inst
        edge_u, edge_v = inst.edge_u, inst.edge_v
        comp_of = [1 << v for v in range(inst.n)]
        cost_of = [0.0] * inst.n  # the cost of each vertex's component
        stamps = [0] * len(edge_u)
        heap = self.kruskal_opening()
        memo = self.kruskal_next
        joins: list = []

        def join(eid: int) -> int:
            u, v = edge_u[eid], edge_v[eid]
            l_mask, r_mask = comp_of[u], comp_of[v]
            cost = self.step(joins, eid, l_mask, r_mask, cost_of[u], cost_of[v])
            merged = l_mask | r_mask
            for w in iter_bits(merged):
                comp_of[w] = merged
                cost_of[w] = cost
            return merged

        # The component made by the last join, whose candidates have not been
        # re-priced yet; 0 before the first join.
        merged = join(start) if start is not None else 0
        while comp_of[0] != self.full:
            state = tuple(comp_of)
            eid = memo.get(state)
            if eid is None:
                self.new_state()
                if merged:
                    # Re-price the edges leaving the merged component, in
                    # edge-id order, through its vertices' incident edges.
                    crossing = 0
                    for w in iter_bits(merged):
                        crossing |= self.incident[w]
                    for e2 in iter_bits(crossing):
                        c1, c2 = comp_of[edge_u[e2]], comp_of[edge_v[e2]]
                        if c1 == c2:
                            continue
                        stamps[e2] += 1
                        heapq.heappush(heap, (self.price(c1, c2), e2, stamps[e2]))
                # Skip stale entries and edges now inside one component (those
                # become filters).
                while True:
                    _cost, eid, stamp = heapq.heappop(heap)
                    if stamp == stamps[eid] and comp_of[edge_u[eid]] != comp_of[edge_v[eid]]:
                        break
                memo[state] = eid
            merged = join(eid)
        return joins, cost_of[0]


def _encoding(joins: list) -> tuple:
    """plan.canonical_encoding of a member's joins, with operator codes for
    names (OP_HJ < OP_INL as "HJ" < "INL")."""
    return tuple(sorted((l_mask | r_mask, min(l_mask, r_mask), max(l_mask, r_mask), eid, op,
                         l_mask if side == SIDE_LEFT else r_mask)
                        for eid, l_mask, r_mask, op, side in joins))


def greedy_search(inst: Instance, runs, deadline: float = 0.0):
    """Run greedy members and keep the cheapest plan.

    ``runs`` lists (PRIM or KRUSKAL, start edge or None); all members share
    one ``_Greedy``.  Cardinalities come from ``inst.model`` or
    ``inst.catalog``, never from ``inst.cards``; a mask the source cannot
    give raises KeyError(mask).  The winner has the lowest (internal cost,
    canonical encoding); the first member wins exact ties.  The deadline is
    checked between members and after every 16th state priced, so a search
    too small to reach either finishes.

    Returns (joins, cost, subplans, splits, evals, plans): the winner's joins
    as (edge, left mask, right mask) and its internal cost, the distinct
    subsets and splits costed, the evaluations performed and the number of
    distinct member plans.
    """
    search = _Greedy(inst, deadline)
    best = None
    encodings = set()
    for k, (kind, start) in enumerate(runs):
        if k:
            search.check_deadline()
        joins, cost = search.prim(start) if kind == PRIM else search.kruskal(start)
        enc = _encoding(joins)
        encodings.add(enc)
        if best is None or (cost, enc) < best[:2]:
            best = (cost, enc, joins)
    cost, _enc, joins = best
    subplans = len({l_mask | r_mask for l_mask, r_mask in search.splits})
    return ([(eid, l_mask, r_mask) for eid, l_mask, r_mask, _op, _side in joins], cost,
            subplans, len(search.splits), search.evals, len(encodings))


def _connectivity(n: int, adjacency: list[int]) -> list[bool]:
    size = 1 << n
    conn = [False] * size
    for mask in range(1, size):
        seed = mask & -mask
        reach = seed
        frontier = seed
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = adjacency[v] & mask & ~reach
            reach |= grow
            frontier |= grow
        conn[mask] = reach == mask
    return conn


def _adjacency(inst: Instance) -> list[int]:
    adj = [0] * inst.n
    for u, v in zip(inst.edge_u, inst.edge_v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def dp_search(inst: Instance, prune_bound: float = float("inf"), deadline: float = 0.0):
    """Optimal join over every connected subset via dynamic programming.

    Returns (root_cost, choices, subplans, splits) where
    choices[mask] = (left_submask, op, side) reconstructs the best plan and
    splits, the number of joins priced, is also its evaluation count.
    Subsets whose best cost already exceeds prune_bound are never used as
    children of larger subsets (cost-based pruning; increments are
    non-negative, so this cannot prune an optimal plan).
    """
    n = inst.n
    full = (1 << n) - 1
    adj = _adjacency(inst)
    conn = _connectivity(n, adj)
    nbr = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        nbr[mask] = nbr[mask ^ low] | adj[low.bit_length() - 1]

    best: dict[int, float] = {}
    choices: dict[int, tuple[int, int, int]] = {}
    for v in range(n):
        best[1 << v] = 0.0

    subplans = 0
    splits = 0
    checked = 0
    for mask in range(1, full + 1):
        if not conn[mask] or mask & (mask - 1) == 0:
            continue
        checked += 1
        if deadline and checked % 1024 == 0 and time.perf_counter() > deadline:
            raise OptimizeTimeout("exhaustive enumeration ran past its deadline")
        low = mask & -mask
        best_cost = float("inf")
        best_choice = None
        touched = False
        # Canonical split order: s1 descends and always contains the low bit.
        s1 = (mask - 1) & mask
        while s1:
            if s1 & low:
                s2 = mask ^ s1
                c1 = best.get(s1)
                c2 = best.get(s2)
                if (
                    c1 is not None
                    and c2 is not None
                    and c1 <= prune_bound
                    and c2 <= prune_bound
                    and nbr[s1] & s2
                ):
                    splits += 1
                    touched = True
                    inc, op, side, _out = merge(inst, s1, s2)
                    total = inc + c1 + c2
                    if total < best_cost:
                        best_cost = total
                        best_choice = (s1, op, side)
            s1 = (s1 - 1) & mask
        if touched:
            subplans += 1
        if best_choice is not None:
            best[mask] = best_cost
            choices[mask] = best_choice

    if full not in best and n > 1:
        # Pruning can only hide the root if the bound itself was a plan cost,
        # in which case a plan at exactly the bound exists; signal the caller.
        return float("inf"), choices, subplans, splits
    root = best.get(full, 0.0)
    return root, choices, subplans, splits


def _walk(n: int, edge_u, edge_v, inst: Instance | None, deadline: float, what: str):
    """One depth-first walk over ordered edge arrangements of length n-1,
    shared by count_trees and brute_search.  Arrangements that close a cycle
    are counted, not walked.  Only with an Instance are joins priced and the
    cheapest valid arrangement kept.

    Returns (counts, best_cost, best_seq, memo, evals) with counts =
    [valid, invalid, linear, bushy] and memo mapping each costed
    (smaller mask, larger mask) pair to its merge cost.
    """
    n_edges = len(edge_u)
    slots = n - 1
    if slots == 0:
        return [1, 0, 1, 0], 0.0, [], {}, 0

    # ff[u][s]: ordered ways to fill s slots from u distinct edges.
    ff = [[1] * (slots + 1) for _ in range(n_edges + 1)]
    for u in range(n_edges + 1):
        for s in range(1, slots + 1):
            ff[u][s] = 0 if u < s else ff[u - 1][s - 1] * u

    parent = list(range(n))
    comp_mask = [1 << v for v in range(n)]
    comp_cost = [0.0] * n

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    used = [False] * n_edges
    seq: list[int] = []
    memo: dict[tuple[int, int], float] = {}
    counts = [0, 0, 0, 0]
    state = {"best": float("inf"), "seq": [], "evals": 0, "nodes": 0}

    def rec(depth: int, touched_mask: int, touched_cnt: int, linear: bool):
        state["nodes"] += 1
        if deadline and state["nodes"] % 4096 == 0 and time.perf_counter() > deadline:
            raise OptimizeTimeout(f"{what} ran past its deadline")
        remaining = slots - depth
        unused = n_edges - depth
        for e in range(n_edges):
            if used[e]:
                continue
            u, v = edge_u[e], edge_v[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                counts[1] += ff[unused - 1][remaining - 1]
                continue
            if inst is not None:
                lm, rm = comp_mask[ru], comp_mask[rv]
                key = (lm, rm) if lm < rm else (rm, lm)
                state["evals"] += 1
                inc = memo.get(key)
                if inc is None:
                    inc, _op, _side, _out = merge(inst, key[0], key[1])
                    memo[key] = inc
                new_cost = inc + comp_cost[ru] + comp_cost[rv]
                saved_mask, saved_cost = rm, comp_cost[rv]
                comp_mask[rv] = lm | rm
                comp_cost[rv] = new_cost
            parent[ru] = rv
            used[e] = True
            seq.append(e)
            new_touched = touched_mask | (1 << u) | (1 << v)
            new_cnt = touched_cnt + ((touched_mask >> u) & 1 == 0) + ((touched_mask >> v) & 1 == 0)
            new_linear = linear and (new_cnt - (depth + 1) == 1)
            if depth + 1 == slots:
                counts[0] += 1
                if new_linear:
                    counts[2] += 1
                else:
                    counts[3] += 1
                if inst is not None and new_cost < state["best"]:
                    state["best"] = new_cost
                    state["seq"] = list(seq)
            else:
                rec(depth + 1, new_touched, new_cnt, new_linear)
            seq.pop()
            used[e] = False
            parent[ru] = ru
            if inst is not None:
                comp_mask[rv] = saved_mask
                comp_cost[rv] = saved_cost

    rec(0, 0, 0, True)
    return counts, state["best"], state["seq"], memo, state["evals"]


def count_trees(n: int, edge_u, edge_v, deadline: float = 0.0):
    """Count ordered edge arrangements of length n-1: valid spanning trees
    (split into linear/bushy) versus arrangements pruned for closing a cycle.

    Returns (valid, invalid, linear, bushy).
    """
    counts, _best, _seq, _memo, _evals = _walk(
        n, edge_u, edge_v, None, deadline, "tree enumeration")
    return tuple(counts)


def brute_search(inst: Instance, deadline: float = 0.0):
    """Exhaustive walk of every valid ordered spanning tree, tracking the
    minimum-cost one.  No cost pruning: the valid/invalid/linear/bushy counts
    stay exact and every complete plan is compared.

    Returns (best_cost, best_seq, valid, invalid, linear, bushy,
    subplans, splits, evals).
    """
    counts, best, seq, memo, evals = _walk(
        inst.n, inst.edge_u, inst.edge_v, inst, deadline, "oracle enumeration")
    subplans = len({a | b for a, b in memo})
    return (best, seq, *counts, subplans, len(memo), evals)
