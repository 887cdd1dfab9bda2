"""Pure-Python search kernels.

These are the reference implementations of the three searches: the greedy
prim/kruskal members behind ``prim``, ``kruskal`` and ``este``
(``greedy_search``), the subset dynamic program over the connected vertex
sets it is given (``dp_search``), and the depth-first walk over ordered
spanning-tree edge arrangements (``brute_search``), plus ``model_cards``,
the selectivity model's cardinalities of many subsets in one call.  Its
``count_trees`` is the closed form every backend shares (``trees``).  Each
search returns ``(cost, joins, counters...)``, ``joins`` being the
winner's ``(edge, left mask, right mask)`` list in replay order.  They
price every join with ``formula.merge``, the package's one Python cost
formula; pure's ``merge`` kernel is that formula over the cardinalities
every kernel reads (``_Cards``), as the compiled ``merge`` reads them.  The C kernels in
``kernels.c`` mirror this module and ``formula`` operation-for-operation;
equivalence is enforced by tests/test_kernels.py.  ``get_backend("pure")``
imports this module on first use, so a process that runs the compiled
searches never compiles it.

Cost bookkeeping convention: per-join increments fold in the scan costs of
base tables consumed by that join (an index-lookup inner table is never
scanned), and a subtree's cost is always accumulated as
``increment + cost(left) + cost(right)``.  Keeping that expression shape
identical everywhere makes costs bit-for-bit comparable across kernels.
"""
from __future__ import annotations

import copy
import math
import time

from ..errors import OptimizeTimeout
from ..graph import iter_bits
from . import count_trees  # noqa: F401  (a kernel of this backend)
from .formula import PRIM, SIDE_LEFT, Instance, check_masks, check_runs, model_product
from .formula import merge as _merge

name = "pure"


class _Cards(dict):
    """Every kernel's cardinality memo, seeded with a float copy of
    ``inst.known_cards()``: the catalog when the instance has one, nothing
    under ``inst.model``, else ``inst.cards``.  Under the model a mask is
    computed when first read, as ``ceil(model_product)``.  A mask neither
    source gives (absent from the catalog, or past a float under the model)
    raises KeyError(mask)."""

    def __init__(self, inst: Instance):
        known = inst.known_cards()
        super().__init__(zip(known, map(float, known.values())))
        self.model = inst.model

    def __missing__(self, mask: int) -> float:
        if self.model is None or (prod := model_product(*self.model, mask)) == math.inf:
            raise KeyError(mask)
        card = self[mask] = float(math.ceil(prod))
        return card


def _view(inst: Instance) -> Instance:
    """inst as every kernel reads it: a copy whose cards is a new _Cards,
    so that a kernel never fills the caller's cardinalities."""
    view = copy.copy(inst)
    view.cards = _Cards(inst)
    return view


def merge(inst: Instance, l_mask: int, r_mask: int):
    """``formula.merge`` with the cardinalities read through ``_Cards``, as
    every kernel reads them.  Raises KeyError(mask) for a mask neither
    source gives, and ValueError for sides ``check_masks`` refuses."""
    check_masks(inst, (l_mask, r_mask), disjoint=True)
    return _merge(_view(inst), l_mask, r_mask)


def model_cards(inst: Instance, masks) -> list[float]:
    """Each mask's cardinality, in order, read as every kernel reads it:
    under ``inst.model`` the ones ``SelectivityModel.lookup`` gives, for
    many subsets in one call.  Raises KeyError(mask) at the first mask
    neither source gives, as greedy_search does (ValueError: check_masks)."""
    check_masks(inst, masks)
    cards = _Cards(inst)
    return [cards[mask] for mask in masks]


class _Greedy:
    """The state one greedy_search shares between its members.

    It holds each union priced with its split tags (the smaller side's mask
    of each distinct split), the evaluations performed, and one memo of the
    candidate chosen at each state, keyed by (kind, partition into
    components).  A candidate carries the join ``price`` made of a pair of
    adjacent components, and every member records the cheapest (cost, lowest
    edge) one as priced; ``neighbours`` prices the pairs a new component
    makes.  A kruskal member's candidates are every adjacent pair; a prim
    member is kruskal whose candidates hold its component.  So a member that
    reaches a state an earlier member of its kind left takes the stored
    candidate without pricing anything, and so does every later state of
    that member: only fresh states touch the candidates.
    """

    def __init__(self, inst: Instance, deadline: float):
        self.inst = _view(inst)
        self.deadline = deadline
        self.full = (1 << inst.n) - 1
        self.tags: dict[int, set[int]] = {}  # union -> its split tags
        self.evals = 0
        self.states = 0
        self.next: dict[tuple, tuple] = {}  # (kind, comp_of) -> the candidate chosen
        self.opening: list | None = None  # kruskal's first candidates
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

    def price(self, eid: int, l_mask: int, r_mask: int) -> tuple:
        """The candidate join of l_mask and r_mask over edge eid, counted as
        one evaluation: (step cost, edge, pair mask, op, side), as
        ``formula.merge`` prices it.  Its split is tagged on its union by the
        smaller side's mask."""
        cost, op, side, _out = _merge(self.inst, l_mask, r_mask)
        self.evals += 1
        self.tags.setdefault(l_mask | r_mask, set()).add(min(l_mask, r_mask))
        return cost, eid, l_mask | r_mask, op, side

    def edge_joins(self, eids) -> list:
        """Each single-edge join of eids, as a candidate."""
        inst = self.inst
        return [self.price(eid, 1 << inst.edge_u[eid], 1 << inst.edge_v[eid]) for eid in eids]

    def neighbours(self, comp_of: list, merged: int) -> list:
        """merged priced once against each adjacent component, over the
        lowest edge between them: candidates in edge-id order.  The edges
        leaving merged are read from its vertices' incident edges."""
        edge_u, edge_v = self.inst.edge_u, self.inst.edge_v
        crossing = 0
        for w in iter_bits(merged):
            crossing |= self.incident[w]
        cands = []
        priced = 0
        for eid in iter_bits(crossing):
            c1, c2 = comp_of[edge_u[eid]], comp_of[edge_v[eid]]
            neighbour = c2 if c1 == merged else c1
            if c1 == c2 or neighbour & priced:
                continue
            priced |= neighbour
            cands.append(self.price(eid, c1, c2))
        return cands

    def member(self, kind: int, start: int | None):
        """One PRIM or KRUSKAL run from edge start, or unseeded when None;
        returns (joins, cost)."""
        inst = self.inst
        edge_u, edge_v = inst.edge_u, inst.edge_v
        comp_of = [1 << v for v in range(inst.n)]
        cost_of = [0.0] * inst.n  # the cost of each vertex's component
        joins: list = []
        # The component made by the last join, whose candidates have not been
        # priced yet; 0 before the first join.
        merged = 0

        def join(cand: tuple) -> None:  # record the candidate's join as priced
            nonlocal merged
            step, eid, pair, op, side = cand
            u, v = edge_u[eid], edge_v[eid]
            if kind == PRIM and comp_of[v] == merged:
                # prim joins (its component, the new table); past its opening
                # one side is a single table, so only the side flips.
                u, v, side = v, u, side ^ 1
            joins.append((eid, comp_of[u], comp_of[v], op, side))
            cost = step + cost_of[u] + cost_of[v]
            merged = pair
            for w in iter_bits(merged):
                comp_of[w] = merged
                cost_of[w] = cost

        if kind == PRIM:  # prim prices its own opening, then its component's pairs
            opening = self.edge_joins(range(len(edge_u)) if start is None else (start,))
            first = min(opening) if opening else None
            cands = []
        else:
            if self.opening is None:  # every single-edge join, priced once per search
                self.opening = self.edge_joins(range(len(edge_u)))
            cands = self.opening
            first = None if start is None else cands[start]
        if first is not None:
            join(first)
        while comp_of[0] != self.full:
            state = (kind, *comp_of)
            cand = self.next.get(state)
            if cand is None:
                self.new_state()
                if merged:  # drop the pairs of merged's two parts, add merged's
                    cands = [c for c in cands if not c[2] & merged]
                    cands += self.neighbours(comp_of, merged)
                cand = self.next[state] = min(cands)
            join(cand)
        return joins, cost_of[0]


def _encoding(joins: list) -> tuple:
    """plan.canonical_encoding of a member's joins, with operator codes for
    names (OP_HJ < OP_INL as "HJ" < "INL")."""
    return tuple(sorted((l_mask | r_mask, min(l_mask, r_mask), max(l_mask, r_mask), eid, op,
                         l_mask if side == SIDE_LEFT else r_mask)
                        for eid, l_mask, r_mask, op, side in joins))


def greedy_search(inst: Instance, runs, deadline: float = 0.0):
    """Run greedy members and keep the cheapest plan.

    ``runs`` is a non-empty list of (PRIM or KRUSKAL, start edge or None),
    each run by ``_Greedy.member``; any other raises ValueError
    (``formula.check_runs``).  All members share one ``_Greedy`` and its
    memo of the candidate chosen at each (kind, partition).  Cardinalities
    are read through ``_Cards``; a mask neither source gives raises
    KeyError(mask).  The winner has the lowest (internal cost, canonical
    encoding); the first member wins exact ties.
    The deadline is checked between members and after every 16th state
    priced, so a search too small to reach either finishes.

    Returns (cost, joins, subplans, splits, evals, plans): the winner's
    internal cost and its joins as (edge, left mask, right mask), the
    distinct subsets and splits costed, the evaluations performed and the
    number of distinct member plans.
    """
    check_runs(inst, runs)
    search = _Greedy(inst, deadline)
    best = None
    encodings = set()
    for k, (kind, start) in enumerate(runs):
        if k:
            search.check_deadline()
        joins, cost = search.member(kind, start)
        enc = _encoding(joins)
        encodings.add(enc)
        if best is None or (cost, enc) < best[:2]:
            best = (cost, enc, joins)
    cost, _enc, joins = best
    splits = sum(map(len, search.tags.values()))
    return (cost, [(eid, l_mask, r_mask) for eid, l_mask, r_mask, _op, _side in joins],
            len(search.tags), splits, search.evals, len(encodings))


def _lowest_edge(inst: Instance, s1: int, s2: int) -> int:
    """The lowest edge id with one end in s1 and the other in s2."""
    ends = (1 << u | 1 << v for u, v in zip(inst.edge_u, inst.edge_v))
    return next(eid for eid, both in enumerate(ends) if both & s1 and both & s2)


def dp_search(inst: Instance, masks, prune_bound: float = float("inf"), deadline: float = 0.0):
    """Optimal join over the connected subsets ``masks`` (ascending) via
    dynamic programming.

    Returns (root_cost, joins, subplans, splits): the optimal plan's joins
    as (edge, left mask, right mask), children first, each over the lowest
    edge id between its two sides; splits, the number of joins priced, is
    also its evaluation count.  Every split of a connected subset into two
    subsets with plans is a join: some edge crosses it.  Subsets whose best
    cost already exceeds prune_bound are never used as children of larger
    subsets (cost-based pruning; increments are non-negative, so this
    cannot prune an optimal plan).  Cardinalities are read through
    ``_Cards``.  Masks ``formula.check_masks`` refuses raise ValueError.
    """
    check_masks(inst, masks)
    inst = _view(inst)
    full = (1 << inst.n) - 1
    best: dict[int, float] = {1 << v: 0.0 for v in range(inst.n)}
    split: dict[int, int] = {}  # mask -> the left side of its best join

    subplans = 0
    splits = 0
    checked = 0
    for mask in masks:
        if mask & (mask - 1) == 0:
            continue
        checked += 1
        if deadline and checked % 1024 == 0 and time.perf_counter() > deadline:
            raise OptimizeTimeout("exhaustive enumeration ran past its deadline")
        low = mask & -mask
        rest = mask ^ low
        best_cost = float("inf")
        best_s1 = None
        touched = False
        # Canonical split order: s1 = t | low descends over the proper
        # subsets of mask that hold its lowest table.
        t = rest
        while t:
            t = (t - 1) & rest
            s1 = t | low
            s2 = mask ^ s1
            c1 = best.get(s1)
            c2 = best.get(s2)
            if c1 is not None and c2 is not None and c1 <= prune_bound and c2 <= prune_bound:
                splits += 1
                touched = True
                total = _merge(inst, s1, s2)[0] + c1 + c2
                if total < best_cost:
                    best_cost = total
                    best_s1 = s1
        if touched:
            subplans += 1
        if best_s1 is not None:
            best[mask] = best_cost
            split[mask] = best_s1

    if full not in best:
        # Pruning can only hide the root if the bound itself was a plan cost,
        # in which case a plan at exactly the bound exists; signal the caller.
        return float("inf"), [], subplans, splits
    joins: list = []

    def emit(mask: int) -> None:
        if mask in split:
            s1 = split[mask]
            s2 = mask ^ s1
            emit(s1)
            emit(s2)
            joins.append((_lowest_edge(inst, s1, s2), s1, s2))

    emit(full)
    return best[full], joins, subplans, splits


def brute_search(inst: Instance, deadline: float = 0.0):
    """Exhaustive depth-first walk of every ordered edge arrangement of
    length n-1, tracking the minimum-cost valid one.  An edge that would
    close a cycle is skipped.  No cost pruning: the valid and linear counts
    stay exact (``oracle`` derives the invalid and bushy ones) and every
    complete plan is compared.  Cardinalities are read through ``_Cards``.

    Returns (best_cost, joins, valid, linear, subplans, splits, evals): the
    cheapest arrangement's joins as (edge, component of its v1, component of
    its v2), in order.
    """
    n, edge_u, edge_v = inst.n, inst.edge_u, inst.edge_v
    n_edges = len(edge_u)
    slots = n - 1
    if slots == 0:
        return 0.0, [], 1, 1, 0, 0, 0
    inst = _view(inst)

    parent = list(range(n))
    comp_mask = [1 << v for v in range(n)]
    comp_cost = [0.0] * n

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    used = [False] * n_edges
    seq: list[tuple[int, int, int]] = []
    memo: dict[tuple[int, int], float] = {}  # (smaller mask, larger mask) -> merge cost
    counts = [0, 0]  # valid, linear
    state = {"best": float("inf"), "seq": [], "evals": 0, "nodes": 0}

    def rec(depth: int, touched_mask: int, touched_cnt: int, linear: bool):
        state["nodes"] += 1
        if deadline and state["nodes"] % 4096 == 0 and time.perf_counter() > deadline:
            raise OptimizeTimeout("oracle enumeration ran past its deadline")
        for e in range(n_edges):
            if used[e]:
                continue
            u, v = edge_u[e], edge_v[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            lm, rm = comp_mask[ru], comp_mask[rv]
            key = (lm, rm) if lm < rm else (rm, lm)
            state["evals"] += 1
            inc = memo.get(key)
            if inc is None:
                inc, _op, _side, _out = _merge(inst, key[0], key[1])
                memo[key] = inc
            new_cost = inc + comp_cost[ru] + comp_cost[rv]
            saved_cost = comp_cost[rv]
            comp_mask[rv] = lm | rm
            comp_cost[rv] = new_cost
            seq.append((e, lm, rm))
            parent[ru] = rv
            used[e] = True
            new_touched = touched_mask | (1 << u) | (1 << v)
            new_cnt = touched_cnt + ((touched_mask >> u) & 1 == 0) + ((touched_mask >> v) & 1 == 0)
            new_linear = linear and (new_cnt - (depth + 1) == 1)
            if depth + 1 == slots:
                counts[0] += 1
                counts[1] += new_linear
                if new_cost < state["best"]:
                    state["best"] = new_cost
                    state["seq"] = list(seq)
            else:
                rec(depth + 1, new_touched, new_cnt, new_linear)
            used[e] = False
            parent[ru] = ru
            seq.pop()
            comp_mask[rv] = rm
            comp_cost[rv] = saved_cost

    rec(0, 0, 0, True)
    subplans = len({a | b for a, b in memo})
    return (state["best"], state["seq"], *counts, subplans, len(memo), state["evals"])
