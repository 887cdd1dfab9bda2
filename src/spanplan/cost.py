"""Main-memory cost model with hash-join / index-nested-loop selection.

Scan, hash-join, and index-lookup costs follow the tuple-count model

    scan(R)          = tau * |R|            (full scan, selections included)
    hj(P1, P2)       = |P| + |P_build| + C(P1) + C(P2)
    inl(P1, R)       = C(P1) + lam * |P1| * max(|P| / |P1|, 1)

with tau = 0.2 and lam = 2 by default.  The hash build side is the child
with the smaller output cardinality; the index-lookup inner side must be a
base table and is never scanned.  A plan's reported ``internal_cost`` is the
root cost of this recursion; per-step costs are the increments it adds on
top of the child subtree costs.

``_kernels.formula`` is the one Python cost formula: ``formula.join_cost``
is the one definition of a join's increment, ``formula.merge`` picks the
operator and side by calling it, and ``formula.model_product`` is the
selectivity model's product.  ``kernels.c`` mirrors all three operation for
operation (tests/test_kernels.py holds them bit-for-bit equal).
``CostContext.merge`` chooses; ``CostContext.join_cost`` prices a given
choice, which is how a re-evaluated plan keeps its operators and sides
while its cardinalities change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

from ._kernels import formula
from .errors import GraphFormatError, LimitExceededError, MissingCardinalityError, UnknownTableError
from .graph import JoinGraph, is_row_count

DEFAULT_TAU = 0.2
DEFAULT_LAMBDA = 2.0


@dataclass(frozen=True)
class CostParams:
    """Scan discount and index-lookup factors of the cost model."""

    tau: float = DEFAULT_TAU
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        if not (self.tau > 0):
            raise GraphFormatError("tau must be positive")
        if not (self.lam > 0):
            raise GraphFormatError("lambda must be positive")


@dataclass(frozen=True)
class CardinalityCatalog:
    """Row counts for connected table subsets, keyed by vertex bitmask."""

    entries: dict

    @classmethod
    def from_key_map(cls, graph: JoinGraph, entries: dict):
        """Build from {"a,b,...": rows} with sorted comma-joined name keys."""
        if not isinstance(entries, dict):
            raise GraphFormatError("'cardinalities' must be an object")
        out = {}
        for key, rows in entries.items():
            names = [s for s in key.split(",") if s]
            mask = graph.mask_of_names(names)
            if not is_row_count(rows, 0):
                raise GraphFormatError(f"cardinality for {{{key}}} must be a non-negative integer")
            out[mask] = rows
        for v in range(graph.n_vertices):
            if (1 << v) not in out:
                raise MissingCardinalityError(graph.vertices[v].name)
        return cls(entries=out)

    def lookup(self, graph: JoinGraph, mask: int) -> int:
        try:
            return self.entries[mask]
        except KeyError:
            raise MissingCardinalityError(graph.subset_key(mask)) from None

    def document_section(self, graph: JoinGraph) -> dict:
        keys = sorted(self.entries, key=lambda m: (bin(m).count("1"), graph.subset_key(m)))
        return {"cardinalities": {graph.subset_key(m): self.entries[m] for m in keys}}


@dataclass(frozen=True)
class SelectivityModel:
    """Independence model: |S| = ceil(prod bases * prod selectivities in S)."""

    graph: JoinGraph
    selectivities: tuple
    # Per-vertex base cardinalities and per-edge (edge mask, selectivity),
    # in the order formula.model_product multiplies them.
    _bases: tuple = field(init=False, repr=False, compare=False)
    _edge_sels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.selectivities) != self.graph.n_edges:
            raise GraphFormatError("one selectivity per join edge required")
        for s in self.selectivities:
            if not (0.0 < s <= 1.0):
                raise GraphFormatError(f"selectivity {s} outside (0, 1]")
        object.__setattr__(self, "_bases", tuple(t.base_cardinality for t in self.graph.vertices))
        object.__setattr__(self, "_edge_sels", tuple(
            (e.mask(), self.selectivities[e.id]) for e in self.graph.edges))

    @classmethod
    def from_key_map(cls, graph: JoinGraph, entries: dict):
        if not isinstance(entries, dict):
            raise GraphFormatError("'selectivities' must be an object")
        sels = [None] * graph.n_edges
        pair_to_edge = {}
        for e in graph.edges:
            pair_to_edge[(e.v1, e.v2)] = e.id
            pair_to_edge[(e.v2, e.v1)] = e.id
        for key, sel in entries.items():
            names = key.split(",")
            if len(names) != 2:
                raise GraphFormatError(f"selectivity key {key!r} must name two tables")
            ids = graph.name_to_id
            for nm in names:
                if nm not in ids:
                    raise UnknownTableError(f"unknown table {nm!r} in selectivities")
            pair = (ids[names[0]], ids[names[1]])
            if pair not in pair_to_edge:
                raise GraphFormatError(f"selectivity key {key!r} matches no join edge")
            if type(sel) not in (int, float) or not 0.0 < sel <= 1.0:
                raise GraphFormatError(f"selectivity for {key!r} must be a number in (0, 1]")
            sels[pair_to_edge[pair]] = float(sel)
        for e in graph.edges:
            if sels[e.id] is None:
                raise GraphFormatError(f"missing selectivity for edge {e.id}")
        return cls(graph=graph, selectivities=tuple(sels))

    def lookup(self, graph: JoinGraph, mask: int) -> int:
        prod = formula.model_product(self._bases, self._edge_sels, mask)
        if prod == math.inf:
            raise LimitExceededError(
                f"cardinality of {{{graph.subset_key(mask)}}} overflows a float")
        return math.ceil(prod)

    def document_section(self, graph: JoinGraph) -> dict:
        out = {}
        for e in graph.edges:
            key = f"{graph.vertices[e.v1].name},{graph.vertices[e.v2].name}"
            out[key] = self.selectivities[e.id]
        return {"selectivities": out}


CardinalitySource = Union[CardinalityCatalog, SelectivityModel]

HJ = "HJ"
INL = "INL"
_OP_NAMES = (HJ, INL)
_SIDE_NAMES = ("left", "right")


class OperatorChoice(NamedTuple):
    """Physical operator plus which side builds the hash / takes the lookups."""

    kind: str   # "HJ" or "INL"
    side: str   # "left" or "right": hash-build side for HJ, inner side for INL


class MergeResult(NamedTuple):
    step_cost: float
    op: OperatorChoice
    out_card: float


class CostContext:
    """Binds a graph, a cardinality source, and cost parameters.

    Cardinality lookups are memoized; merge evaluation delegates to
    ``formula.merge`` so every enumerator prices joins identically.
    """

    def __init__(self, graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None):
        self.graph = graph
        self.source = source
        self.params = params or CostParams()
        self._cards: dict[int, float] = {}
        pair_inner = {}
        for e in graph.edges:
            pair_inner[e.mask()] = e.v2
        self._inst = formula.Instance(
            n=graph.n_vertices,
            edge_u=tuple(e.v1 for e in graph.edges),
            edge_v=tuple(e.v2 for e in graph.edges),
            scan=tuple(self.params.tau * t.base_cardinality for t in graph.vertices),
            indexed=tuple(t.indexed for t in graph.vertices),
            lam=self.params.lam,
            cards=self._cards,
            pair_inner=pair_inner,
            model=(source._bases, source._edge_sels) if isinstance(source, SelectivityModel) else None,
            catalog=source.entries if isinstance(source, CardinalityCatalog) else None,
        )
        self._merge_memo: dict[tuple[int, int], MergeResult] = {}

    @property
    def instance(self) -> formula.Instance:
        return self._inst

    def card(self, mask: int) -> float:
        got = self._cards.get(mask)
        if got is None:
            got = float(self.source.lookup(self.graph, mask))
            self._cards[mask] = got
        return got

    def ensure_cards(self, masks: Iterable[int]) -> None:
        for m in masks:
            self.card(m)

    def scan_cost(self, vertex: int) -> float:
        return self._inst.scan[vertex]

    def merge(self, l_mask: int, r_mask: int) -> MergeResult:
        key = (l_mask, r_mask)
        got = self._merge_memo.get(key)
        if got is not None:
            return got
        self.card(l_mask | r_mask)
        self.card(l_mask)
        self.card(r_mask)
        cost, op, side, out = formula.merge(self._inst, l_mask, r_mask)
        res = MergeResult(cost, OperatorChoice(_OP_NAMES[op], _SIDE_NAMES[side]), out)
        self._merge_memo[key] = res
        return res

    def join_cost(self, l_mask: int, r_mask: int, op: OperatorChoice) -> MergeResult:
        """Price a join with its operator and side given, not chosen."""
        self.card(l_mask | r_mask)
        self.card(l_mask)
        self.card(r_mask)
        cost, out = formula.join_cost(self._inst, l_mask, r_mask,
                                    _OP_NAMES.index(op.kind), _SIDE_NAMES.index(op.side))
        return MergeResult(cost, op, out)


def _as_mask(graph: JoinGraph, subset) -> int:
    if isinstance(subset, int):
        return subset
    ids = list(subset)
    if ids and isinstance(ids[0], str):
        return graph.mask_of_names(ids)
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def lookup_cardinality(graph: JoinGraph, source: CardinalitySource, subset) -> int:
    """Row count of a non-empty connected subset, from catalog or model."""
    mask = _as_mask(graph, subset)
    if mask == 0:
        raise GraphFormatError("cardinality lookup over an empty subset")
    if not graph.is_connected_mask(mask):
        raise GraphFormatError(f"subset {{{graph.subset_key(mask)}}} is not connected")
    return source.lookup(graph, mask)


def choose_operator(graph: JoinGraph, source: CardinalitySource, params: CostParams | None,
                    left_subset, right_subset):
    """Pick the cheaper physical operator for joining two disjoint subsets.

    Returns (OperatorChoice, step_cost, out_card); the step cost is the
    increment over the two child subtree costs, with the scan costs of any
    newly consumed base tables folded in.
    """
    ctx = CostContext(graph, source, params)
    l_mask = _as_mask(graph, left_subset)
    r_mask = _as_mask(graph, right_subset)
    if l_mask & r_mask:
        raise GraphFormatError("join sides overlap")
    if not graph.crossing_edges(l_mask, r_mask):
        raise GraphFormatError("no join edge between the two sides (cross-join)")
    res = ctx.merge(l_mask, r_mask)
    return res.op, res.step_cost, res.out_card
