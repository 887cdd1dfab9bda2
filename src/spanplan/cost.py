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
selectivity model's product.  ``kernels.c`` mirrors all three, operation
for operation (tests/test_kernels.py holds them bit-for-bit equal).
``CostContext.merge`` chooses; ``CostContext.join_cost`` prices a given
choice, which is how a re-evaluated plan keeps its operators and sides
while its cardinalities change.  Both pass the formula the context's own
memo, ``cards``, which looks a mask up in the source when first read.
Every kernel (pure or C) runs through ``run_kernel``, which names a
kernel's missing mask as the source does: ``ensure_cards`` fills a
selectivity model's cardinalities of many subsets with one ``model_cards``
call, and ``merge_pairs`` memoizes ``merge`` of many pairs with one
``merge_pairs`` call, seeding each union's cardinality (``seed_card``).
A catalog keeps a read-only map over its own copy of the counts and a
model a tuple of selectivities.  A context's ``formula.Instance`` holds
them and its graph's tuples, not copies, and a context refuses a source
that does not fit its graph (``check_graph``).
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, NamedTuple, Union

from . import _kernels
from ._kernels import formula
from .errors import (GraphFormatError, LimitExceededError, MissingCardinalityError, SpanPlanError,
                     UnknownTableError)
from .graph import MAX_VERTICES, JoinGraph, is_row_count

DEFAULT_TAU = 0.2
DEFAULT_LAMBDA = 2.0


class CostParams:
    """Scan discount and index-lookup factors of the cost model, as floats."""

    def __init__(self, tau: float = DEFAULT_TAU, lam: float = DEFAULT_LAMBDA):
        self.tau = _factor("tau", tau)
        self.lam = _factor("lambda", lam)


def _factor(name: str, value) -> float:
    """value as a float; one line of GraphFormatError unless it is a number,
    not a boolean, whose float is finite and above 0."""
    refusal = f"{name} must be a finite number above 0, got"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{refusal} a {type(value).__name__}")
    try:
        factor = float(value)
    except OverflowError:
        raise GraphFormatError(f"{refusal} an int past a float") from None
    if not 0 < factor < math.inf:
        raise GraphFormatError(f"{refusal} {value!r}")
    return factor


class CardinalityCatalog:
    """Row counts for connected table subsets, keyed by vertex bitmask, held
    in a read-only ``entries`` map over the catalog's own copy."""

    def __init__(self, entries: dict):
        entries = dict(entries)
        for mask, rows in entries.items():
            if type(mask) is not int or not 0 < mask < 1 << MAX_VERTICES:
                raise GraphFormatError(f"cardinality key {mask!r} must be an int in"
                                       f" [1, 2**{MAX_VERTICES})")
            if not is_row_count(rows, 0):
                raise GraphFormatError(f"cardinality of mask {mask} must be a non-negative integer")
        self.entries = MappingProxyType(entries)
        self.top = max(entries, default=0)  # the highest key

    @classmethod
    def from_key_map(cls, graph: JoinGraph, entries: dict):
        """Build from {"a,b,...": rows} with sorted comma-joined name keys."""
        if not isinstance(entries, dict):
            raise GraphFormatError("'cardinalities' must be an object")
        out = {}
        key_of = {}
        for key, rows in entries.items():
            names = key.split(",")
            if "" in names:
                raise GraphFormatError(f"cardinality key {key!r} has an empty table name")
            mask = graph.mask_of_names(names)
            if not is_row_count(rows, 0):
                raise GraphFormatError(f"cardinality for {{{key}}} must be a non-negative integer")
            if mask in key_of:
                raise GraphFormatError(
                    f"cardinality keys {key_of[mask]!r} and {key!r} name the same subset")
            key_of[mask] = key
            out[mask] = rows
        for v in range(graph.n_vertices):
            if (1 << v) not in out:
                raise MissingCardinalityError(graph.names[v])
        return cls(out)

    def check_graph(self, graph: JoinGraph) -> None:
        """Raise GraphFormatError when a key names a table graph lacks."""
        if self.top > graph.full_mask:
            raise GraphFormatError(f"cardinality key {self.top} names a table outside the"
                                   f" graph's {graph.n_vertices} tables")

    def lookup(self, graph: JoinGraph, mask: int) -> int:
        try:
            return self.entries[mask]
        except KeyError:
            raise MissingCardinalityError(graph.subset_key(mask)) from None

    def document_section(self, graph: JoinGraph) -> dict:
        self.check_graph(graph)
        keys = sorted(self.entries, key=lambda m: (bin(m).count("1"), graph.subset_key(m)))
        return {"cardinalities": {graph.subset_key(m): self.entries[m] for m in keys}}


class SelectivityModel:
    """Independence model: |S| = ceil(prod bases * prod selectivities in S),
    over its graph's ``bases`` and ``edge_masks`` and its own
    ``selectivities`` tuple, one per edge id."""

    def __init__(self, graph: JoinGraph, selectivities: tuple):
        selectivities = tuple(selectivities)
        if len(selectivities) != graph.n_edges:
            raise GraphFormatError("one selectivity per join edge required")
        for s in selectivities:
            if type(s) not in (int, float) or not 0.0 < s <= 1.0:
                raise GraphFormatError(f"selectivity {s!r} outside (0, 1]")
        self.graph = graph
        self.selectivities = selectivities

    @classmethod
    def from_key_map(cls, graph: JoinGraph, entries: dict):
        if not isinstance(entries, dict):
            raise GraphFormatError("'selectivities' must be an object")
        sels = [None] * graph.n_edges
        keys = [None] * graph.n_edges
        edge_of = graph.edge_of
        ids = graph.name_to_id
        for key, sel in entries.items():
            try:
                left, right = key.split(",")
                eid = edge_of[1 << ids[left] | 1 << ids[right]]
            except (ValueError, KeyError):
                raise _selectivity_key_error(graph, key) from None
            if type(sel) not in (int, float) or not 0.0 < sel <= 1.0:
                raise GraphFormatError(f"selectivity for {key!r} must be a number in (0, 1]")
            if keys[eid] is not None:
                raise GraphFormatError(
                    f"selectivity keys {keys[eid]!r} and {key!r} name the same join")
            keys[eid] = key
            sels[eid] = float(sel)
        if None in sels:
            raise GraphFormatError(f"missing selectivity for edge {sels.index(None)}")
        # Every selectivity was checked above, so __init__'s checks are skipped.
        model = cls.__new__(cls)
        model.graph, model.selectivities = graph, tuple(sels)
        return model

    def check_graph(self, graph: JoinGraph) -> None:
        """Raise GraphFormatError unless the model is of graph or an equal one."""
        if self.graph is not graph and self.graph != graph:
            raise GraphFormatError("the selectivity model is of another graph than the one"
                                   " it is used with")

    def lookup(self, graph: JoinGraph, mask: int) -> int:
        own = self.graph
        prod = formula.model_product(own.bases, own.edge_masks, self.selectivities, mask)
        if prod == math.inf:
            raise LimitExceededError(
                f"cardinality of {{{graph.subset_key(mask)}}} overflows a float")
        return math.ceil(prod)

    def document_section(self, graph: JoinGraph) -> dict:
        self.check_graph(graph)
        names, sels = graph.names, self.selectivities
        return {"selectivities": {f"{names[v1]},{names[v2]}": sels[eid]
                                  for eid, (v1, v2) in enumerate(zip(graph.edge_u, graph.edge_v))}}


def _selectivity_key_error(graph: JoinGraph, key: str):
    """The first check key fails of those that map it to an edge."""
    names = key.split(",")
    if len(names) != 2:
        return GraphFormatError(f"selectivity key {key!r} must name two tables")
    for name in names:
        if name not in graph.name_to_id:
            return UnknownTableError(f"unknown table {name!r} in selectivities")
    return GraphFormatError(f"selectivity key {key!r} matches no join edge")


CardinalitySource = Union[CardinalityCatalog, SelectivityModel]

HJ = "HJ"
INL = "INL"
_OP_NAMES = (HJ, INL)
_SIDE_NAMES = ("left", "right")


class OperatorChoice(NamedTuple):
    """Physical operator plus which side builds the hash / takes the lookups."""

    kind: str   # "HJ" or "INL"
    side: str   # "left" or "right": hash-build side for HJ, inner side for INL


# The four operator choices, by formula.OP_* and SIDE_* code.
_CHOICES = tuple(tuple(OperatorChoice(kind, side) for side in _SIDE_NAMES) for kind in _OP_NAMES)


class MergeResult(NamedTuple):
    step_cost: float
    op: OperatorChoice
    out_card: float


def _check_source(source, graph: JoinGraph) -> None:
    """Refuse any source but a catalog or a model, the two the kernels read,
    or one that does not fit graph."""
    if source is None:
        raise GraphFormatError("no cardinality source: the graph has neither cardinalities"
                               " nor selectivities")
    if not isinstance(source, (CardinalityCatalog, SelectivityModel)):
        raise GraphFormatError("a cardinality source must be a CardinalityCatalog or a"
                               f" SelectivityModel, not {type(source).__name__}")
    source.check_graph(graph)


class _Cards(dict):
    """A context's cardinality memo: a mask it lacks is looked up in the
    source once, when first read, and may raise the source's own error."""

    def __init__(self, graph: JoinGraph, source: CardinalitySource):
        self.graph = graph
        self.source = source

    def __missing__(self, mask: int) -> float:
        card = self[mask] = float(self.source.lookup(self.graph, mask))
        return card


class CostContext:
    """Binds a graph, a cardinality source, and cost parameters.

    Cardinality lookups are memoized in ``cards``; merge evaluation delegates
    to ``formula.merge`` so every enumerator prices joins identically.
    """

    def __init__(self, graph: JoinGraph, source: CardinalitySource, params: CostParams | None = None):
        _check_source(source, graph)
        self.graph = graph
        self.source = source
        self.params = params = params or CostParams()
        self.cards = _Cards(graph, source)
        model = catalog = None
        if isinstance(source, SelectivityModel):
            model = (graph.bases, graph.edge_masks, source.selectivities)
        else:
            catalog = source.entries
        tau = params.tau
        scan = tuple([tau * b for b in graph.bases])  # a float tau keeps the products floats
        self.instance = formula.Instance(graph.n_vertices, graph.edge_u, graph.edge_v, scan,
                                         graph.indexed, params.lam, graph.edge_of, model,
                                         catalog)
        self._merge_memo: dict[tuple[int, int], MergeResult] = {}

    def run_kernel(self, name: str, *args):
        """The backend's kernel ``name`` run on this context's instance and
        args.  The backend is looked up at each call, so a rebound backend or
        kernel runs, and a kernel's KeyError(mask) becomes the error the
        source raises for that mask."""
        try:
            return getattr(_kernels.get_backend(), name)(self.instance, *args)
        except KeyError as exc:
            self.source.lookup(self.graph, exc.args[0])  # raises the source's own error
            raise

    def ensure_cards(self, masks: Iterable[int]) -> None:
        """Memoize the cardinality of every mask.  Under a selectivity model
        they come from one ``model_cards`` kernel call, and the first mask
        whose estimate overflows fails as ``source.lookup`` fails on it."""
        cards = self.cards
        if self.instance.model is None:
            for m in masks:
                cards[m]  # looked up in the catalog when the memo lacks it
            return
        masks = list(masks)
        cards.update(zip(masks, self.run_kernel("model_cards", masks)))

    def seed_card(self, mask: int, card: float) -> None:
        """Memoize a kernel's cardinality of mask where the context lacks
        one; raises SpanPlanError when the context holds another."""
        held = self.cards.setdefault(mask, card)
        if held != card:
            raise SpanPlanError(f"kernel cardinality {card!r} of"
                                f" {{{self.graph.subset_key(mask)}}} does not match"
                                f" the context's {held!r}")

    def merge_pairs(self, pairs) -> list[MergeResult]:
        """merge(l, r) of each (l, r) pair, in order.  The pairs the merge
        memo lacks are priced by one ``merge_pairs`` kernel call, which reads
        each pair's union, then its two sides, as ``formula.merge`` does, so
        the first missing or overflowing subset fails as ``source.lookup``
        fails on it.  Each union's out card is checked by ``seed_card``."""
        memo = self._merge_memo
        lacking = [pair for pair in pairs if pair not in memo]
        if lacking:
            priced = self.run_kernel("merge_pairs", lacking)
            for (l_mask, r_mask), (cost, op, side, out) in zip(lacking, priced):
                self.seed_card(l_mask | r_mask, out)
                memo[l_mask, r_mask] = MergeResult(cost, _CHOICES[op][side], out)
        return [memo[pair] for pair in pairs]

    def scan_cost(self, vertex: int) -> float:
        return self.instance.scan[vertex]

    def merge(self, l_mask: int, r_mask: int) -> MergeResult:
        key = (l_mask, r_mask)
        got = self._merge_memo.get(key)
        if got is not None:
            return got
        cost, op, side, out = formula.merge(self.instance, self.cards, l_mask, r_mask)
        res = self._merge_memo[key] = MergeResult(cost, _CHOICES[op][side], out)
        return res

    def join_cost(self, l_mask: int, r_mask: int, op: OperatorChoice) -> MergeResult:
        """Price a join with its operator and side given, not chosen.  All
        three masks are read first, so one the formula skips still must exist."""
        cards = self.cards
        for mask in (l_mask | r_mask, l_mask, r_mask):
            cards[mask]
        cost, out = formula.join_cost(self.instance, cards, l_mask, r_mask,
                                      _OP_NAMES.index(op.kind), _SIDE_NAMES.index(op.side))
        return MergeResult(cost, op, out)


def _as_mask(graph: JoinGraph, subset) -> int:
    """subset's mask, from a mask (an int) or an iterable of table ids or of
    table names.  Any other subset (True, a float, None, a bare name), an id
    that is not an int (True included) or a bit outside the graph raises
    UnknownTableError."""
    if type(subset) is int:
        if subset & ~graph.full_mask:
            raise UnknownTableError(f"mask {subset!r} names tables outside the graph")
        return subset
    if isinstance(subset, str) or not hasattr(subset, "__iter__"):
        raise UnknownTableError(f"subset {subset!r} is not a mask or an iterable of table ids"
                                " or names")
    ids = list(subset)
    if ids and isinstance(ids[0], str):
        return graph.mask_of_names(ids)
    mask = 0
    for v in ids:
        if type(v) is not int or not 0 <= v < graph.n_vertices:
            raise UnknownTableError(f"table id {v!r} is not in the graph")
        mask |= 1 << v
    return mask


def lookup_cardinality(graph: JoinGraph, source: CardinalitySource, subset) -> int:
    """Row count of a non-empty connected subset, from catalog or model."""
    _check_source(source, graph)
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
    if formula.lowest_edge(graph.edge_u, graph.edge_v, l_mask, r_mask) is None:
        raise GraphFormatError("no join edge between the two sides (cross-join)")
    res = ctx.merge(l_mask, r_mask)
    return res.op, res.step_cost, res.out_card
