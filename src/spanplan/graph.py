"""Join-graph data model: validation, JSON ingestion, and synthetic topologies.

Tables are vertices, equi-join predicates are edges.  All subset-level
machinery works on vertex bitmasks (bit i set = vertex with id i present).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    LimitExceededError,
    SelfLoopError,
    UnknownTableError,
)

# Bitmask packing in the kernels uses two masks per 64-bit key.
MAX_VERTICES = 25

SUBSET_ENUM_LIMIT = 20

# Costs are computed in floats, so a row count must fit in one.
MAX_CARDINALITY = int(sys.float_info.max)

DEFAULT_BASE_RANGE = (1_000, 1_000_000)
DEFAULT_SEL_RANGE = (1e-5, 1e-1)


class TopologyKind(str, Enum):
    CHAIN = "chain"
    CYCLE = "cycle"
    STAR = "star"
    CLIQUE = "clique"


@dataclass(frozen=True)
class TableInfo:
    """One base table: scan size plus selection/index flags."""

    name: str
    base_cardinality: int
    selected: bool = False
    indexed: bool = True


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join predicate between vertices v1 (left) and v2 (right)."""

    id: int
    v1: int
    v2: int
    predicate: str

    def mask(self) -> int:
        return (1 << self.v1) | (1 << self.v2)


@dataclass(frozen=True)
class JoinGraph:
    """Undirected, simple, connected graph of tables and join predicates."""

    vertices: tuple[TableInfo, ...]
    edges: tuple[JoinEdge, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n == 0:
            raise GraphFormatError("graph has no tables")
        if n > MAX_VERTICES:
            raise LimitExceededError(f"graph has {n} tables, limit is {MAX_VERTICES}")
        names = [t.name for t in self.vertices]
        if len(set(names)) != n:
            raise GraphFormatError("duplicate table names")
        for t in self.vertices:
            if t.base_cardinality < 1:
                raise GraphFormatError(f"table {t.name} has cardinality < 1")
        seen_pairs = set()
        for e in self.edges:
            if not (0 <= e.v1 < n and 0 <= e.v2 < n):
                raise UnknownTableError(f"edge {e.id} references an unknown vertex")
            if e.v1 == e.v2:
                raise SelfLoopError(f"edge {e.id} joins table {names[e.v1]} to itself")
            pair = (min(e.v1, e.v2), max(e.v1, e.v2))
            if pair in seen_pairs:
                raise GraphFormatError(f"parallel edge {e.id} on {names[pair[0]]}-{names[pair[1]]}")
            seen_pairs.add(pair)
        full = (1 << n) - 1
        if self.reachable_mask(1) != full:
            raise DisconnectedGraphError("join graph is not connected")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    @cached_property
    def name_to_id(self) -> dict[str, int]:
        return {t.name: i for i, t in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex bitmask of neighbouring vertices."""
        adj = [0] * self.n_vertices
        for e in self.edges:
            adj[e.v1] |= 1 << e.v2
            adj[e.v2] |= 1 << e.v1
        return tuple(adj)

    def reachable_mask(self, seed_mask: int) -> int:
        """Vertices reachable from seed_mask (BFS over the whole graph)."""
        adj = self.adjacency
        reach = seed_mask
        frontier = seed_mask
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = adj[v] & ~reach
            reach |= grow
            frontier |= grow
        return reach

    def is_connected_mask(self, mask: int) -> bool:
        """True when the vertices in mask induce a connected subgraph."""
        if mask == 0:
            return False
        adj = self.adjacency
        seed = mask & -mask
        reach = seed
        frontier = seed
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = adj[v] & mask & ~reach
            reach |= grow
            frontier |= grow
        return reach == mask

    def crossing_edges(self, m1: int, m2: int) -> list[int]:
        """Edge ids with one endpoint in m1 and the other in m2."""
        out = []
        for e in self.edges:
            b1, b2 = 1 << e.v1, 1 << e.v2
            if (b1 & m1 and b2 & m2) or (b1 & m2 and b2 & m1):
                out.append(e.id)
        return out

    def mask_of_names(self, names: Iterable[str]) -> int:
        ids = self.name_to_id
        mask = 0
        for name in names:
            if name not in ids:
                raise UnknownTableError(f"unknown table {name!r}")
            mask |= 1 << ids[name]
        return mask

    def names_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(sorted(self.vertices[v].name for v in iter_bits(mask)))

    def subset_key(self, mask: int) -> str:
        return ",".join(self.names_of_mask(mask))


def is_row_count(value, lowest: int) -> bool:
    """True for a JSON integer (not a boolean) in [lowest, MAX_CARDINALITY]."""
    return type(value) is int and lowest <= value <= MAX_CARDINALITY


def iter_bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_join_graph(document: str) -> "JoinGraph":
    """Parse and validate a join-graph JSON document (tables + joins only)."""
    graph, _ = load_document(document)
    return graph


def load_document(document: str):
    """Parse a join-graph document plus its optional cardinality section.

    Returns (graph, source) where source is a CardinalityCatalog, a
    SelectivityModel, or None, depending on which optional section is present.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("document root must be an object")
    graph = _graph_from_dict(doc)

    from .cost import CardinalityCatalog, SelectivityModel

    cards = doc.get("cardinalities")
    sels = doc.get("selectivities")
    if cards is not None and sels is not None:
        raise GraphFormatError("'cardinalities' and 'selectivities' are mutually exclusive")
    if cards is not None:
        return graph, CardinalityCatalog.from_key_map(graph, cards)
    if sels is not None:
        return graph, SelectivityModel.from_key_map(graph, sels)
    return graph, None


def _graph_from_dict(doc: dict) -> JoinGraph:
    tables = doc.get("tables")
    joins = doc.get("joins")
    if not isinstance(tables, list) or not tables:
        raise GraphFormatError("'tables' must be a non-empty array")
    if not isinstance(joins, list):
        raise GraphFormatError("'joins' must be an array")

    vertices = []
    for i, t in enumerate(tables):
        try:
            name = t["name"]
            card = t["cardinality"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"table #{i} is missing {exc}") from exc
        if not isinstance(name, str) or not name:
            raise GraphFormatError(f"table #{i} has an invalid name")
        if not is_row_count(card, 1):
            raise GraphFormatError(f"table {name} has an invalid cardinality")
        vertices.append(
            TableInfo(
                name=name,
                base_cardinality=card,
                selected=bool(t.get("selected", False)),
                indexed=bool(t.get("indexed", True)),
            )
        )
    name_to_id = {t.name: i for i, t in enumerate(vertices)}
    if len(name_to_id) != len(vertices):
        raise GraphFormatError("duplicate table names")

    # Parallel predicates between one table pair merge into a single edge.
    edges: list[JoinEdge] = []
    by_pair: dict[tuple[int, int], int] = {}
    for j, item in enumerate(joins):
        try:
            left, right = item["left"], item["right"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"join #{j} is missing {exc}") from exc
        if not isinstance(left, str) or not isinstance(right, str):
            raise GraphFormatError(f"join #{j} must name its tables as strings")
        if left not in name_to_id:
            raise UnknownTableError(f"join #{j} references unknown table {left!r}")
        if right not in name_to_id:
            raise UnknownTableError(f"join #{j} references unknown table {right!r}")
        v1, v2 = name_to_id[left], name_to_id[right]
        if v1 == v2:
            raise SelfLoopError(f"join #{j} joins table {left!r} to itself")
        predicate = str(item.get("predicate", f"{left} = {right}"))
        pair = (min(v1, v2), max(v1, v2))
        if pair in by_pair:
            eid = by_pair[pair]
            old = edges[eid]
            edges[eid] = JoinEdge(eid, old.v1, old.v2, f"{old.predicate} AND {predicate}")
        else:
            eid = len(edges)
            by_pair[pair] = eid
            edges.append(JoinEdge(eid, v1, v2, predicate))

    return JoinGraph(vertices=tuple(vertices), edges=tuple(edges))


def graph_document(graph: JoinGraph, source=None) -> dict:
    """Serialize a graph (and optional catalog/selectivity section) to a dict."""
    doc: dict = {
        "tables": [
            {
                "name": t.name,
                "cardinality": t.base_cardinality,
                "selected": t.selected,
                "indexed": t.indexed,
            }
            for t in graph.vertices
        ],
        "joins": [
            {
                "left": graph.vertices[e.v1].name,
                "right": graph.vertices[e.v2].name,
                "predicate": e.predicate,
            }
            for e in graph.edges
        ],
    }
    if source is not None:
        doc.update(source.document_section(graph))
    return doc


def graph_to_json(graph: JoinGraph, source=None) -> str:
    return json.dumps(graph_document(graph, source), indent=2) + "\n"


def connected_subset_masks(graph: JoinGraph) -> list[int]:
    """All vertex bitmasks inducing a connected subgraph, ascending."""
    n = graph.n_vertices
    if n > SUBSET_ENUM_LIMIT:
        raise LimitExceededError(f"subset enumeration limited to {SUBSET_ENUM_LIMIT} tables")
    return [mask for mask in range(1, 1 << n) if graph.is_connected_mask(mask)]


def connected_subsets(graph: JoinGraph) -> list[tuple[int, ...]]:
    """Connected vertex subsets as sorted id tuples, smallest masks first."""
    return [tuple(iter_bits(m)) for m in connected_subset_masks(graph)]


def _topology_edges(kind: TopologyKind, n: int) -> list[tuple[int, int]]:
    if kind == TopologyKind.CHAIN:
        return [(i, i + 1) for i in range(n - 1)]
    if kind == TopologyKind.CYCLE:
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if kind == TopologyKind.STAR:
        return [(0, i) for i in range(1, n)]
    if kind == TopologyKind.CLIQUE:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise GraphFormatError(f"unknown topology kind {kind!r}")


def _derive_seed(kind: str, n: int, seed: int) -> int:
    import hashlib  # only generation needs it; OpenSSL is slow to load

    digest = hashlib.sha256(f"{kind}:{n}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def gen_topology(
    kind: TopologyKind | str,
    n: int,
    seed: int = 0,
    base_range: tuple[int, int] = DEFAULT_BASE_RANGE,
    sel_range: tuple[float, float] = DEFAULT_SEL_RANGE,
):
    """Generate a synthetic (JoinGraph, SelectivityModel) pair.

    Deterministic in (kind, n, seed).  Base cardinalities are uniform over
    base_range; per-edge selectivities are log-uniform over sel_range.
    """
    kind = TopologyKind(kind)
    if n < 2:
        raise GraphFormatError("topology generation needs at least 2 tables")
    if kind == TopologyKind.CYCLE and n < 3:
        raise GraphFormatError("a cycle needs at least 3 tables")
    if n > MAX_VERTICES:
        raise LimitExceededError(f"at most {MAX_VERTICES} tables supported")
    if not (is_row_count(base_range[0], 1) and is_row_count(base_range[1], base_range[0])):
        raise GraphFormatError("base cardinality range LO HI must hold integers"
                               " 1 <= LO <= HI that fit in a float")
    if not all(0.0 < s <= 1.0 for s in sel_range):
        raise GraphFormatError(f"selectivity range {sel_range[0]} {sel_range[1]}"
                               " must lie inside (0, 1]")
    import random

    rng = random.Random(_derive_seed(kind.value, n, seed))
    width = len(str(n - 1))
    names = [f"t{str(i).zfill(max(2, width))}" for i in range(n)]
    vertices = tuple(
        TableInfo(
            name=names[i],
            base_cardinality=rng.randint(base_range[0], base_range[1]),
            selected=False,
            indexed=True,
        )
        for i in range(n)
    )
    pairs = _topology_edges(kind, n)
    edges = tuple(
        JoinEdge(eid, a, b, f"{names[a]}.a{eid} = {names[b]}.a{eid}")
        for eid, (a, b) in enumerate(pairs)
    )
    graph = JoinGraph(vertices=vertices, edges=edges)

    from .cost import SelectivityModel

    lo, hi = math.log10(sel_range[0]), math.log10(sel_range[1])
    sels = tuple(10.0 ** rng.uniform(lo, hi) for _ in edges)
    return graph, SelectivityModel(graph=graph, selectivities=sels)
