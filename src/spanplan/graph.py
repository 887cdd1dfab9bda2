"""Join-graph data model: validation, JSON ingestion, and synthetic topologies.

Tables are vertices, equi-join predicates are edges.  All subset-level
machinery works on vertex bitmasks (bit i set = vertex with id i present).
The constructor and ``load_document`` share one table check, so a graph
either builds writes a document the loader takes back.
"""
from __future__ import annotations

import json
import math
import sys
import time
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    LimitExceededError,
    OptimizeTimeout,
    SelfLoopError,
    UnknownTableError,
)

# Bitmask packing in the kernels uses two masks per 64-bit key.
MAX_VERTICES = 25

SUBSET_ENUM_LIMIT = 20

# connected_subset_masks reads the clock once per this many masks.
_SCAN_CHUNK = 4096

# Costs are computed in floats, so a row count must fit in one.
MAX_CARDINALITY = int(sys.float_info.max)

DEFAULT_BASE_RANGE = (1_000, 1_000_000)
DEFAULT_SEL_RANGE = (1e-5, 1e-1)

# Tells an absent optional key from one given as null.
_ABSENT = object()


class TopologyKind(str, Enum):
    CHAIN = "chain"
    CYCLE = "cycle"
    STAR = "star"
    CLIQUE = "clique"


class TableInfo(NamedTuple):
    """One base table: scan size plus selection/index flags."""

    name: str
    base_cardinality: int
    selected: bool = False
    indexed: bool = True


class JoinEdge(NamedTuple):
    """One equi-join predicate between vertices v1 (left) and v2 (right)."""

    id: int
    v1: int
    v2: int
    predicate: str


class JoinGraph:
    """Undirected, simple, connected graph of tables and join predicates.

    It holds the one copy of its checked tables and joins, which no caller
    can change: per table ``names``, ``bases`` (row counts) and ``indexed``,
    per edge ``edge_u``/``edge_v`` (v1 and v2) and ``edge_masks`` as tuples,
    and ``edge_of`` (edge mask -> id) and ``name_to_id`` as read-only maps.
    ``vertices``, ``edges`` and ``pair_edge`` are derived from them when
    read.  Graphs compare equal when their tables and joins do.
    """

    def __init__(self, vertices: tuple[TableInfo, ...], edges: tuple[JoinEdge, ...]):
        """Check every table and join, then ``_bind`` them."""
        n = len(vertices)
        if n == 0:
            raise GraphFormatError("graph has no tables")
        names, bases, selected, indexed = zip(*vertices)
        for i, (name, card) in enumerate(zip(names, bases)):
            _check_table(i, name, card)
        name_to_id = {name: i for i, name in enumerate(names)}
        if len(name_to_id) != n:
            raise GraphFormatError("duplicate table names")
        edge_of = {}
        for position, (eid, v1, v2, predicate) in enumerate(edges):
            if type(eid) is not int or eid != position:
                raise GraphFormatError(f"edge {eid!r} is at position {position}; each edge's id"
                                       " must be its position")
            if not (type(v1) is int and type(v2) is int and 0 <= v1 < n and 0 <= v2 < n):
                raise UnknownTableError(f"edge {eid} references an unknown vertex")
            if v1 == v2:
                raise SelfLoopError(f"edge {eid} joins table {names[v1]} to itself")
            if not isinstance(predicate, str):
                raise GraphFormatError(f"edge {eid} must give its predicate as a string")
            mask = 1 << v1 | 1 << v2
            if mask in edge_of:
                pair = sorted((v1, v2))
                raise GraphFormatError(f"parallel edge {eid} on {names[pair[0]]}-{names[pair[1]]}")
            edge_of[mask] = len(edge_of)
        self._bind(names, bases, map(bool, selected), map(bool, indexed), [e.v1 for e in edges],
                   [e.v2 for e in edges], [e.predicate for e in edges], edge_of, name_to_id)

    def _bind(self, names, bases, selected, indexed, edge_u, edge_v, predicates,
              edge_of: dict[int, int], name_to_id: dict[str, int]) -> None:
        """Take the tables and joins, and edge_of (keys in edge-id order) and
        name_to_id as dicts no caller keeps, checking only the table limit
        and that the joins connect every table.  ``_graph_from_dict`` binds
        a new graph this way, having checked the rest itself."""
        n = len(names)
        if n > MAX_VERTICES:
            raise LimitExceededError(f"graph has {n} tables, limit is {MAX_VERTICES}")
        self.names = tuple(names)
        self.bases = tuple(bases)
        self._selected = tuple(selected)
        self.indexed = tuple(indexed)
        self.edge_u = tuple(edge_u)
        self.edge_v = tuple(edge_v)
        self._predicates = tuple(predicates)
        self.edge_of = MappingProxyType(edge_of)
        self.edge_masks = tuple(edge_of)
        self.name_to_id = MappingProxyType(name_to_id)
        adj = [0] * n
        for v1, v2 in zip(edge_u, edge_v):
            adj[v1] |= 1 << v2
            adj[v2] |= 1 << v1
        self.adjacency = tuple(adj)
        if self.reachable_mask(1) != (1 << n) - 1:
            raise DisconnectedGraphError("join graph is not connected")

    @property
    def vertices(self) -> tuple[TableInfo, ...]:
        return tuple(map(TableInfo, self.names, self.bases, self._selected, self.indexed))

    @property
    def edges(self) -> tuple[JoinEdge, ...]:
        return tuple(map(JoinEdge, range(self.n_edges), self.edge_u, self.edge_v,
                         self._predicates))

    def __eq__(self, other):
        if not isinstance(other, JoinGraph):
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    @property
    def pair_edge(self) -> MappingProxyType:
        """The edge id joining each pair of tables, keyed (lower id, higher id)."""
        return MappingProxyType({(v1, v2) if v1 < v2 else (v2, v1): eid
                                 for eid, (v1, v2) in enumerate(zip(self.edge_u, self.edge_v))})

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

    @cached_property
    def _neighbour_tables(self) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """(low, high, h, cut): every subset of the low h = ceil(n/2) tables
        with its neighbours (low, indexed by the subset's bits), the same for
        the other tables (high, indexed by the bits shifted down by h), and
        cut, the low half's mask.  That is 2^ceil(n/2) + 2^floor(n/2)
        entries: 2,048 at 20 tables and 12,288 at 25, which only
        ``lookup_cardinality`` reaches.  They are built on the first
        ``is_connected_mask`` call, so loading a graph never pays for them."""
        adj = self.adjacency
        n = len(adj)
        h = (n + 1) // 2
        tables = []
        for base, size in ((0, h), (h, n - h)):
            t = [0] * (1 << size)
            for s in range(1, 1 << size):
                low = s & -s
                t[s] = t[s ^ low] | low << base | adj[base + low.bit_length() - 1]
            tables.append(tuple(t))
        return tables[0], tables[1], h, (1 << h) - 1

    def is_connected_mask(self, mask: int) -> bool:
        """True when the vertices in mask induce a connected subgraph.

        Grows a whole BFS layer per step from the mask's lowest table: two
        ``_neighbour_tables`` reads give the reached set with its neighbours.
        """
        if mask == 0:
            return False
        low, high, h, cut = self._neighbour_tables
        reach = mask & -mask
        while True:
            grown = (low[reach & cut] | high[reach >> h]) & mask
            if grown == reach:
                return reach == mask
            reach = grown

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
            if not isinstance(name, str) or name not in ids:
                raise UnknownTableError(f"unknown table {name!r}")
            mask |= 1 << ids[name]
        return mask

    def names_of_mask(self, mask: int) -> tuple[str, ...]:
        names = self.names
        return tuple(sorted(names[v] for v in iter_bits(mask)))

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


def parse_json(text: str, where: str = ""):
    """text parsed as JSON, or one line of GraphFormatError: "invalid JSON" + where."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise GraphFormatError(f"invalid JSON{where}: {exc}") from exc
    except RecursionError:
        raise GraphFormatError(f"invalid JSON{where}: nested too deeply") from None


def load_document(document: str):
    """Parse a join-graph document plus its optional cardinality section.

    Returns (graph, source) where source is a CardinalityCatalog, a
    SelectivityModel, or None, depending on which optional section is present.
    """
    doc = parse_json(document)
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
    """The document's graph, from one pass over its tables and joins."""
    tables = doc.get("tables")
    joins = doc.get("joins")
    if not isinstance(tables, list) or not tables:
        raise GraphFormatError("'tables' must be a non-empty array")
    if not isinstance(joins, list):
        raise GraphFormatError("'joins' must be an array")

    names, cards, selected, indexed = [], [], [], []
    for i, t in enumerate(tables):
        if not isinstance(t, dict):
            raise GraphFormatError(f"table #{i} must be an object")
        try:
            name = t["name"]
            card = t["cardinality"]
        except KeyError as exc:
            raise GraphFormatError(f"table #{i} is missing {exc}") from exc
        _check_table(i, name, card)
        sel, idx = t.get("selected", False), t.get("indexed", True)
        if type(sel) is not bool or type(idx) is not bool:
            flag = "selected" if type(sel) is not bool else "indexed"
            raise GraphFormatError(f"table {name}: {flag!r} must be true or false")
        names.append(name)
        cards.append(card)
        selected.append(sel)
        indexed.append(idx)
    name_to_id = {name: i for i, name in enumerate(names)}
    if len(name_to_id) != len(names):
        raise GraphFormatError("duplicate table names")

    # Parallel predicates between one table pair merge into a single edge.
    edge_u, edge_v, predicates = [], [], []
    edge_of: dict[int, int] = {}
    for j, item in enumerate(joins):
        try:
            left, right = item["left"], item["right"]
            v1, v2 = name_to_id[left], name_to_id[right]
        except (KeyError, TypeError):
            raise _join_error(j, item, name_to_id) from None
        if v1 == v2:
            raise SelfLoopError(f"join #{j} joins table {left!r} to itself")
        predicate = item.get("predicate", _ABSENT)
        if not isinstance(predicate, str):
            if predicate is not _ABSENT:
                raise GraphFormatError(f"join #{j} must give its predicate as a string")
            predicate = f"{left} = {right}"
        mask = 1 << v1 | 1 << v2
        if mask not in edge_of:
            edge_of[mask] = len(edge_u)
            edge_u.append(v1)
            edge_v.append(v2)
            predicates.append(predicate)
        else:
            eid = edge_of[mask]
            predicates[eid] = f"{predicates[eid]} AND {predicate}"

    # The tables and joins have passed every check of JoinGraph.__init__ but _bind's.
    graph = JoinGraph.__new__(JoinGraph)
    graph._bind(names, cards, selected, indexed, edge_u, edge_v, predicates, edge_of, name_to_id)
    return graph


def _check_table(i: int, name, card) -> None:
    """Raise GraphFormatError unless table #i has a name that is a non-empty
    string without a comma and a row count as its cardinality."""
    if not isinstance(name, str) or not name:
        raise GraphFormatError(f"table #{i} has an invalid name")
    if "," in name:
        # Catalog and selectivity keys join table names with commas.
        raise GraphFormatError(f"table #{i} has a comma in its name")
    if not is_row_count(card, 1):
        raise GraphFormatError(f"table {name} has an invalid cardinality")


def _join_error(j: int, item, name_to_id: dict) -> GraphFormatError:
    """The first check join #j fails of those that find its tables."""
    if not isinstance(item, dict):
        return GraphFormatError(f"join #{j} must be an object")
    for side in ("left", "right"):
        if side not in item:
            return GraphFormatError(f"join #{j} is missing {side!r}")
    left, right = item["left"], item["right"]
    if not isinstance(left, str) or not isinstance(right, str):
        return GraphFormatError(f"join #{j} must name its tables as strings")
    unknown = left if left not in name_to_id else right
    return UnknownTableError(f"join #{j} references unknown table {unknown!r}")


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
                "left": graph.names[e.v1],
                "right": graph.names[e.v2],
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


def connected_subset_masks(graph: JoinGraph, deadline: float = 0.0) -> list[int]:
    """All vertex bitmasks inducing a connected subgraph, ascending.

    Tests each mask once with ``is_connected_mask``.  The deadline (a
    ``time.perf_counter`` time, 0.0 for none) is checked before every
    4096 masks after the first, so a scan of at most 12 tables finishes.
    """
    n = graph.n_vertices
    if n > SUBSET_ENUM_LIMIT:
        raise LimitExceededError(f"subset enumeration limited to {SUBSET_ENUM_LIMIT} tables")
    connected = graph.is_connected_mask
    end = 1 << n
    masks: list[int] = []
    for start in range(1, end, _SCAN_CHUNK):
        if start > 1 and deadline and time.perf_counter() > deadline:
            raise OptimizeTimeout("connected subset scan ran past its deadline")
        masks += [mask for mask in range(start, min(start + _SCAN_CHUNK, end)) if connected(mask)]
    return masks


def connected_subsets(graph: JoinGraph) -> list[tuple[int, ...]]:
    """Connected vertex subsets as sorted id tuples, smallest masks first."""
    return [tuple(iter_bits(m)) for m in connected_subset_masks(graph)]


def topology_kind(kind: TopologyKind | str) -> TopologyKind:
    """kind as a TopologyKind; any other value raises GraphFormatError."""
    try:
        return TopologyKind(kind)
    except ValueError:
        kinds = ", ".join(k.value for k in TopologyKind)
        raise GraphFormatError(f"unknown topology kind {kind!r}; expected one of {kinds}") from None


def _topology_edges(kind: TopologyKind, n: int) -> list[tuple[int, int]]:
    if kind == TopologyKind.CHAIN:
        return [(i, i + 1) for i in range(n - 1)]
    if kind == TopologyKind.CYCLE:
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if kind == TopologyKind.STAR:
        return [(0, i) for i in range(1, n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]  # CLIQUE


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
    kind = topology_kind(kind)
    if n < 2:
        raise GraphFormatError("topology generation needs at least 2 tables")
    if kind == TopologyKind.CYCLE and n < 3:
        raise GraphFormatError("a cycle needs at least 3 tables")
    if n > MAX_VERTICES:
        raise LimitExceededError(f"at most {MAX_VERTICES} tables supported")
    if not (is_row_count(base_range[0], 1) and is_row_count(base_range[1], base_range[0])):
        raise GraphFormatError("base cardinality range LO HI must hold integers"
                               " 1 <= LO <= HI that fit in a float")
    if not 0.0 < sel_range[0] <= sel_range[1] <= 1.0:
        raise GraphFormatError(f"selectivity range {sel_range[0]} {sel_range[1]}"
                               " must hold 0 < LO <= HI <= 1")
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
