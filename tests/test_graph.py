import json
import time
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spanplan as sp
from spanplan.graph import connected_subset_masks

from .conftest import IRREGULAR_KINDS, irregular_graph, make_graph


def test_parse_minimal_two_table(two_table):
    graph, catalog = two_table
    assert graph.n_vertices == 2
    assert graph.n_edges == 1
    assert catalog.lookup(graph, 0b11) == 40


def test_parse_query_2a(q2a):
    graph, catalog = q2a
    assert graph.n_vertices == 5
    assert graph.n_edges == 5
    assert [t.name for t in graph.vertices] == ["mk", "k", "t", "mc", "cn"]
    assert graph.vertices[1].selected and graph.vertices[4].selected
    assert all(t.indexed for t in graph.vertices)


def test_parse_disconnected_graph_rejected():
    with pytest.raises(sp.DisconnectedGraphError):
        make_graph(
            [
                {"name": "a", "cardinality": 10},
                {"name": "b", "cardinality": 10},
                {"name": "cn", "cardinality": 10},
            ],
            [{"left": "a", "right": "b"}],
        )


def test_parse_self_loop_rejected():
    with pytest.raises(sp.SelfLoopError):
        make_graph(
            [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 10}],
            [{"left": "a", "right": "a"}],
        )


def test_parse_unknown_table_rejected():
    with pytest.raises(sp.UnknownTableError):
        make_graph(
            [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 10}],
            [{"left": "a", "right": "zz"}],
        )


def test_parse_malformed_document_rejected():
    with pytest.raises(sp.GraphFormatError):
        sp.parse_join_graph("{not json")
    with pytest.raises(sp.GraphFormatError):
        sp.parse_join_graph(json.dumps({"tables": []}))
    with pytest.raises(sp.GraphFormatError):
        sp.parse_join_graph(json.dumps({"tables": [{"name": "a", "cardinality": 0}], "joins": []}))


_B = {"name": "b", "cardinality": 20}
_AB_JOINS = [{"left": "a", "right": "b"}]


def _ab(**sections) -> dict:
    """Two-table document a(10) -- b(20) with sections replaced or added."""
    doc = {"tables": [{"name": "a", "cardinality": 10}, _B], "joins": _AB_JOINS}
    doc.update(sections)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(_ab(selectivities={"a,b": "x"}), id="selectivity-string"),
        pytest.param(_ab(selectivities={"a,b": None}), id="selectivity-null"),
        pytest.param(_ab(selectivities={"a,b": True}), id="selectivity-true"),
        pytest.param(_ab(selectivities={"a,b": 10**400}), id="selectivity-huge"),
        pytest.param(_ab(selectivities=[0.5]), id="selectivities-array"),
        pytest.param(_ab(cardinalities=[1, 2]), id="cardinalities-array"),
        pytest.param(_ab(cardinalities={"a": True, "b": 20}), id="catalog-rows-true"),
        pytest.param(_ab(cardinalities={"a": 10**400, "b": 20}), id="catalog-rows-huge"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10**400}, _B]),
                     id="table-cardinality-huge"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": True}, _B]),
                     id="table-cardinality-true"),
        pytest.param(_ab(joins=[{"left": ["a"], "right": "b"}]), id="join-name-array"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10, "indexed": "false"}, _B]),
                     id="indexed-string"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10, "indexed": 0}, _B]),
                     id="indexed-zero"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10, "indexed": None}, _B]),
                     id="indexed-null"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10, "selected": 1}, _B]),
                     id="selected-one"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10, "selected": "true"}, _B]),
                     id="selected-string"),
        pytest.param(_ab(tables=[["a", 10], _B]), id="table-array"),
        pytest.param(_ab(tables=["a", _B]), id="table-string"),
        pytest.param(_ab(tables=[{"name": "a", "cardinality": 10}, None]), id="table-null"),
        pytest.param(_ab(joins=[["a", "b"]]), id="join-array"),
        pytest.param(_ab(joins=[7]), id="join-number"),
        pytest.param(_ab(tables=[{"name": "a,c", "cardinality": 10}, _B],
                         joins=[{"left": "a,c", "right": "b"}]), id="table-name-comma"),
        pytest.param(_ab(joins=[{"left": "a", "right": "b", "predicate": None}]),
                     id="join-predicate-null"),
        pytest.param(_ab(joins=[{"left": "a", "right": "b", "predicate": {"x": [1]}}]),
                     id="join-predicate-object"),
    ],
)
def test_malformed_values_raise_graph_format_error(doc):
    with pytest.raises(sp.GraphFormatError):
        sp.load_document(json.dumps(doc))


def test_a_join_predicate_that_is_not_a_string_is_named_by_position():
    # A parallel join merges its predicate into the first join's with AND.
    doc = _ab(joins=[*_AB_JOINS, {"left": "b", "right": "a", "predicate": 7}])
    with pytest.raises(sp.GraphFormatError) as info:
        sp.load_document(json.dumps(doc))
    assert str(info.value) == "join #1 must give its predicate as a string"


@pytest.mark.parametrize("doc,message", [
    (_ab(tables=[["a", 10], _B]), "table #0 must be an object"),
    (_ab(tables=[{"name": "a", "cardinality": 10}, "b"]), "table #1 must be an object"),
    (_ab(joins=[["a", "b"]]), "join #0 must be an object"),
    (_ab(joins=[*_AB_JOINS, None]), "join #1 must be an object"),
    (_ab(tables=[{"name": "a"}, _B]), "table #0 is missing 'cardinality'"),
    (_ab(joins=[{"left": "a"}]), "join #0 is missing 'right'"),
])
def test_a_table_or_join_that_is_not_an_object_is_named_by_position(doc, message):
    with pytest.raises(sp.GraphFormatError) as info:
        sp.load_document(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("doc,message", [
    (_ab(tables=[_B, {"name": "a,c", "cardinality": 10}], joins=[{"left": "a,c", "right": "b"}],
         cardinalities={"a,c": 10, "b": 20, "a,b,c": 5}), "table #1 has a comma in its name"),
    (_ab(cardinalities={"a": 10, "b": 20, "a,b": 5, "b,a": 50000}),
     "cardinality keys 'a,b' and 'b,a' name the same subset"),
    (_ab(cardinalities={"a": 10, "b": 20, ",a": 5}),
     "cardinality key ',a' has an empty table name"),
    (_ab(cardinalities={"a": 10, "b": 20, "a,": 5}),
     "cardinality key 'a,' has an empty table name"),
    (_ab(cardinalities={"": 5, "a": 10, "b": 20}), "cardinality key '' has an empty table name"),
    (_ab(selectivities={"a,b": 0.5, "b,a": 0.001}),
     "selectivity keys 'a,b' and 'b,a' name the same join"),
])
def test_names_and_keys_must_name_each_table_subset_and_join_once(doc, message):
    with pytest.raises(sp.GraphFormatError) as info:
        sp.load_document(json.dumps(doc))
    assert str(info.value) == message


_ABC = {"tables": [{"name": "a", "cardinality": 10}, _B, {"name": "c", "cardinality": 30}],
        "joins": [*_AB_JOINS, {"left": "b", "right": "c"}]}


@pytest.mark.parametrize("doc,error,message", [
    # Joins, each check in the order the loader makes them (the cases of
    # the two tests above are not repeated).
    (_ab(joins=[{"right": "b"}]), sp.GraphFormatError, "join #0 is missing 'left'"),
    (_ab(joins=[{"right": 7}]), sp.GraphFormatError, "join #0 is missing 'left'"),
    (_ab(joins=[{"left": "a", "right": 7}]), sp.GraphFormatError,
     "join #0 must name its tables as strings"),
    (_ab(joins=[{"left": None, "right": "zz"}]), sp.GraphFormatError,
     "join #0 must name its tables as strings"),
    (_ab(joins=[{"left": "zz", "right": "b"}]), sp.UnknownTableError,
     "join #0 references unknown table 'zz'"),
    (_ab(joins=[{"left": "a", "right": "yy"}]), sp.UnknownTableError,
     "join #0 references unknown table 'yy'"),
    (_ab(joins=[{"left": "zz", "right": "yy", "predicate": None}]), sp.UnknownTableError,
     "join #0 references unknown table 'zz'"),
    (_ab(joins=[{"left": "a", "right": "yy", "predicate": None}]), sp.UnknownTableError,
     "join #0 references unknown table 'yy'"),
    (_ab(joins=[*_AB_JOINS, {"left": "b", "right": "b", "predicate": None}]), sp.SelfLoopError,
     "join #1 joins table 'b' to itself"),
    (_ab(joins=[{"left": "a", "right": "b", "predicate": None}]), sp.GraphFormatError,
     "join #0 must give its predicate as a string"),
    (_ab(joins=[*_AB_JOINS, {"left": "b", "right": "a", "predicate": None}]), sp.GraphFormatError,
     "join #1 must give its predicate as a string"),
    # Selectivities.
    (_ab(selectivities={"a": 0.5}), sp.GraphFormatError,
     "selectivity key 'a' must name two tables"),
    (dict(_ABC, selectivities={"a,b,c": 0.5, "b,c": 0.5}), sp.GraphFormatError,
     "selectivity key 'a,b,c' must name two tables"),
    (_ab(selectivities={"a,b,c": 7}), sp.GraphFormatError,
     "selectivity key 'a,b,c' must name two tables"),
    (_ab(selectivities={"zz,b": 0.5}), sp.UnknownTableError,
     "unknown table 'zz' in selectivities"),
    (_ab(selectivities={"a,yy": 2}), sp.UnknownTableError, "unknown table 'yy' in selectivities"),
    (dict(_ABC, selectivities={"a,b": 0.5, "a,c": 0.5}), sp.GraphFormatError,
     "selectivity key 'a,c' matches no join edge"),
    (dict(_ABC, selectivities={"a,b": 0.5, "c,a": 0}), sp.GraphFormatError,
     "selectivity key 'c,a' matches no join edge"),
    (_ab(selectivities={"a,a": 0.5}), sp.GraphFormatError,
     "selectivity key 'a,a' matches no join edge"),
    (_ab(selectivities={"a,b": 0}), sp.GraphFormatError,
     "selectivity for 'a,b' must be a number in (0, 1]"),
    (_ab(selectivities={"b,a": 1.5}), sp.GraphFormatError,
     "selectivity for 'b,a' must be a number in (0, 1]"),
    (_ab(selectivities={"a,b": None}), sp.GraphFormatError,
     "selectivity for 'a,b' must be a number in (0, 1]"),
    (_ab(selectivities={"a,b": 0.5, "b,a": -1}), sp.GraphFormatError,
     "selectivity for 'b,a' must be a number in (0, 1]"),
    (dict(_ABC, selectivities={"c,b": 0.5}), sp.GraphFormatError, "missing selectivity for edge 0"),
])
def test_each_malformed_join_and_selectivity_fails_with_its_message(doc, error, message):
    with pytest.raises(sp.SpanPlanError) as info:
        sp.load_document(json.dumps(doc))
    assert (type(info.value), str(info.value)) == (error, message)


def test_an_absent_predicate_defaults_to_the_equality_of_its_tables():
    doc = _ab(joins=[{"left": "b", "right": "a"}, {"left": "a", "right": "b", "predicate": "p"},
                     {"left": "a", "right": "b"}])
    graph, _ = sp.load_document(json.dumps(doc))
    assert graph.edges == (sp.JoinEdge(0, 1, 0, "b = a AND p AND a = b"),)


def test_overflowing_cardinality_estimate_is_a_planner_error():
    big = [{"name": "a", "cardinality": 10**200}, {"name": "b", "cardinality": 10**200}]
    graph, model = sp.load_document(json.dumps(_ab(tables=big, selectivities={"a,b": 1.0})))
    with pytest.raises(sp.LimitExceededError):
        sp.run_algorithm("prim", graph, model)


def test_parallel_predicates_merge_into_one_edge():
    graph, _ = make_graph(
        [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 10}],
        [
            {"left": "a", "right": "b", "predicate": "a.x = b.x"},
            {"left": "b", "right": "a", "predicate": "a.y = b.y"},
        ],
    )
    assert graph.n_edges == 1
    assert graph.edges[0].predicate == "a.x = b.x AND a.y = b.y"


def test_mutually_exclusive_catalog_sections():
    with pytest.raises(sp.GraphFormatError):
        make_graph(
            [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 10}],
            [{"left": "a", "right": "b"}],
            cardinalities={"a": 10, "b": 10},
            selectivities={"a,b": 0.5},
        )


def test_round_trip_2a(q2a, q2a_text):
    graph, catalog = q2a
    again, catalog2 = sp.load_document(sp.graph_to_json(graph, catalog))
    assert again == graph
    assert catalog2.entries == catalog.entries


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(list(sp.TopologyKind)),
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_generated_topologies_round_trip(kind, n, seed):
    assume(not (kind == sp.TopologyKind.CYCLE and n < 3))
    graph, model = sp.gen_topology(kind, n, seed)
    again, model2 = sp.load_document(sp.graph_to_json(graph, model))
    assert again == graph
    assert model2.selectivities == model.selectivities


@pytest.mark.parametrize(
    "kind,n,expected_edges",
    [("chain", 4, 3), ("star", 4, 3), ("cycle", 4, 4), ("clique", 5, 10), ("star", 17, 16)],
)
def test_topology_edge_counts(kind, n, expected_edges):
    graph, _ = sp.gen_topology(kind, n, seed=3)
    assert graph.n_vertices == n
    assert graph.n_edges == expected_edges


def test_star_17_has_degree_16_hub():
    graph, _ = sp.gen_topology("star", 17, seed=0)
    degree = [0] * 17
    for e in graph.edges:
        degree[e.v1] += 1
        degree[e.v2] += 1
    assert max(degree) == 16
    assert degree[0] == 16


def test_gen_topology_deterministic_and_in_range():
    g1, m1 = sp.gen_topology("cycle", 6, seed=42)
    g2, m2 = sp.gen_topology("cycle", 6, seed=42)
    assert g1 == g2
    assert m1.selectivities == m2.selectivities
    assert sp.graph_to_json(g1, m1) == sp.graph_to_json(g2, m2)
    for t in g1.vertices:
        assert 1_000 <= t.base_cardinality <= 1_000_000
        assert t.indexed and not t.selected
    for s in m1.selectivities:
        assert 1e-5 <= s <= 1e-1


def test_gen_topology_rejects_tiny():
    with pytest.raises(sp.GraphFormatError):
        sp.gen_topology("chain", 1, seed=0)


def _independent_connected(graph, vertices) -> bool:
    """BFS over adjacency lists, independent of the bitmask machinery."""
    if not vertices:
        return False
    vset = set(vertices)
    adj = {v: set() for v in vset}
    for e in graph.edges:
        if e.v1 in vset and e.v2 in vset:
            adj[e.v1].add(e.v2)
            adj[e.v2].add(e.v1)
    seen = {next(iter(vset))}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v] - seen:
            seen.add(w)
            queue.append(w)
    return seen == vset


def test_connected_subsets_2a(q2a):
    graph, _ = q2a
    assert len([s for s in sp.connected_subsets(graph) if len(s) > 1]) == 14


def test_connected_subsets_chain3(chain3_model):
    graph, _ = chain3_model
    subsets = [s for s in sp.connected_subsets(graph) if len(s) > 1]
    assert subsets == [(0, 1), (1, 2), (0, 1, 2)]


def test_connected_subsets_clique4():
    graph, _ = sp.gen_topology("clique", 4, seed=0)
    assert len([s for s in sp.connected_subsets(graph) if len(s) > 1]) == 11  # 6 pairs + 4 triples + 1 full


@pytest.mark.parametrize("kind,n", [("chain", 6), ("cycle", 7), ("star", 8), ("clique", 5)])
def test_connected_subsets_match_independent_bruteforce(kind, n, q2a):
    graphs = [sp.gen_topology(kind, n, seed=11)[0], q2a[0]]
    for graph in graphs:
        got = set(sp.connected_subsets(graph))
        expected = set()
        for mask in range(1, 1 << graph.n_vertices):
            vertices = tuple(v for v in range(graph.n_vertices) if (mask >> v) & 1)
            if _independent_connected(graph, vertices):
                expected.add(vertices)
        assert got == expected


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 10), seed=st.integers(0, 10**6))
def test_connected_subsets_match_a_bfs_of_each_mask_on_any_irregular_graph(kind, n, seed):
    graph, _model = irregular_graph(kind, n, seed)
    expected = [mask for mask in range(1, 1 << n)
                if _independent_connected(graph, [v for v in range(n) if mask >> v & 1])]
    assert connected_subset_masks(graph) == expected


def test_every_connected_subset_passes_bfs(q2a):
    graph, _ = q2a
    for mask in connected_subset_masks(graph):
        vertices = tuple(v for v in range(graph.n_vertices) if (mask >> v) & 1)
        assert _independent_connected(graph, vertices)


def test_subset_scan_reads_its_deadline_every_4096_masks(monkeypatch):
    calls = []
    real = sp.JoinGraph.is_connected_mask
    monkeypatch.setattr(sp.JoinGraph, "is_connected_mask",
                        lambda self, mask: calls.append(mask) or real(self, mask))
    small, _ = sp.gen_topology("cycle", 12, seed=0)
    big, _ = sp.gen_topology("cycle", 14, seed=0)
    past = time.perf_counter() - 1.0
    # 4095 masks are one chunk: the scan finishes with no clock read.
    assert connected_subset_masks(small, past) == connected_subset_masks(small)
    assert len(calls) == 2 * 4095
    del calls[:]
    with pytest.raises(sp.OptimizeTimeout):
        connected_subset_masks(big, past)
    assert len(calls) == 4096
    del calls[:]
    assert connected_subset_masks(big, time.perf_counter() + 60.0) == \
        connected_subset_masks(big)
    assert len(calls) == 2 * (2**14 - 1)
