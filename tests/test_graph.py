import json
import math
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


def _tables(*names, cardinality=10) -> list:
    return [{"name": name, "cardinality": cardinality} for name in names]


_MANY = [f"t{i:02d}" for i in range(26)]  # one table past the limit
_MANY_CHAIN = [{"left": a, "right": b} for a, b in zip(_MANY, _MANY[1:])]


@pytest.mark.parametrize("doc,error,message", [
    # A loaded graph is checked once, by the loader, and then only for the
    # table limit and reach; each check keeps its message and its place in
    # the order the loader makes them.
    ({"tables": [], "joins": []}, sp.GraphFormatError, "'tables' must be a non-empty array"),
    # Duplicate names: after every table, before any join.
    (_ab(tables=_tables("a", "a")), sp.GraphFormatError, "duplicate table names"),
    (_ab(tables=_tables("a", "a"), joins=[{"left": "a", "right": "zz"}]), sp.GraphFormatError,
     "duplicate table names"),
    (_ab(tables=[*_tables("a", "a"), {"name": "c", "cardinality": 0}]), sp.GraphFormatError,
     "table c has an invalid cardinality"),
    # Cardinalities below 1: while the tables are read.
    (_ab(tables=_tables("a", "b", cardinality=0)), sp.GraphFormatError,
     "table a has an invalid cardinality"),
    (_ab(tables=[_B, {"name": "a", "cardinality": -3}]), sp.GraphFormatError,
     "table a has an invalid cardinality"),
    # Unknown tables and self-loops: at their join, before reach.
    (dict(_ABC, joins=[{"left": "a", "right": "zz"}]), sp.UnknownTableError,
     "join #0 references unknown table 'zz'"),
    (dict(_ABC, joins=[{"left": "c", "right": "c"}]), sp.SelfLoopError,
     "join #0 joins table 'c' to itself"),
    # Parallel joins merge, so a later join's fault is still named.
    (_ab(joins=[*_AB_JOINS, {"left": "b", "right": "a"}, {"left": "a", "right": "zz"}]),
     sp.UnknownTableError, "join #2 references unknown table 'zz'"),
    (dict(_ABC, joins=[*_AB_JOINS, {"left": "b", "right": "a"}]), sp.DisconnectedGraphError,
     "join graph is not connected"),
    # The table limit: after every join, before reach.
    ({"tables": _tables(*_MANY), "joins": [{"left": "t00", "right": "t00"}]}, sp.SelfLoopError,
     "join #0 joins table 't00' to itself"),
    ({"tables": _tables(*_MANY), "joins": []}, sp.LimitExceededError,
     "graph has 26 tables, limit is 25"),
    ({"tables": _tables(*_MANY), "joins": _MANY_CHAIN}, sp.LimitExceededError,
     "graph has 26 tables, limit is 25"),
    # Reach: last of the graph's checks, before any cardinality section.
    (dict(_ABC, joins=_AB_JOINS, selectivities={"a,zz": 0.5}), sp.DisconnectedGraphError,
     "join graph is not connected"),
])
def test_each_check_a_load_makes_once_keeps_its_message_and_its_place(doc, error, message):
    with pytest.raises(sp.SpanPlanError) as info:
        sp.load_document(json.dumps(doc))
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_loaded_graph_has_the_name_and_pair_maps_a_built_graph_derives(q2a_text):
    generated, model = sp.gen_topology("clique", 9, seed=2)
    for text in (q2a_text, sp.graph_to_json(generated, model)):
        loaded, _ = sp.load_document(text)
        built = sp.JoinGraph(loaded.vertices, loaded.edges)
        assert loaded == built
        assert (loaded.name_to_id, loaded.pair_edge) == (built.name_to_id, built.pair_edge)


@st.composite
def _irregular_documents(draw):
    """A valid document of 1 to 7 tables (a random spanning tree plus random
    joins, every pair listed one to three times in either orientation, in
    random order, each predicate absent or given, each flag absent or
    given, selectivities keyed in either orientation), and the tables,
    joins and selectivities JoinGraph and SelectivityModel take for it."""
    n = draw(st.integers(1, 7))
    names = draw(st.lists(st.text("abé日\"", min_size=1, max_size=3), min_size=n, max_size=n,
                          unique=True))
    tables, vertices = [], []
    for name in names:
        table = {"name": name, "cardinality": draw(st.integers(1, 10**15))}
        flags = {flag: draw(st.booleans()) for flag in ("selected", "indexed")
                 if draw(st.booleans())}
        tables.append({**table, **flags})
        vertices.append(sp.TableInfo(name, table["cardinality"], flags.get("selected", False),
                                     flags.get("indexed", True)))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=6)))
    items = [(u, v) if draw(st.booleans()) else (v, u)
             for u, v in sorted(pairs) for _ in range(draw(st.integers(1, 3)))]
    items = draw(st.permutations(items))
    joins, edges = [], {}  # edges: pair -> (v1, v2, predicates), in first-listed order
    for u, v in items:
        join = {"left": names[u], "right": names[v]}
        if draw(st.booleans()):
            join["predicate"] = draw(st.sampled_from(["", "p", f"{names[u]}.x = {names[v]}.x"]))
        joins.append(join)
        v1, v2, predicates = edges.setdefault(frozenset((u, v)), (u, v, []))
        predicates.append(join.get("predicate", f"{names[u]} = {names[v]}"))
    sels, key_map = [], {}
    for v1, v2, _predicates in edges.values():
        sel = draw(st.floats(1e-9, 1.0))
        key = (names[v1], names[v2]) if draw(st.booleans()) else (names[v2], names[v1])
        key_map[",".join(key)] = sel
        sels.append(sel)
    doc = {"tables": tables, "joins": joins, "selectivities": key_map}
    edges = [sp.JoinEdge(eid, v1, v2, " AND ".join(predicates))
             for eid, (v1, v2, predicates) in enumerate(edges.values())]
    return doc, tuple(vertices), tuple(edges), tuple(sels)


def _derived(graph):
    return (graph.names, graph.bases, graph.indexed, graph.edge_u, graph.edge_v,
            graph.edge_masks, graph.edge_of, graph.adjacency, graph.name_to_id, graph.pair_edge,
            graph.n_vertices, graph.n_edges, graph.full_mask)


@settings(max_examples=150, deadline=None)
@given(case=_irregular_documents())
def test_loading_a_document_gives_the_graph_and_model_the_constructors_build(case):
    doc, vertices, edges, sels = case
    graph, model = sp.load_document(json.dumps(doc))
    built = sp.JoinGraph(vertices, edges)
    assert (graph.vertices, graph.edges) == (built.vertices, built.edges)
    assert graph == built and hash(graph) == hash(built)
    assert _derived(graph) == _derived(built)
    want = sp.SelectivityModel(built, sels)
    assert (model.graph, model.selectivities) == (want.graph, want.selectivities)


def _direct(tables, edges):
    vertices = tuple(sp.TableInfo(name, card) for name, card in tables)
    return sp.JoinGraph(vertices, tuple(sp.JoinEdge(i, *edge) for i, edge in enumerate(edges)))


@pytest.mark.parametrize("tables,edges,error,message", [
    ((), (), sp.GraphFormatError, "graph has no tables"),
    ((("a", 10), ("a", 10)), ((0, 1, "p"),), sp.GraphFormatError, "duplicate table names"),
    ((("a", 10), ("b", 0)), ((0, 1, "p"),), sp.GraphFormatError,
     "table b has an invalid cardinality"),
    ((("a", 10), ("b", 10)), ((0, 2, "p"),), sp.UnknownTableError,
     "edge 0 references an unknown vertex"),
    ((("a", 10), ("b", 10)), ((-1, 1, "p"),), sp.UnknownTableError,
     "edge 0 references an unknown vertex"),
    ((("a", 10), ("b", 10)), ((0, 1, "p"), (1, 1, "q")), sp.SelfLoopError,
     "edge 1 joins table b to itself"),
    ((("a", 10), ("b", 10)), ((0, 1, "p"), (1, 0, "q")), sp.GraphFormatError,
     "parallel edge 1 on a-b"),
    ((("a", 10), ("b", 10), ("c", 10)), ((0, 1, "p"),), sp.DisconnectedGraphError,
     "join graph is not connected"),
    (tuple((name, 10) for name in _MANY), tuple((i, i + 1, "p") for i in range(25)),
     sp.LimitExceededError, "graph has 26 tables, limit is 25"),
    # What the JSON loader refuses: a count that is not an int from 1 to
    # MAX_CARDINALITY (a float, NaN, past a float, a boolean).
    *(((("a", 10), ("b", card)), ((0, 1, "p"),), sp.GraphFormatError,
       "table b has an invalid cardinality") for card in (2.5, math.nan, 10**400, True)),
])
def test_a_graph_built_directly_is_checked_in_full(tables, edges, error, message):
    with pytest.raises(sp.SpanPlanError) as info:
        _direct(tables, edges)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("ids, message", [
    ((7, 3), "edge 7 is at position 0"),
    ((1, 0), "edge 1 is at position 0"),
    ((0, 0), "edge 0 is at position 1"),
    ((0, True), "edge True is at position 1"),
    ((0, 1.0), "edge 1.0 is at position 1"),
])
def test_a_graph_built_directly_refuses_edge_ids_that_are_not_their_positions(ids, message):
    # The kernels, plan steps and filters name an edge by its position, and
    # graph.edges[i].id by its id: the two must be one number.
    vertices = tuple(sp.TableInfo(name, 10) for name in "abc")
    edges = tuple(sp.JoinEdge(eid, v, v + 1, "p") for v, eid in enumerate(ids))
    with pytest.raises(sp.GraphFormatError) as info:
        sp.JoinGraph(vertices, edges)
    assert str(info.value) == message + "; each edge's id must be its position"


@pytest.mark.parametrize("names,predicate,message", [
    ((7, "b"), "p", "table #0 has an invalid name"),
    (("a", ""), "p", "table #1 has an invalid name"),
    (("a", "b,c"), "p", "table #1 has a comma in its name"),
    (("a", None), "p", "table #1 has an invalid name"),
    (("a", "b"), 5, "edge 0 must give its predicate as a string"),
    (("a", "b"), None, "edge 0 must give its predicate as a string"),
])
def test_a_graph_built_directly_refuses_what_its_document_could_not_hold(names, predicate,
                                                                          message):
    # The constructor and the loader share one table check, so a graph the
    # constructor builds writes a document the loader takes back.
    vertices = tuple(sp.TableInfo(name, 10) for name in names)
    with pytest.raises(sp.GraphFormatError) as info:
        sp.JoinGraph(vertices, (sp.JoinEdge(0, 0, 1, predicate),))
    assert str(info.value) == message


@pytest.mark.parametrize("v1,v2", [(True, 1), (0, 1.0), (0, "b")])
def test_a_graph_built_directly_refuses_an_endpoint_that_is_not_a_table_id(v1, v2):
    vertices = (sp.TableInfo("a", 10), sp.TableInfo("b", 10))
    with pytest.raises(sp.UnknownTableError) as info:
        sp.JoinGraph(vertices, (sp.JoinEdge(0, v1, v2, "p"),))
    assert str(info.value) == "edge 0 references an unknown vertex"


def test_a_graph_built_directly_stores_its_flags_as_booleans():
    vertices = (sp.TableInfo("a", 10, "yes", 2), sp.TableInfo("b", 10, 0, None))
    graph = sp.JoinGraph(vertices, (sp.JoinEdge(0, 0, 1, "p"),))
    assert graph.vertices == (sp.TableInfo("a", 10, True, True),
                              sp.TableInfo("b", 10, False, False))
    assert [type(flag) for t in graph.vertices for flag in t[2:]] == [bool] * 4
    assert sp.load_document(sp.graph_to_json(graph))[0] == graph


# Values a caller might pass as a table's flags: any of them is taken as its truth value.
_ANY_FLAG = st.one_of(st.booleans(), st.none(), st.integers(-1, 2), st.text(max_size=2))


@st.composite
def _constructor_inputs(draw):
    """Tables and joins for JoinGraph(vertices, edges), mostly valid: about
    one name, count or predicate in thirty is of a kind a document cannot
    hold.  The joins are a random spanning tree plus up to three other pairs."""
    n = draw(st.integers(1, 6))

    def rare(valid, invalid):
        return draw(invalid if draw(st.integers(0, 29)) == 0 else valid)

    vertices = tuple(sp.TableInfo(
        rare(st.text(min_size=1, max_size=3), st.sampled_from([7, "", "x,y", None, b"a"])),
        rare(st.integers(1, 10**16), st.sampled_from([0, -1, 2.5, True, 10**400])),
        draw(_ANY_FLAG), draw(_ANY_FLAG)) for _ in range(n))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(n) if u != v and (u, v) not in pairs
              and (v, u) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), max_size=3, unique_by=frozenset)
                  if others else st.just([]))
    edges = tuple(sp.JoinEdge(eid, u, v, rare(st.text(max_size=3), st.sampled_from([None, 3])))
                  for eid, (u, v) in enumerate(pairs))
    return vertices, edges


@settings(max_examples=200, deadline=None)
@given(case=_constructor_inputs())
def test_any_graph_the_constructor_accepts_reloads_as_an_equal_graph(case):
    vertices, edges = case
    try:
        graph = sp.JoinGraph(vertices, edges)
    except sp.SpanPlanError:
        return
    model = sp.SelectivityModel(graph, [0.5] * graph.n_edges)
    loaded, again = sp.load_document(sp.graph_to_json(graph, model))
    assert loaded == graph and (loaded.vertices, loaded.edges) == (graph.vertices, graph.edges)
    assert again.selectivities == model.selectivities
    if graph.n_edges:
        plan, _stats = sp.prim(graph, model)
        assert json.loads(sp.plan_to_json(plan, graph))["steps"]


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


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(11, 25), seed=st.integers(0, 10**6),
       data=st.data())
def test_is_connected_mask_matches_a_bfs_past_the_scans_reach(kind, n, seed, data):
    # The scan stops at 20 tables; lookup_cardinality tests masks of up to 25.
    graph, _model = irregular_graph(kind, n, seed)
    high_half = n - (n + 1) // 2
    sampled = data.draw(st.lists(st.integers(0, graph.full_mask), max_size=40))
    high_only = data.draw(st.lists(st.integers(1, (1 << high_half) - 1), min_size=1, max_size=20))
    masks = [0, graph.full_mask, *(1 << v for v in range(n)), *sampled,
             *(m << (n + 1) // 2 for m in high_only)]
    for mask in masks:
        assert graph.is_connected_mask(mask) == \
            _independent_connected(graph, [v for v in range(n) if mask >> v & 1]), mask


def test_loads_and_greedy_searches_leave_the_neighbour_tables_unbuilt(q2a_text):
    # Only a connectivity test builds them; a load checks reach without them.
    generated, model = sp.gen_topology("clique", 12, seed=0)
    for text in (q2a_text, sp.graph_to_json(generated, model)):
        graph, source = sp.load_document(text)
        assert "_neighbour_tables" not in vars(graph)
        for algo in ("prim", "kruskal", "goo", "este"):
            sp.run_algorithm(algo, graph, source)
        assert "_neighbour_tables" not in vars(graph)
        assert graph.is_connected_mask(graph.full_mask)
        assert "_neighbour_tables" in vars(graph)


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
