import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanplan as sp
from spanplan._kernels import formula
from spanplan.cost import CardinalityCatalog, CostContext, OperatorChoice

from .conftest import make_graph


def test_params_validation():
    with pytest.raises(sp.GraphFormatError):
        sp.CostParams(tau=0.0)
    with pytest.raises(sp.GraphFormatError):
        sp.CostParams(lam=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(sp.GraphFormatError, match="^tau "):
            sp.CostParams(tau=bad)
        with pytest.raises(sp.GraphFormatError, match="^lambda "):
            sp.CostParams(lam=bad)


@pytest.mark.parametrize("value,shown", [
    ("0.2", "a str"), (None, "a NoneType"), (True, "a bool"), (False, "a bool"),
    (10**400, "an int past a float"), (0, "0"), (-3, "-3"),
])
def test_params_refuse_a_factor_that_is_not_a_finite_number_with_one_line(value, shown):
    for name, kwargs in (("tau", {"tau": value}), ("lambda", {"lam": value})):
        with pytest.raises(sp.GraphFormatError) as info:
            sp.CostParams(**kwargs)
        assert str(info.value) == f"{name} must be a finite number above 0, got {shown}"


def test_params_store_floats_so_integer_factors_cost_the_same_bits(q2a):
    params = sp.CostParams(tau=1, lam=3)
    assert (type(params.tau), type(params.lam)) == (float, float)
    graph, catalog = q2a
    by_int = CostContext(graph, catalog, params).instance
    by_float = CostContext(graph, catalog, sp.CostParams(1.0, 3.0)).instance
    assert (by_int.scan, by_int.lam) == (by_float.scan, by_float.lam)
    assert all(type(cost) is float for cost in by_int.scan)


def test_leaf_cost_values():
    graph, catalog = make_graph(
        [{"name": "r", "cardinality": 1000}, {"name": "s", "cardinality": 1},
         {"name": "t", "cardinality": 4_520_000}],
        [{"left": "r", "right": "s"}, {"left": "s", "right": "t"}],
        cardinalities={"r": 1000, "s": 1, "t": 4_520_000},
    )
    ctx = CostContext(graph, catalog)
    assert ctx.scan_cost(0) == 200.0
    assert ctx.scan_cost(1) == pytest.approx(0.2)
    assert ctx.scan_cost(2) == 904_000.0


def test_leaf_cost_ignores_selection_flag():
    graph, catalog = make_graph(
        [{"name": "r", "cardinality": 12345, "selected": False},
         {"name": "s", "cardinality": 12345, "selected": True}],
        [{"left": "r", "right": "s"}],
        cardinalities={"r": 12345, "s": 100},
    )
    ctx = CostContext(graph, catalog)
    assert ctx.scan_cost(0) == ctx.scan_cost(1)


def _pair(l_card, r_card, out, scan=(0.0, 0.0), indexed=(True, True)):
    """Two base tables 0 -- 1 (inner 1 when both are base tables), and their
    cardinalities: the instance and memo formula.join_cost reads."""
    return (formula.Instance(n=2, edge_u=(0,), edge_v=(1,), scan=scan, indexed=indexed, lam=2.0,
                             edge_of={3: 0}),
            {1: l_card, 2: r_card, 3: out})


def test_hash_join_cost_arithmetic():
    empty = _pair(0.0, 0.0, 0.0)
    assert formula.join_cost(*empty, 1, 2, formula.OP_HJ, formula.SIDE_LEFT) == (0.0, 0.0)
    # out 10 + build 5 + both scans (3 and 7): base tables are scanned by their join.
    pair = _pair(5.0, 8.0, 10.0, scan=(3.0, 7.0))
    assert formula.join_cost(*pair, 1, 2, formula.OP_HJ, formula.SIDE_LEFT) == (25.0, 10.0)
    assert formula.join_cost(*pair, 1, 2, formula.OP_HJ, formula.SIDE_RIGHT) == (28.0, 10.0)


def test_hash_join_cost_2a_first_step(q2a_ctx):
    # mc joined with cn: out 150000, build on selected cn (245000 rows),
    # child scans 556000 and 50000.
    mc, cn = 0b01000, 0b10000
    hj = q2a_ctx.join_cost(mc, cn, OperatorChoice("HJ", "right"))
    assert hj == (1_001_000.0, OperatorChoice("HJ", "right"), 150_000.0)
    assert q2a_ctx.merge(mc, cn) == hj


def test_inl_join_cost(q2a_ctx):
    # An empty outer makes no lookups; only its scan is paid.
    pair = _pair(0.0, 5.0, 99.0, scan=(123.0, 7.0))
    assert formula.join_cost(*pair, 1, 2, formula.OP_INL, formula.SIDE_RIGHT) == (123.0, 99.0)
    # lam * max(|out|, |outer|) plus the outer's scan; the inner is not scanned.
    pair = _pair(100.0, 5.0, 400.0, scan=(50.0, 7.0))
    assert formula.join_cost(*pair, 1, 2, formula.OP_INL, formula.SIDE_RIGHT) == (850.0, 400.0)
    # ((mc join cn) looked up against t): 2 * max(150000, 150000)
    got = q2a_ctx.join_cost(0b11000, 0b00100, OperatorChoice("INL", "right"))
    assert got.step_cost == 300_000.0


def test_choose_operator_2a_two_way(q2a):
    graph, catalog = q2a
    op, cost, out = sp.choose_operator(graph, catalog, None, ("mk",), ("k",))
    assert (op.kind, cost, out) == ("HJ", 1_100_001.0, 42_000.0)
    # The index-lookup alternative is an order of magnitude worse.
    inl = CostContext(graph, catalog).join_cost(0b00001, 0b00010, OperatorChoice("INL", "right"))
    assert inl.step_cost == 9_999_000.0


def test_choose_operator_2a_final_step(q2a):
    graph, catalog = q2a
    op, cost, out = sp.choose_operator(graph, catalog, None, ("mk", "k", "mc", "cn"), ("t",))
    assert op.kind == "INL"
    assert cost == 16_000.0
    hj = CostContext(graph, catalog).join_cost(0b11011, 0b00100, OperatorChoice("HJ", "left"))
    assert hj.step_cost == 499_000.0


def test_choose_operator_static_edge_weight(q2a):
    graph, catalog = q2a
    _, cost, out = sp.choose_operator(graph, catalog, None, ("mk",), ("mc",))
    assert cost == 39_245_000.0
    assert out == 35_000_000.0


def test_choose_operator_unindexed_forces_hash_join():
    graph, catalog = make_graph(
        [
            {"name": "a", "cardinality": 100, "indexed": False},
            {"name": "b", "cardinality": 100, "indexed": False},
        ],
        [{"left": "a", "right": "b"}],
        cardinalities={"a": 100, "b": 100, "a,b": 5},
    )
    op, cost, _ = sp.choose_operator(graph, catalog, None, ("a",), ("b",))
    assert op.kind == "HJ"
    assert cost == 5 + 100 + 20 + 20


def test_choose_operator_symmetric(q2a):
    graph, catalog = q2a
    ctx = CostContext(graph, catalog)
    for l, r in [(0b00011, 0b01000), (0b01000, 0b00011), (0b11011, 0b00100)]:
        a = ctx.merge(l, r)
        b = ctx.merge(r, l)
        assert a.step_cost == b.step_cost
        assert a.out_card == b.out_card


def test_choose_operator_rejects_cross_join(q2a):
    graph, catalog = q2a
    with pytest.raises(sp.GraphFormatError):
        sp.choose_operator(graph, catalog, None, ("k",), ("cn",))
    with pytest.raises(sp.GraphFormatError):
        sp.choose_operator(graph, catalog, None, ("mk",), ("mk", "k"))


@settings(max_examples=60, deadline=None)
@given(
    out1=st.integers(min_value=0, max_value=10**9),
    delta=st.integers(min_value=0, max_value=10**9),
    build=st.integers(min_value=0, max_value=10**9),
    outer=st.integers(min_value=1, max_value=10**9),
)
def test_cost_monotone_in_output_cardinality(out1, delta, build, outer):
    out2 = out1 + delta
    # The left input is the hash build side, or the outer of an index lookup.
    for op, side, l_card in ((formula.OP_HJ, formula.SIDE_LEFT, build),
                             (formula.OP_INL, formula.SIDE_RIGHT, outer)):
        low, _ = formula.join_cost(*_pair(float(l_card), 1e9, float(out1)), 1, 2, op, side)
        high, _ = formula.join_cost(*_pair(float(l_card), 1e9, float(out2)), 1, 2, op, side)
        assert high >= low


@pytest.mark.parametrize("kind", ["chain", "cycle", "star", "clique"])
def test_reevaluate_under_the_planning_source_is_identity(kind):
    for n in (4, 6, 8, 10):
        for seed in range(10):
            graph, model = sp.gen_topology(kind, n, seed=seed)
            ctx = CostContext(graph, model)
            for algo in sp.ALGORITHMS:
                plan, _ = sp.run_algorithm(algo, graph, ctx)
                assert sp.reevaluate_plan(plan, graph, ctx) == plan, (kind, n, seed, algo)


def test_reevaluate_keeps_operators_and_sides(q2a):
    graph, catalog = q2a
    plan, _ = sp.exhaustive(graph, catalog)
    flat = CardinalityCatalog(entries={m: 1000 for m in catalog.entries})
    again = sp.reevaluate_plan(plan, graph, CostContext(graph, flat))
    assert [(s.operator, s.side) for s in again.steps] == [(s.operator, s.side) for s in plan.steps]
    assert [s.out_card for s in again.steps] == [1000.0] * len(plan.steps)
    assert again.internal_cost != plan.internal_cost


def test_reevaluate_refuses_a_catalog_lacking_any_subset_a_step_joins(q2a):
    # A join's price reads two of its three subsets (a hash join: the result
    # and its build side), but each step reads all three before it prices.
    graph, catalog = q2a
    plan, _ = sp.exhaustive(graph, catalog)
    masks = {m for s in plan.steps for m in (s.left_mask | s.right_mask, s.left_mask, s.right_mask)}
    for missing in masks:
        lacking = CardinalityCatalog(
            entries={m: rows for m, rows in catalog.entries.items() if m != missing})
        with pytest.raises(sp.MissingCardinalityError) as info:
            sp.reevaluate_plan(plan, graph, CostContext(graph, lacking))
        assert info.value.subset_key == graph.subset_key(missing)


def test_lookup_cardinality(q2a):
    graph, catalog = q2a
    assert sp.lookup_cardinality(graph, catalog, ("mk",)) == 4_545_000
    assert sp.lookup_cardinality(graph, catalog, ("mk", "k")) == 42_000
    with pytest.raises(sp.GraphFormatError):
        sp.lookup_cardinality(graph, catalog, ("k", "cn"))  # not connected
    with pytest.raises(sp.GraphFormatError):
        sp.lookup_cardinality(graph, catalog, ())


@pytest.mark.parametrize("subset", [[7], 1 << 9, [-1], -1], ids=["id 7", "bit 9", "id -1", "mask -1"])
def test_lookup_cardinality_refuses_a_table_outside_the_graph(subset):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError):
        sp.lookup_cardinality(graph, model, subset)


@pytest.mark.parametrize("left,right", [([1], [0, 7]), ([-1], [0]), (1 << 4, 1)])
def test_choose_operator_refuses_a_table_outside_the_graph(left, right):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError):
        sp.choose_operator(graph, model, None, left, right)


@pytest.mark.parametrize("subset", [[1.0], [1.5], [None], [1, "t00"], [True]],
                         ids=["float 1.0", "float 1.5", "None", "id then name", "True"])
def test_lookup_cardinality_refuses_a_table_id_that_is_not_an_int(subset):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError, match="^table id .* is not in the graph$"):
        sp.lookup_cardinality(graph, model, subset)


def test_choose_operator_refuses_a_table_id_that_is_not_an_int():
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError, match="^table id 0.0 is not in the graph$"):
        sp.choose_operator(graph, model, None, [0.0], [1])


NOT_A_SUBSET = {"True": True, "float 1.0": 1.0, "None": None, "bare name": "t00"}


@pytest.mark.parametrize("subset", NOT_A_SUBSET.values(), ids=NOT_A_SUBSET)
def test_lookup_cardinality_refuses_a_subset_that_is_not_a_mask_or_an_iterable(subset):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError) as info:
        sp.lookup_cardinality(graph, model, subset)
    assert str(info.value) == (f"subset {subset!r} is not a mask or an iterable of table ids"
                               " or names")


@pytest.mark.parametrize("subset", NOT_A_SUBSET.values(), ids=NOT_A_SUBSET)
def test_choose_operator_refuses_a_subset_that_is_not_a_mask_or_an_iterable(subset):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    for left, right in ((subset, [1]), ([1], subset)):
        with pytest.raises(sp.UnknownTableError, match="^subset .* is not a mask or an"):
            sp.choose_operator(graph, model, None, left, right)


def test_a_name_list_holding_a_list_is_an_unknown_table():
    graph, model = sp.gen_topology("chain", 4, seed=0)
    with pytest.raises(sp.UnknownTableError, match=r"^unknown table \[1\]$"):
        sp.lookup_cardinality(graph, model, ["t00", [1]])


def test_lookup_cardinality_refuses_a_missing_source_as_the_context_does(two_table):
    graph, _catalog = two_table
    with pytest.raises(sp.GraphFormatError) as context_error:
        CostContext(graph, None)
    with pytest.raises(sp.GraphFormatError) as lookup_error:
        sp.lookup_cardinality(graph, None, [0])
    assert str(lookup_error.value) == str(context_error.value)
    assert "\n" not in str(lookup_error.value)


def test_lookup_cardinality_model_product():
    graph, model = make_graph(
        [
            {"name": "a", "cardinality": 100},
            {"name": "b", "cardinality": 200},
        ],
        [{"left": "a", "right": "b"}],
        selectivities={"a,b": 0.01},
    )
    assert sp.lookup_cardinality(graph, model, ("a", "b")) == 200
    assert sp.lookup_cardinality(graph, model, ("a",)) == 100


def test_model_union_factorizes():
    graph, model = sp.gen_topology("clique", 5, seed=9)
    s1, s2 = 0b00011, 0b01100
    prod = 1.0
    for v in range(5):
        if (s1 | s2) >> v & 1:
            prod *= graph.vertices[v].base_cardinality
    for e in graph.edges:
        if ((s1 | s2) >> e.v1) & 1 and ((s1 | s2) >> e.v2) & 1:
            prod *= model.selectivities[e.id]
    assert sp.lookup_cardinality(graph, model, [0, 1, 2, 3]) == math.ceil(prod)


def test_model_from_key_map_equals_the_checked_constructor():
    graph, model = sp.gen_topology("clique", 6, seed=9)
    keys = {f"{graph.vertices[e.v1].name},{graph.vertices[e.v2].name}": model.selectivities[e.id]
            for e in graph.edges}
    loaded = sp.SelectivityModel.from_key_map(graph, keys)
    assert (loaded.graph, loaded.selectivities) == (model.graph, model.selectivities)
    assert list(graph.edge_masks) == [1 << e.v1 | 1 << e.v2 for e in graph.edges]


@pytest.mark.parametrize("sels,message", [
    ((0.5,), "one selectivity per join edge required"),
    ((0.5, 0.0), "selectivity 0.0 outside (0, 1]"),
    ((1.5, 0.5), "selectivity 1.5 outside (0, 1]"),
    # from_key_map refuses a selectivity whose type is not int or float.
    ((True, 0.5), "selectivity True outside (0, 1]"),
    (("0.5", 0.5), "selectivity '0.5' outside (0, 1]"),
])
def test_model_constructor_checks_its_selectivities(sels, message):
    graph, _model = sp.gen_topology("chain", 3, seed=0)
    with pytest.raises(sp.GraphFormatError) as info:
        sp.SelectivityModel(graph, sels)
    assert str(info.value) == message


@pytest.mark.parametrize("entries,message", [
    ({1.0: 10, 2: 10, 3: 10}, "cardinality key 1.0 must be an int in [1, 2**25)"),
    ({True: 10, 2: 10}, "cardinality key True must be an int in [1, 2**25)"),
    ({0: 10, 1: 10}, "cardinality key 0 must be an int in [1, 2**25)"),
    ({1: 10, 1 << 64: 10}, "cardinality key 18446744073709551616 must be an int in [1, 2**25)"),
    ({1: 10, 2: 10, 3: math.nan}, "cardinality of mask 3 must be a non-negative integer"),
    ({1: 10, 2: -100}, "cardinality of mask 2 must be a non-negative integer"),
    ({1: 7.5}, "cardinality of mask 1 must be a non-negative integer"),
    ({1: True}, "cardinality of mask 1 must be a non-negative integer"),
    ({1: 10**400}, "cardinality of mask 1 must be a non-negative integer"),
])
def test_catalog_constructor_refuses_what_its_loader_refuses(entries, message):
    with pytest.raises(sp.GraphFormatError) as info:
        CardinalityCatalog(entries=entries)
    assert str(info.value) == message


def _lookup_by_loop(graph, model, mask):
    """SelectivityModel.lookup as first written: bases in ascending vertex
    order, then selectivities in edge-id order."""
    prod = 1.0
    for v in range(graph.n_vertices):
        if (mask >> v) & 1:
            prod *= graph.vertices[v].base_cardinality
    for e in graph.edges:
        if (mask >> e.v1) & 1 and (mask >> e.v2) & 1:
            prod *= model.selectivities[e.id]
    if prod == math.inf:
        raise sp.LimitExceededError("overflow")
    return math.ceil(prod)


@pytest.mark.parametrize("kind,n,base_range,sel_range", [
    ("clique", 10, (1_000, 1_000_000), (1e-5, 1e-1)),
    ("star", 12, (1_000, 1_000_000), (1e-5, 1e-1)),
    ("cycle", 12, (1, 10), (0.5, 1.0)),
    # Near the float limit: some products land above 1e303, and the
    # largest subsets overflow.
    ("chain", 16, (10**19, 10**20), (0.5, 1.0)),
    ("cycle", 16, (10**19, 10**21), (0.5, 1.0)),
    ("clique", 12, (10**24, 10**27), (0.2, 1.0)),
])
def test_model_lookup_equals_the_plain_loop(kind, n, base_range, sel_range):
    graph, model = sp.gen_topology(kind, n, seed=3, base_range=base_range, sel_range=sel_range)
    finite = overflowed = 0
    for mask in sp.graph.connected_subset_masks(graph):
        try:
            want = _lookup_by_loop(graph, model, mask)
        except sp.LimitExceededError:
            with pytest.raises(sp.LimitExceededError):
                model.lookup(graph, mask)
            overflowed += 1
            continue
        assert model.lookup(graph, mask) == want, mask
        finite += 1
    assert finite
    assert overflowed or base_range[1] < 10**15


def test_missing_cardinality_names_subset():
    graph, catalog = make_graph(
        [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 10}],
        [{"left": "a", "right": "b"}],
        cardinalities={"a": 10, "b": 10},
    )
    with pytest.raises(sp.MissingCardinalityError) as err:
        sp.lookup_cardinality(graph, catalog, ("a", "b"))
    assert "a,b" in str(err.value)


def test_catalog_requires_singletons():
    graph = sp.parse_join_graph(
        '{"tables":[{"name":"a","cardinality":10},{"name":"b","cardinality":10}],'
        '"joins":[{"left":"a","right":"b"}]}'
    )
    with pytest.raises(sp.MissingCardinalityError):
        CardinalityCatalog.from_key_map(graph, {"a": 10, "a,b": 3})

