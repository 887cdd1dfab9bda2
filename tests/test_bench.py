import random

import pytest

import spanplan as sp
from spanplan import bench
from spanplan.bench import (
    CSV_COLUMNS,
    BenchRecord,
    WorkloadQuery,
    aggregate,
    complexity_group,
    growth_exponent,
    read_csv,
    records_to_csv,
    run_workload,
    topology_sweep,
)
from spanplan.cost import CardinalityCatalog
from spanplan.graph import connected_subset_masks


@pytest.mark.parametrize(
    "joins,expected",
    [(1, "simple"), (4, "simple"), (9, "simple"), (10, "moderate"),
     (19, "moderate"), (20, "complex"), (28, "complex")],
)
def test_complexity_group(joins, expected):
    assert complexity_group(joins) == expected


def test_run_workload_2a_ratios(q2a):
    graph, catalog = q2a
    query = WorkloadQuery(query_id="2a", graph=graph, selection_source=catalog)
    records = run_workload([query])
    by_algo = {r.algorithm: r for r in records}
    assert len(records) == 5
    assert by_algo["exhaustive"].cost_ratio == 1.0
    assert by_algo["kruskal"].cost_ratio == 2_451_001.0 / 1_617_001.0
    assert by_algo["prim"].cost_ratio == 4_658_001.0 / 1_617_001.0
    assert by_algo["este"].cost_ratio <= by_algo["kruskal"].cost_ratio
    assert by_algo["este"].distinct_plans == 7
    assert by_algo["exhaustive"].group == "simple"
    for r in records:
        assert r.error is None
        assert r.opt_time_ms is not None and r.opt_time_ms >= 0.0


def test_exhaustive_timeout_omits_ratios():
    graph, model = sp.gen_topology("clique", 14, seed=0)
    query = WorkloadQuery(query_id="big", graph=graph, selection_source=model)
    records = run_workload([query], algorithms=("exhaustive", "prim"), timeout=1e-9)
    by_algo = {r.algorithm: r for r in records}
    assert by_algo["exhaustive"].error is not None
    assert by_algo["exhaustive"].cost_ratio is None
    assert by_algo["prim"].internal_cost is not None
    assert by_algo["prim"].cost_ratio is None


def test_estimated_selection_can_beat_estimated_optimum():
    """With selection under a distorted catalog and evaluation under the true
    one, heuristic ratios may drop below 1; the harness must accept that."""
    graph, model = sp.gen_topology("cycle", 5, seed=3)
    true_entries = {m: model.lookup(graph, m) for m in connected_subset_masks(graph)}
    rng = random.Random(3 * 31 + 7)
    est_entries = {
        m: (v if bin(m).count("1") == 1 else max(0, int(v * rng.choice([0.01, 0.1, 1, 10, 100]))))
        for m, v in true_entries.items()
    }
    query = WorkloadQuery(
        query_id="distorted",
        graph=graph,
        selection_source=CardinalityCatalog(entries=est_entries),
        evaluation_source=CardinalityCatalog(entries=true_entries),
    )
    records = run_workload([query])
    ratios = {r.algorithm: r.cost_ratio for r in records}
    assert ratios["exhaustive"] == 1.0
    assert min(r for r in ratios.values() if r is not None) < 1.0


@pytest.mark.parametrize("overflowing", ["selection", "evaluation"])
def test_overflowing_cost_is_a_limit_error_in_every_row(q2a, overflowing):
    graph, catalog = q2a
    huge = CardinalityCatalog(
        entries={m: (10**308 if m & (m - 1) else rows) for m, rows in catalog.entries.items()})
    if overflowing == "selection":
        query = WorkloadQuery(query_id="huge", graph=graph, selection_source=huge)
    else:
        query = WorkloadQuery(query_id="huge", graph=graph, selection_source=catalog,
                              evaluation_source=huge)
    records = run_workload([query])
    assert [r.algorithm for r in records] == list(sp.ALGORITHMS)
    for r in records:
        assert r.error is not None and r.error.startswith("LimitExceededError: "), r
        assert r.internal_cost is None and r.cost_ratio is None
    # Every search succeeded when only the evaluation overflows: each row
    # keeps its search time, and este its distinct plans.
    if overflowing == "evaluation":
        assert all(r.opt_time_ms is not None for r in records)
        assert [r.distinct_plans for r in records] == [None, None, None, None, 7]


def test_repeated_or_unknown_algorithm_raises(q2a, monkeypatch):
    graph, catalog = q2a
    query = WorkloadQuery(query_id="2a", graph=graph, selection_source=catalog)
    with pytest.raises(sp.SpanPlanError, match="algorithm 'prim' is listed twice"):
        run_workload([query], algorithms=("exhaustive", "prim", "prim"))
    with pytest.raises(sp.SpanPlanError, match="unknown algorithm 'dpccp'"):
        run_workload([query], algorithms=("exhaustive", "dpccp"))
    # A repeated query id would pair rows with another query's baseline; it
    # raises before any query runs.
    chain, model = sp.gen_topology("chain", 6, seed=0)
    twin = WorkloadQuery(query_id="2a", graph=chain, selection_source=model)
    monkeypatch.setattr(bench, "_run_query", lambda *args: pytest.fail("a query ran"))
    with pytest.raises(sp.SpanPlanError) as info:
        run_workload([query, twin], algorithms=("exhaustive", "prim"))
    assert str(info.value) == "query id '2a' is listed twice"
    with pytest.raises(sp.SpanPlanError) as info:
        topology_sweep("chain", [4, 4], 1, algorithms=("exhaustive", "prim"))
    assert str(info.value) == "query id 'chain-04-s0' is listed twice"


@pytest.mark.parametrize("sizes,seeds,error,message", [
    ([3], 0, sp.GraphFormatError, "a sweep needs at least 1 seed per size, got 0"),
    ([3], -2, sp.GraphFormatError, "a sweep needs at least 1 seed per size, got -2"),
    ([3], 10**11, sp.LimitExceededError,
     "a sweep of sizes x seeds runs 100000000000 queries, above the limit of 10000"),
    ([3, 4], bench.MAX_SWEEP_QUERIES // 2 + 1, sp.LimitExceededError,
     "a sweep of sizes x seeds runs 10002 queries, above the limit of 10000"),
])
def test_a_topology_sweep_is_refused_before_any_graph_is_built(monkeypatch, sizes, seeds, error,
                                                               message):
    monkeypatch.setattr(bench, "gen_topology", lambda *args: pytest.fail("a graph was built"))
    with pytest.raises(sp.SpanPlanError) as info:
        topology_sweep("chain", sizes, seeds)
    assert (type(info.value), str(info.value)) == (error, message)


def test_unknown_topology_is_a_graph_format_error():
    for call in (lambda: sp.gen_topology("bogus", 5), lambda: topology_sweep("bogus", [4], 1)):
        with pytest.raises(sp.GraphFormatError) as info:
            call()
        assert str(info.value) == ("unknown topology kind 'bogus';"
                                   " expected one of chain, cycle, star, clique")


def test_bench_record_fields_are_the_csv_columns():
    assert CSV_COLUMNS == list(BenchRecord._fields)


def test_aggregate_single_record_equals_itself():
    rec = BenchRecord(
        query_id="q", group="simple", algorithm="exhaustive",
        internal_cost=10.0, cost_ratio=1.0, opt_time_ms=2.0,
    )
    summary = aggregate([rec])
    assert summary["total"]["exhaustive"]["cost_ratio"] == 1.0
    assert summary["total"]["exhaustive"]["opt_time_ms"] == 2.0
    assert summary["groups"]["simple"]["exhaustive"]["queries"] == 1


def test_aggregate_weights_by_cost_sums():
    records = [
        BenchRecord("q1", "simple", "exhaustive", internal_cost=100.0, cost_ratio=1.0),
        BenchRecord("q1", "simple", "kruskal", internal_cost=100.0, cost_ratio=1.0),
        BenchRecord("q2", "simple", "exhaustive", internal_cost=100.0, cost_ratio=1.0),
        BenchRecord("q2", "simple", "kruskal", internal_cost=300.0, cost_ratio=3.0),
    ]
    summary = aggregate(records)
    assert summary["total"]["kruskal"]["cost_ratio"] == 2.0


def test_aggregate_empty_rejected():
    with pytest.raises(sp.SpanPlanError):
        aggregate([])


def test_topology_sweep_shape_and_bounds():
    records = topology_sweep("chain", [4, 5], seeds_per_size=2,
                             algorithms=("exhaustive", "prim", "este"))
    assert len(records) == 2 * 2 * 3
    assert {r.topology for r in records} == {"chain"}
    assert {r.n_tables for r in records} == {4, 5}
    for r in records:
        assert r.error is None
        if r.algorithm != "exhaustive":
            assert r.cost_ratio >= 1.0


def test_este_ratio_bounded_by_members_on_sweep():
    records = topology_sweep("clique", [5, 6], seeds_per_size=3,
                             algorithms=("exhaustive", "prim", "kruskal", "este"))
    by_query = {}
    for r in records:
        by_query.setdefault(r.query_id, {})[r.algorithm] = r.cost_ratio
    for ratios in by_query.values():
        assert ratios["este"] <= min(ratios["prim"], ratios["kruskal"])


def test_csv_round_trip(q2a):
    graph, catalog = q2a
    query = WorkloadQuery(query_id="2a", graph=graph, selection_source=catalog,
                          topology=None, n_tables=5, seed=None)
    records = run_workload([query])
    text = records_to_csv(records)
    assert text.splitlines()[0] == (
        "query_id,group,algorithm,internal_cost,cost_ratio,opt_time_ms,"
        "distinct_plans,topology,n_tables,seed,error"
    )
    again = read_csv(text)
    assert again == records


HEADER = ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("text,message", [
    ("", "CSV line 1: expected the header"),
    (HEADER + "\n2a,simple,prim\n", "CSV line 2 has 3 cells; the header has 11"),
    (HEADER + "\n2a,simple,prim" + "," * 9 + "\n", "CSV line 2 has 12 cells; the header has 11"),
    (HEADER + "\n2a,simple,prim,,,,,,5,,\n2a,simple,goo,many,,,,,5,,\n",
     "CSV line 3: internal_cost 'many' is not a number"),
])
def test_read_csv_refuses_malformed_text_naming_the_line(text, message):
    with pytest.raises(sp.SpanPlanError) as exc:
        read_csv(text)
    assert str(exc.value).startswith(message), exc.value


def test_growth_exponent_recovers_power_law():
    slope, r2 = growth_exponent([2, 4, 8, 16], [12, 48, 192, 768])  # 3 * n^2
    assert slope == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)


def test_growth_exponent_on_noisy_series():
    # Slope and R^2 that numpy.polyfit gave for this series.
    slope, r2 = growth_exponent([4, 6, 8, 10, 12, 14, 16], [50, 160, 230, 480, 590, 1000, 1100])
    assert slope == pytest.approx(2.234986123626194, rel=1e-12)
    assert r2 == pytest.approx(0.9876762822016008, rel=1e-12)
