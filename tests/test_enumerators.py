import pytest

import spanplan as sp
from spanplan.cost import CostContext
from spanplan.plan import canonical_encoding

from .conftest import mixed_instances


def _edges(plan):
    return [s.edge for s in plan.steps]


# ---------------------------------------------------------------- frozen 2a

def test_exhaustive_2a(q2a):
    graph, catalog = q2a
    plan, stats = sp.exhaustive(graph, catalog)
    assert plan.internal_cost == 1_617_001.0
    assert _edges(plan) == [0, 3, 4, 1]   # (mk-k), (mk-mc), (mc-cn), (t-mk)
    assert plan.filters == (2,)
    assert plan.shape == "linear"
    assert stats.plans_enumerated == 1


def test_exhaustive_2a_unpruned_coverage(q2a):
    graph, catalog = q2a
    plan, stats = sp.exhaustive(graph, catalog, prune=False)
    assert plan.internal_cost == 1_617_001.0
    assert stats.subplans_reached == 14
    assert stats.join_costs_computed == 32


def test_prim_2a(q2a):
    graph, catalog = q2a
    plan, stats = sp.prim(graph, catalog)
    assert plan.internal_cost == 4_658_001.0
    assert _edges(plan) == [4, 2, 1, 0]   # (mc-cn), (t-mc), (t-mk), (mk-k)
    assert plan.filters == (3,)
    assert plan.shape == "linear"
    # First selection scanned every two-way join; e5 is the global minimum.
    assert plan.steps[0].edge == 4
    assert plan.steps[0].step_cost == 1_001_000.0


def test_kruskal_2a(q2a):
    graph, catalog = q2a
    plan, stats = sp.kruskal(graph, catalog)
    assert plan.internal_cost == 2_451_001.0
    assert _edges(plan) == [4, 2, 0, 1]
    assert plan.filters == (3,)
    assert plan.shape == "bushy"
    assert plan.steps[3].step_cost == 50_000.0


def test_goo_2a(q2a):
    graph, catalog = q2a
    plan, _ = sp.goo(graph, catalog)
    assert plan.internal_cost == 2_451_001.0
    exh, _ = sp.exhaustive(graph, catalog)
    assert plan.internal_cost >= exh.internal_cost


def test_este_2a(q2a):
    graph, catalog = q2a
    plan, stats = sp.este(graph, catalog)
    assert plan.internal_cost == 1_692_001.0
    kru, _ = sp.kruskal(graph, catalog)
    assert plan.internal_cost <= kru.internal_cost
    # Ensemble coverage on this query: every one of the 14 subplans is
    # reached; 24 of the 32 distinct splits are costed; 7 distinct plans.
    assert stats.subplans_reached == 14
    assert stats.join_costs_computed == 24
    assert stats.plans_enumerated == 7


def test_este_beats_both_seeds_everywhere(q2a):
    graph, catalog = q2a
    e, _ = sp.este(graph, catalog)
    for eid in range(graph.n_edges):
        p, _ = sp.prim(graph, catalog, start_edge=eid)
        k, _ = sp.kruskal(graph, catalog, start_edge=eid)
        assert e.internal_cost <= p.internal_cost
        assert e.internal_cost <= k.internal_cost


# ------------------------------------------------------------ small graphs

def test_two_table_graph_all_algorithms_agree(two_table):
    graph, catalog = two_table
    plans = []
    for name in sp.ALGORITHMS:
        plan, _ = sp.run_algorithm(name, graph, catalog)
        plans.append(plan)
        assert len(plan.steps) == 1
        assert plan.filters == ()
    costs = {p.internal_cost for p in plans}
    assert len(costs) == 1
    # 40 output + 50 build + scans 20 + 10
    assert costs.pop() == 40 + 50 + 20 + 10


def test_prim_from_sole_edge_equals_prim(two_table):
    graph, catalog = two_table
    a, _ = sp.prim(graph, catalog)
    b, _ = sp.prim(graph, catalog, start_edge=0)
    assert a == b


@pytest.mark.parametrize("start", [-1, 1])
@pytest.mark.parametrize("run", [sp.prim, sp.kruskal])
def test_start_edge_must_be_an_edge_id(two_table, run, start):
    graph, catalog = two_table
    with pytest.raises(IndexError):
        run(graph, catalog, start_edge=start)


def test_chain3_hand_rolled_cost(chain3_model):
    graph, model = chain3_model
    plan, _ = sp.prim(graph, model, start_edge=0)
    assert _edges(plan) == [0, 1]
    # |ab| = ceil(1000*2000*0.01) = 20000; |abc| = ceil(1e9*0.01*0.002) = 20000
    # step1 = 20000 + 1000 + 200 + 400 ; step2 = 20000 + 500 + 100 (build on c)
    assert plan.steps[0].step_cost == 21_600.0
    assert plan.steps[1].step_cost == 20_600.0
    assert plan.internal_cost == 42_200.0
    assert plan.total_cost == plan.internal_cost  # all-HJ: every scan charged


def test_triangle_equal_weights_demotes_one_filter():
    graph, catalog = sp.load_document(
        """{"tables":[{"name":"a","cardinality":100},{"name":"b","cardinality":100},
                      {"name":"c","cardinality":100}],
            "joins":[{"left":"a","right":"b"},{"left":"b","right":"c"},
                     {"left":"a","right":"c"}],
            "cardinalities":{"a":100,"b":100,"c":100,"a,b":50,"b,c":50,"a,c":50,
                             "a,b,c":25}}"""
    )
    plan, _ = sp.kruskal(graph, catalog)
    assert len(plan.steps) == 2
    assert len(plan.filters) == 1
    sp.validate_plan(graph, plan, CostContext(graph, catalog))
    # Oracle agreement: of the 6 ordered two-edge trees none beats this one.
    brute, bstats = sp.brute_force_optimal(graph, catalog)
    assert bstats.plans_enumerated == 6
    assert plan.internal_cost == brute.internal_cost


def test_goo_chain4_matches_independent_greedy_simulation():
    graph, model = sp.gen_topology("chain", 4, seed=5)
    plan, _ = sp.goo(graph, model)

    # Step-by-step greedy oracle over explicit component sets.
    comps = [frozenset([v]) for v in range(4)]
    total = 0.0
    costs = {frozenset([v]): 0.0 for v in range(4)}
    for _ in range(3):
        best = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                a, b = comps[i], comps[j]
                if not graph.crossing_edges(sum(1 << v for v in a), sum(1 << v for v in b)):
                    continue
                _, step, _ = sp.choose_operator(graph, model, None, tuple(a), tuple(b))
                am, bm = sum(1 << v for v in a), sum(1 << v for v in b)
                lo, hi = min(am, bm), max(am, bm)
                if best is None or (step, lo, hi) < best[0]:
                    best = ((step, lo, hi), a, b)
        (step, _, _), a, b = best
        comps.remove(a)
        comps.remove(b)
        merged = a | b
        costs[merged] = step + costs[a] + costs[b]
        comps.append(merged)
    assert plan.internal_cost == costs[frozenset(range(4))]


# ------------------------------------------------------------- properties

def test_plans_validate_and_shapes_classify():
    for kind, n, graph, model in mixed_instances(24, base_seed=300):
        ctx = CostContext(graph, model)
        for name in sp.ALGORITHMS:
            plan, _ = sp.run_algorithm(name, graph, ctx)
            sp.validate_plan(graph, plan, ctx)
            if name == "prim":
                assert plan.shape == "linear"
            # Independent classifier: every prefix of step edges must form a
            # single connected component over the vertices it touches.
            single = True
            for k in range(1, len(plan.steps) + 1):
                prefix = [graph.edges[s.edge] for s in plan.steps[:k]]
                touched = {v for e in prefix for v in (e.v1, e.v2)}
                adj = {v: set() for v in touched}
                for e in prefix:
                    adj[e.v1].add(e.v2)
                    adj[e.v2].add(e.v1)
                seen = {next(iter(touched))}
                stack = list(seen)
                while stack:
                    for w in adj[stack.pop()] - seen:
                        seen.add(w)
                        stack.append(w)
                if seen != touched:
                    single = False
            assert (plan.shape == "linear") == single


def test_exhaustive_lower_bounds_every_heuristic():
    for kind, n, graph, model in mixed_instances(16, base_seed=700):
        ctx = CostContext(graph, model)
        exh, _ = sp.exhaustive(graph, ctx)
        for name in ("prim", "kruskal", "goo", "este"):
            plan, _ = sp.run_algorithm(name, graph, ctx)
            assert exh.internal_cost <= plan.internal_cost
        for eid in range(graph.n_edges):
            p, _ = sp.prim(graph, ctx, start_edge=eid)
            k, _ = sp.kruskal(graph, ctx, start_edge=eid)
            assert exh.internal_cost <= p.internal_cost
            assert exh.internal_cost <= k.internal_cost


def test_este_is_min_over_members():
    for kind, n, graph, model in mixed_instances(12, base_seed=900):
        ctx = CostContext(graph, model)
        member_costs = []
        for eid in range(graph.n_edges):
            p, _ = sp.prim(graph, ctx, start_edge=eid)
            k, _ = sp.kruskal(graph, ctx, start_edge=eid)
            member_costs += [p.internal_cost, k.internal_cost]
        e, _ = sp.este(graph, ctx)
        assert e.internal_cost == min(member_costs)


def test_repeated_runs_identical(q2a):
    graph, catalog = q2a
    for name in sp.ALGORITHMS:
        a, _ = sp.run_algorithm(name, graph, catalog)
        b, _ = sp.run_algorithm(name, graph, catalog)
        assert a == b
        assert canonical_encoding(a) == canonical_encoding(b)


def test_prim_quadratic_evaluation_guardrail():
    for n in (4, 6, 8):
        graph, model = sp.gen_topology("clique", n, seed=2)
        _, stats = sp.prim(graph, model)
        assert stats.evaluations <= graph.n_edges**2


def test_este_cubic_evaluation_guardrail():
    for n in (4, 6, 8):
        graph, model = sp.gen_topology("clique", n, seed=2)
        _, stats = sp.este(graph, model)
        assert stats.evaluations <= 2 * graph.n_edges**3


def test_exhaustive_vertex_limit():
    graph, model = sp.gen_topology("chain", 21, seed=0)
    with pytest.raises(sp.LimitExceededError):
        sp.exhaustive(graph, model)


def test_exhaustive_timeout():
    graph, model = sp.gen_topology("clique", 14, seed=0)
    with pytest.raises(sp.OptimizeTimeout):
        sp.exhaustive(graph, model, timeout=1e-9)


def test_exhaustive_checks_its_deadline_between_phases():
    # Only the DP read the clock, every 1024 subsets, so a 16-table chain
    # used to finish long after a 1 ms budget.
    graph, model = sp.gen_topology("chain", 16, seed=0)
    with pytest.raises(sp.OptimizeTimeout, match="exhaustive enumeration ran past its deadline"):
        sp.exhaustive(graph, model, timeout=1e-3)


def test_este_timeout():
    graph, model = sp.gen_topology("clique", 14, seed=0)
    with pytest.raises(sp.OptimizeTimeout):
        sp.este(graph, model, timeout=1e-9)
    with pytest.raises(sp.OptimizeTimeout):
        sp.run_algorithm("este", graph, model, timeout=1e-9)


@pytest.mark.parametrize("algo", ["exhaustive", "este"])
def test_zero_timeout_is_a_deadline_not_none(algo):
    graph, model = sp.gen_topology("clique", 14, seed=0)
    with pytest.raises(sp.OptimizeTimeout):
        sp.run_algorithm(algo, graph, model, timeout=0)


@pytest.mark.parametrize("search", [sp.exhaustive, sp.este])
def test_nan_timeout_is_rejected(search):
    # Small enough to finish at once if NaN were taken as no deadline.
    graph, model = sp.gen_topology("clique", 5, seed=0)
    with pytest.raises(ValueError):
        search(graph, model, timeout=float("nan"))


@pytest.mark.parametrize("algo", ["exhaustive", "este"])
def test_infinite_timeout_never_expires(algo):
    graph, model = sp.gen_topology("clique", 6, seed=0)
    assert (sp.run_algorithm(algo, graph, model, timeout=float("inf"))[0]
            == sp.run_algorithm(algo, graph, model)[0])


@pytest.mark.parametrize("algo", sp.ALGORITHMS)
def test_one_table_graph_gives_the_empty_plan(one_table, algo):
    graph, catalog = one_table
    plan, stats = sp.run_algorithm(algo, graph, catalog)
    assert (plan.algorithm, plan.steps, plan.filters) == (algo, (), ())
    assert plan.internal_cost == plan.total_cost == 0
    assert stats.plans_enumerated == 1
    assert stats.subplans_reached == stats.join_costs_computed == stats.evaluations == 0
    sp.validate_plan(graph, plan, CostContext(graph, catalog))


def test_oracle_zero_timeout_is_a_deadline_not_none():
    graph, model = sp.gen_topology("clique", 6, seed=0)
    with pytest.raises(sp.OptimizeTimeout):
        sp.brute_force_optimal(graph, model, timeout=0)


def test_validator_rejects_corrupted_plans(q2a):
    graph, catalog = q2a
    plan, _ = sp.exhaustive(graph, catalog)
    import dataclasses

    missing_step = dataclasses.replace(plan, steps=plan.steps[:-1])
    with pytest.raises(sp.PlanValidationError):
        sp.validate_plan(graph, missing_step)
    wrong_shape = dataclasses.replace(plan, shape="bushy")
    with pytest.raises(sp.PlanValidationError):
        sp.validate_plan(graph, wrong_shape)
    wrong_cost = dataclasses.replace(plan, internal_cost=plan.internal_cost + 1)
    with pytest.raises(sp.PlanValidationError):
        sp.validate_plan(graph, wrong_cost, CostContext(graph, catalog))
