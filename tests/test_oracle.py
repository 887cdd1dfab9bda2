import itertools
import json
import math
import time

import pytest

import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import trees
from spanplan.cost import CostContext
from spanplan.graph import connected_subset_masks

from .conftest import IRREGULAR_KINDS, irregular_graph, irregular_instances, mixed_instances


# ------------------------------------------------------- counting formulas

def _catalan_by_pascal(n: int) -> int:
    """Independent Catalan evaluation: binomial(2n, n)/(n+1) via Pascal rows."""
    row = [1]
    for _ in range(2 * n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[n] // (n + 1)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (5, 5040)])
def test_binary_tree_space_size_values(n, expected):
    assert sp.binary_tree_space_size(n) == expected


def test_binary_tree_space_size_matches_bruteforce():
    # tree space = Catalan(n) labeled n! ways; product computed iteratively.
    for n in range(1, 9):
        labelings = 1
        for k in range(2, n + 1):
            labelings *= k
        assert sp.binary_tree_space_size(n) == _catalan_by_pascal(n) * labelings


def test_binary_tree_space_size_guard():
    with pytest.raises(sp.LimitExceededError):
        sp.binary_tree_space_size(0)


@pytest.mark.parametrize("n", [16, 25])
def test_binary_tree_space_size_is_exact_past_15_tables(n):
    assert sp.binary_tree_space_size(n) == _catalan_by_pascal(n) * math.factorial(n)


@pytest.mark.parametrize("v,e,expected", [(5, 5, 120), (2, 1, 1), (4, 6, 120)])
def test_arrangement_bound_values(v, e, expected):
    assert sp.arrangement_bound(v, e) == expected


def test_arrangement_bound_matches_bruteforce():
    for e in range(1, 9):
        for v in range(2, e + 2):
            got = sp.arrangement_bound(v, e)
            expected = sum(1 for _ in itertools.permutations(range(e), v - 1))
            assert got == expected


def test_arrangement_bound_guard():
    with pytest.raises(sp.LimitExceededError):
        sp.arrangement_bound(4, 2)


# ------------------------------------------------------- tree enumeration

def test_counts_2a(q2a):
    graph, _ = q2a
    counts = sp.enumerate_ordered_trees(graph)
    assert counts == sp.TreeCounts(bound=120, valid=72, invalid=48, linear=36, bushy=36)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counts_chain_factorial(n):
    graph, _ = sp.gen_topology("chain", n, seed=0)
    counts = sp.enumerate_ordered_trees(graph)
    assert counts.valid == math.factorial(n - 1)
    assert counts.invalid == 0
    assert counts.bound == counts.valid
    assert counts.linear == 2 ** (n - 2)  # a growing path adds an edge at either end


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_counts_star_all_linear(n):
    graph, _ = sp.gen_topology("star", n, seed=0)
    counts = sp.enumerate_ordered_trees(graph)
    assert counts == sp.TreeCounts(*[math.factorial(n - 1)] * 2, 0, math.factorial(n - 1), 0)


@pytest.mark.parametrize("n", [3, 4, 6, 8, 10])
def test_counts_cycle(n):
    # Each of the n spanning paths in each of its (n-1)! orders; a linear
    # order opens with any edge and then grows its path at either end.
    graph, _ = sp.gen_topology("cycle", n, seed=0)
    counts = sp.enumerate_ordered_trees(graph)
    assert counts.valid == n * math.factorial(n - 1)
    assert counts.linear == n * 2 ** (n - 2)


@pytest.mark.parametrize("n", range(2, 17))
def test_counts_clique_cayley(n):
    # Cayley's n^(n-2) spanning trees, each in (n-1)! orders; a linear order
    # opens with any edge and then grows a k-table tree by any of n-k tables
    # over any of k edges.
    graph, _ = sp.gen_topology("clique", n, seed=0)
    counts = sp.enumerate_ordered_trees(graph)
    assert counts.valid == n ** (n - 2) * math.factorial(n - 1)
    assert counts.linear == math.factorial(n) * math.factorial(n - 1) // 2


def test_counts_triangle_all_linear():
    graph, _ = sp.gen_topology("cycle", 3, seed=0)
    counts = sp.enumerate_ordered_trees(graph)
    assert counts == sp.TreeCounts(bound=6, valid=6, invalid=0, linear=6, bushy=0)


def test_counts_sum_to_bound_across_topologies():
    for kind, n, graph, _ in mixed_instances(20, base_seed=50):
        counts = sp.enumerate_ordered_trees(graph)
        assert counts.valid + counts.invalid == counts.bound
        assert counts.linear + counts.bushy == counts.valid
        if graph.n_edges == graph.n_vertices - 1:  # acyclic
            assert counts.invalid == 0
            assert counts.valid == math.factorial(graph.n_vertices - 1)


@pytest.mark.parametrize("kind", ["chain", "cycle"])
def test_counts_25_tables_past_int64(kind):
    # Any 24 edges of either graph are a spanning path (one of chain-25's,
    # 25 of cycle-25's), each in 24! orders; a linear order opens with any
    # edge of the path and then grows it at either end.
    paths = {"chain": 1, "cycle": 25}[kind]
    graph, _ = sp.gen_topology(kind, 25, seed=0)
    t0 = time.perf_counter()
    counts = sp.enumerate_ordered_trees(graph)
    assert time.perf_counter() - t0 < 1.0
    every = paths * math.factorial(24)
    assert counts == sp.TreeCounts(every, every, 0, paths * 2**23, every - paths * 2**23)
    assert counts.valid > 2**63


def _star_with_chords(chords):
    # star-5 reaches the 15 connected sets that hold its centre and at least
    # one leaf; each chord between two leaves adds the set of its two ends.
    star, _ = sp.gen_topology("star", 5, seed=0)
    edges = star.edges + tuple(sp.JoinEdge(star.n_edges + i, u, v, f"t{u}.c = t{v}.c")
                               for i, (u, v) in enumerate(chords))
    return sp.JoinGraph(star.vertices, edges)


def test_counts_set_cap_boundary(monkeypatch):
    # The linear-order count reaches every connected set of two tables or
    # more.  The cap is a power of two, so one graph reaches exactly 16 sets
    # and the other one more than that.
    exact, over = _star_with_chords([(1, 2)]), _star_with_chords([(1, 2), (3, 4)])
    reached = [len(connected_subset_masks(g)) - g.n_vertices for g in (exact, over)]
    assert reached == [16, 17]
    uncapped = sp.enumerate_ordered_trees(exact)
    monkeypatch.setattr(trees, "SUBSET_ENUM_LIMIT", 4)
    assert sp.enumerate_ordered_trees(exact) == uncapped
    with pytest.raises(sp.LimitExceededError,
                       match="^the linear-order count reaches more than 16 connected table sets$"):
        sp.enumerate_ordered_trees(over)


def test_counts_lower_bound_refuses_before_the_first_clock_read(monkeypatch):
    # The over-cap graph above reaches 17 sets.  With its centre numbered 0,
    # each table with its higher-numbered neighbours spans 15 + 1 + 1 = 17
    # sets, so it is refused before any clock read.  Numbered in reverse,
    # the centre last, that bound is 8 and the centre's 2^4 - 1 = 15, so the
    # DP runs: it meets the past deadline at its first set, and without a
    # deadline refuses at its 17th.
    monkeypatch.setattr(trees, "SUBSET_ENUM_LIMIT", 4)
    over = _star_with_chords([(1, 2), (3, 4)])
    ends = [e.v1 for e in over.edges], [e.v2 for e in over.edges]
    reverse = [[4 - v for v in side] for side in ends]
    past = time.perf_counter() - 1.0
    message = "^the linear-order count reaches more than 16 connected table sets$"
    with pytest.raises(sp.LimitExceededError, match=message):
        trees.linear_orders(5, *ends, past)
    with pytest.raises(sp.OptimizeTimeout):
        trees.linear_orders(5, *reverse, past)
    with pytest.raises(sp.LimitExceededError, match=message):
        trees.linear_orders(5, *reverse)


def test_oracle_nan_timeout_is_rejected():
    # Small enough to finish at once if NaN were taken as no deadline.
    graph, model = sp.gen_topology("clique", 4, seed=0)
    with pytest.raises(ValueError):
        sp.brute_force_optimal(graph, model, timeout=float("nan"))


def test_one_table_graph(one_table):
    graph, catalog = one_table
    assert sp.enumerate_ordered_trees(graph) == sp.TreeCounts(1, 1, 0, 1, 0)
    plan, stats = sp.brute_force_optimal(graph, catalog)
    assert (plan.steps, plan.filters, plan.internal_cost) == ((), (), 0)
    assert stats.plans_enumerated == 1


def iter_ordered_trees(graph):
    """Yield (edge_sequence, valid, linear) for every ordered arrangement,
    invalid ones included, so use it only on small graphs."""
    n = graph.n_vertices
    for seq in itertools.permutations(range(graph.n_edges), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        valid = True
        linear = True
        touched = 0
        touched_cnt = 0
        for depth, eid in enumerate(seq, start=1):
            e = graph.edges[eid]
            ru, rv = find(e.v1), find(e.v2)
            if ru == rv:
                valid = False
                break
            parent[ru] = rv
            for v in (e.v1, e.v2):
                if not (touched >> v) & 1:
                    touched |= 1 << v
                    touched_cnt += 1
            if touched_cnt - depth != 1:
                linear = False
        yield seq, valid, (linear if valid else False)


def test_iter_ordered_trees_agrees_with_kernel(q2a):
    # q2a, and one small graph of each irregular kind
    graphs = [q2a[0]] + [irregular_graph(kind, 6, seed=7)[0] for kind in IRREGULAR_KINDS]
    for graph in graphs:
        seqs = list(iter_ordered_trees(graph))
        counts = sp.enumerate_ordered_trees(graph)
        assert len(seqs) == counts.bound
        assert sum(1 for _, valid, _ in seqs if valid) == counts.valid
        assert sum(1 for _, valid, linear in seqs if valid and linear) == counts.linear
        # Every valid arrangement uses |V|-1 distinct edges and no prefix
        # cycle; every invalid one closes a cycle somewhere.
        for seq, valid, _ in seqs:
            parent = list(range(graph.n_vertices))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            clean = True
            for eid in seq:
                e = graph.edges[eid]
                ru, rv = find(e.v1), find(e.v2)
                if ru == rv:
                    clean = False
                    break
                parent[ru] = rv
            assert clean == valid


# ------------------------------------------------------------ brute force

def test_brute_force_2a(q2a):
    graph, catalog = q2a
    plan, stats = sp.brute_force_optimal(graph, catalog)
    assert plan.internal_cost == 1_617_001.0
    assert stats.plans_enumerated == 72
    assert stats.subplans_reached == 14
    assert stats.join_costs_computed == 32
    exh, _ = sp.exhaustive(graph, catalog)
    assert plan.internal_cost == exh.internal_cost


def test_brute_force_two_table(two_table):
    graph, catalog = two_table
    plan, stats = sp.brute_force_optimal(graph, catalog)
    assert stats.plans_enumerated == 1
    assert len(plan.steps) == 1


def test_brute_force_matches_exhaustive_on_random_graphs():
    for kind, n, graph, model in mixed_instances(40, 4000) + irregular_instances(25, 4000):
        ctx = CostContext(graph, model)
        exh, _ = sp.exhaustive(graph, ctx)
        brute, _ = sp.brute_force_optimal(graph, ctx)
        assert exh.internal_cost == brute.internal_cost, (kind, n)
        sp.validate_plan(graph, brute, ctx)


def test_brute_force_lower_bounds_heuristics(q2a):
    graph, catalog = q2a
    ctx = CostContext(graph, catalog)
    brute, _ = sp.brute_force_optimal(graph, ctx)
    for name in ("prim", "kruskal", "goo", "este"):
        plan, _ = sp.run_algorithm(name, graph, ctx)
        assert brute.internal_cost <= plan.internal_cost


def test_brute_force_limit_guard():
    graph, model = sp.gen_topology("clique", 8, seed=1)
    with pytest.raises(sp.LimitExceededError):
        sp.brute_force_optimal(graph, model)


def test_the_oracle_refuses_more_than_64_joins_whatever_its_limit(compiled, monkeypatch):
    # The walk keeps its edge sets in one word.  clique-12 has 66 edges and
    # 66!/55! arrangements: refused before the bound is computed, and each
    # backend's kernel refuses the instance itself.
    graph, model = sp.gen_topology("clique", 12, seed=0)
    monkeypatch.setattr(sp.oracle, "arrangement_bound", None)
    with pytest.raises(sp.LimitExceededError) as info:
        sp.brute_force_optimal(graph, model, limit=10**30)
    assert str(info.value) == "66 edges exceed the oracle's limit of 64"
    inst = CostContext(graph, model).instance
    for backend in (_kernels.pure, compiled):
        with pytest.raises(ValueError, match="^brute_search walks at most 64 edges, not 66$"):
            backend.brute_search(inst)


def test_optimal_cost_overflow_is_a_limit_error(q2a_text):
    doc = json.loads(q2a_text)
    for key in doc["cardinalities"]:
        if "," in key:
            doc["cardinalities"][key] = 10**308
    graph, catalog = sp.load_document(json.dumps(doc))
    with pytest.raises(sp.LimitExceededError):
        sp.brute_force_optimal(graph, catalog)
    with pytest.raises(sp.LimitExceededError):
        sp.exhaustive(graph, catalog)
    plan, _stats = sp.este(graph, catalog)
    with pytest.raises(sp.LimitExceededError):
        sp.plan_to_json(plan, graph)
