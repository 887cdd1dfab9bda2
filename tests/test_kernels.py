"""Equivalence of the pure-Python and compiled kernels.

The two backends must agree bit-for-bit: same costs, same reconstruction
choices, same counters.  When kernels.c is not built in place, or the
in-place build is older than kernels.c, the compiled backend is built into
a temporary directory with setup.py and opened from there; the tests skip
only when no C compiler is found.
"""
import ctypes
import math
import os
import subprocess
import sys
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import formula
from spanplan._kernels.loader import VERSION, _Problem, _problem, open_library
from spanplan.cost import CostContext
from spanplan.graph import connected_subset_masks, iter_bits
from spanplan.plan import replay

from .conftest import (IRREGULAR_KINDS, ROOT, SOURCE, _compiler, irregular_graph,
                       irregular_instances, mixed_instances)


def test_kernels_c_compiles_without_warnings(tmp_path):
    # -Wall names a static function or variable that nothing uses any more.
    proc = subprocess.run([*_compiler(), "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror",
                           "-ffp-contract=off", "-c", str(SOURCE), "-o", str(tmp_path / "kernels.o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Run in a process whose allocator ASan replaces: every kernel against pure
# on small graphs, a clique-12 walk stopped by its deadline, and masks
# check_masks refuses.
SANITIZED_RUN = """
import sys, time
import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import formula
from spanplan._kernels.loader import open_library
from spanplan.cost import CostContext
from spanplan.graph import connected_subset_masks
from tests.conftest import irregular_graph
from tests.test_kernels import BAD_MASKS

lib, pure = open_library(sys.argv[1]), _kernels.pure

def outcome(backend, kernel, *args):
    try:
        return getattr(backend, kernel)(*args)
    except (KeyError, ValueError, sp.SpanPlanError) as exc:
        return type(exc), exc.args

cases = [sp.gen_topology(kind, n, seed=n) for kind in ("chain", "cycle", "star", "clique")
         for n in (3, 4, 6)]
cases += [irregular_graph(kind, 6, seed=3) for kind in ("tree", "chorded", "grid", "gnp")]
for graph, model in cases:
    masks = connected_subset_masks(graph)
    catalog = sp.CardinalityCatalog(entries={m: model.lookup(graph, m) for m in masks[::2]})
    for source in (model, catalog):
        inst = CostContext(graph, source).instance
        runs = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL)
                for e in (None, *range(graph.n_edges))]
        calls = [("model_cards", inst, masks), ("greedy_search", inst, runs),
                 ("dp_search", inst, masks), ("brute_search", inst)]
        calls += [("merge", inst, 1 << e.v1, 1 << e.v2) for e in graph.edges]
        calls += [("merge", inst, m, graph.full_mask ^ m) for m in masks[:-1]]
        for call in calls:
            assert outcome(lib, *call) == outcome(pure, *call), call[0]
        if isinstance(source, sp.SelectivityModel):
            bound = lib.greedy_search(inst, runs)[0]
            assert lib.dp_search(inst, masks, bound) == pure.dp_search(inst, masks, bound)

graph, model = sp.gen_topology("clique", 12, seed=0)
try:
    lib.brute_search(CostContext(graph, model).instance, time.perf_counter() + 0.01)
    raise AssertionError("the clique-12 walk finished within 10 ms")
except sp.OptimizeTimeout:
    pass
inst = CostContext(*sp.gen_topology("chain", 5, seed=1)).instance
for kernel, calls in BAD_MASKS.items():
    for args in calls:
        assert outcome(lib, kernel, inst, *args)[0] is ValueError, (kernel, args)
print("ok")
"""


def test_every_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    cc = _compiler()
    runtime = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no libasan for the C compiler")
    library = tmp_path / "sanitized.so"
    subprocess.run([*cc, "-shared", "-fPIC", "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=all", "-fno-omit-frame-pointer", "-ffp-contract=off",
                    str(SOURCE), "-o", str(library), "-lm"], check=True)
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-4000:]


def test_problem_struct_has_one_size_in_c_and_ctypes(compiled):
    # The kernels write the fields they set past a ctypes struct that lacks them.
    assert compiled.problem_size == ctypes.sizeof(_Problem)


def _instance(graph, model):
    ctx = CostContext(graph, model)
    ctx.ensure_cards(connected_subset_masks(graph))
    return ctx.instance


def _joinable_pairs(graph):
    """Every (left, right) pair of disjoint connected subsets that an edge joins."""
    masks = connected_subset_masks(graph)
    return [(l, r) for l in masks for r in masks
            if not l & r and graph.crossing_edges(l, r) and graph.is_connected_mask(l | r)]


def test_merge_equivalence(q2a, compiled):
    for kind, n, graph, model in mixed_instances(12, base_seed=6000):
        inst = _instance(graph, model)
        for l, r in _joinable_pairs(graph):
            assert _kernels.pure.merge(inst, l, r) == compiled.merge(inst, l, r)
    # A catalog instance whose context has priced nothing: both backends
    # read the catalog, and neither fills the context's cardinalities.
    graph, catalog = q2a
    inst = CostContext(graph, catalog).instance
    assert _kernels.pure.merge(inst, 1, 2) == (1100001.0, 0, 1, 42000.0)
    for l, r in _joinable_pairs(graph):
        assert _kernels.pure.merge(inst, l, r) == compiled.merge(inst, l, r)
    assert inst.cards == {}


def test_merge_equivalence_on_equal_cardinalities(compiled):
    # Seeded models rarely tie; the hash-build side must break ties alike.
    inst = formula.Instance(
        n=3, edge_u=(0, 1), edge_v=(1, 2), scan=(2.0, 2.0, 2.0), indexed=(False,) * 3,
        lam=2.0, cards={1: 10.0, 2: 10.0, 4: 10.0, 3: 10.0, 6: 10.0, 7: 5.0},
        pair_inner={3: 1, 6: 2})
    for l, r in ((1, 2), (2, 1), (3, 4), (4, 3), (1, 6), (6, 1)):
        assert _kernels.pure.merge(inst, l, r) == compiled.merge(inst, l, r)


def _catalog(graph, model):
    """The model's cardinalities as a catalog of every connected subset."""
    return sp.CardinalityCatalog(
        entries={m: model.lookup(graph, m) for m in connected_subset_masks(graph)})


def _greedy_runs(graph):
    """Every member este runs, each prim and kruskal run unseeded, and the
    full ensemble, as greedy_search run lists."""
    members = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL)
               for e in range(graph.n_edges)]
    return [[run] for run in members] + [[(formula.PRIM, None)],
                                         [(formula.KRUSKAL, None)], members]


def test_greedy_search_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(16, 6400) + irregular_instances(25, 6400):
        for source in (model, _catalog(graph, model)):
            inst = CostContext(graph, source).instance
            for runs in _greedy_runs(graph):
                pure = _kernels.pure.greedy_search(inst, runs)
                assert pure == compiled.greedy_search(inst, runs), (kind, n, runs)
                assert len(pure[1]) == graph.n_vertices - 1
        assert not inst.cards, "greedy_search must not fill the context's cardinalities"


def test_greedy_search_on_one_table(one_table, compiled):
    graph, catalog = one_table
    inst = CostContext(graph, catalog).instance
    runs = [(formula.PRIM, None), (formula.KRUSKAL, None)]
    assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs) \
        == (0.0, [], 0, 0, 0, 1)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 10), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_greedy_search_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    inst = CostContext(graph, _catalog(graph, model) if full_catalog else model).instance
    for runs in _greedy_runs(graph):
        assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs), runs


# kernels.c keeps a union's first TAGS = 3 split tags in its card-memo slot
# and the rest in an overflow set.
INLINE_TAGS = 3


@pytest.mark.parametrize("kind, n, seed", [("cycle", 20, 5), ("clique", 15, 3), ("chain", 20, 3)])
def test_greedy_search_equivalence_past_the_inline_split_tags(kind, n, seed, compiled):
    graph, model = sp.gen_topology(kind, n, seed=seed)
    inst = CostContext(graph, model).instance
    runs = _greedy_runs(graph)[-1]
    search = _kernels.pure._Greedy(inst, 0.0)
    for run in runs:
        search.member(*run)
    assert max(map(len, search.tags.values())) > INLINE_TAGS
    assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs)


def test_greedy_members_record_the_join_a_fresh_merge_gives():
    # Each join a member records carries the operator and side, and adds up
    # to the total, that pricing its two sides afresh gives, whichever end
    # of the edge prim's component lies on.  The members share one search,
    # so later ones take stored choices too.
    for kind, n, graph, model in irregular_instances(15, base_seed=7300):
        inst = CostContext(graph, model).instance
        search = _kernels.pure._Greedy(inst, 0.0)
        for member in (formula.PRIM, formula.KRUSKAL):
            for start in (None, *range(graph.n_edges)):
                joins, total = search.member(member, start)
                cost_of = {1 << v: 0.0 for v in range(n)}
                for _eid, left, right, op, side in joins:
                    step, want_op, want_side, _out = _kernels.pure.merge(inst, left, right)
                    assert (op, side) == (want_op, want_side), (kind, n, member, start)
                    cost_of[left | right] = step + cost_of[left] + cost_of[right]
                assert cost_of[graph.full_mask] == total, (kind, n, member, start)


@pytest.mark.parametrize("kind, n, seed", [("clique", 14, 1), ("chain", 20, 0), ("star", 12, 7)])
def test_greedy_search_prices_each_evaluation_once(kind, n, seed, monkeypatch):
    # A member records the join it chose as its candidate priced it, so one
    # este search calls formula.merge exactly once per evaluation.
    graph, model = sp.gen_topology(kind, n, seed=seed)
    inst = CostContext(graph, model).instance
    calls = []
    real = _kernels.pure._merge
    monkeypatch.setattr(_kernels.pure, "_merge",
                        lambda *args: calls.append(args) or real(*args))
    evals = _kernels.pure.greedy_search(inst, _greedy_runs(graph)[-1])[4]
    assert len(calls) == evals


@pytest.mark.parametrize("runs", [[], [(formula.KRUSKAL, 3)], [(formula.PRIM, 7)],
                                  [(formula.KRUSKAL, -2)], [(formula.PRIM, -1)], [(2, None)],
                                  [(formula.PRIM, 0), (formula.KRUSKAL, 3)]])
def test_greedy_search_rejects_a_run_list_it_cannot_run_on_both_backends(runs, compiled):
    # chain-4 has edges 0..2; the C kernel would index its edge arrays by
    # the start, so a run list is checked before any C call.
    graph, model = sp.gen_topology("chain", 4, seed=0)
    inst = CostContext(graph, model).instance
    for backend in (_kernels.pure, compiled):
        with pytest.raises(ValueError, match="greedy_search"):
            backend.greedy_search(inst, runs)


class Raised(NamedTuple):
    """A SpanPlanError that a run raised.  A Plan is a tuple too, so errors
    are told apart by this type, not by being tuples."""

    type: type
    message: str


def _on_each_backend(compiled, monkeypatch, run):
    """What run() returns or raises on the pure and then the compiled backend."""
    outcomes = []
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        try:
            outcomes.append(run())
        except sp.SpanPlanError as exc:
            outcomes.append(Raised(type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("algo", ["prim", "kruskal", "este"])
def test_greedy_overflow_is_the_same_limit_error_on_both_backends(algo, compiled, monkeypatch):
    graph, model = sp.gen_topology("clique", 7, seed=1, base_range=(10**80, 10**81),
                                   sel_range=(0.5, 1.0))
    pure, fast = _on_each_backend(compiled, monkeypatch,
                                  lambda: sp.run_algorithm(algo, graph, model))
    assert pure == fast
    assert pure.type is sp.LimitExceededError and "overflows a float" in pure.message


@pytest.mark.parametrize("algo", ["prim", "kruskal", "este"])
def test_greedy_missing_entry_is_the_same_error_on_both_backends(algo, q2a, compiled,
                                                                  monkeypatch):
    # On 8 tables a member's components carry their cardinalities through
    # several joins before one of them is missed.
    irregular, model = irregular_graph("gnp", 8, 0)
    for graph, catalog in (q2a, (irregular, _catalog(irregular, model))):
        errors = 0
        for missing in (m for m in catalog.entries if m & (m - 1)):
            entries = {m: c for m, c in catalog.entries.items() if m != missing}
            source = sp.CardinalityCatalog(entries=entries)
            pure, fast = _on_each_backend(compiled, monkeypatch,
                                          lambda: sp.run_algorithm(algo, graph, source)[0])
            assert pure == fast
            if isinstance(pure, Raised):
                assert pure.type is sp.MissingCardinalityError
                assert graph.subset_key(missing) in pure.message
                errors += 1
        assert errors > 0, graph.n_vertices


def test_greedy_search_timeout_on_both_backends(compiled):
    graph, model = sp.gen_topology("clique", 6, seed=0)
    inst = CostContext(graph, model).instance
    runs = _greedy_runs(graph)[-1]
    for backend in (_kernels.pure, compiled):
        with pytest.raises(sp.OptimizeTimeout):
            backend.greedy_search(inst, runs, deadline=1e-9)


def test_dp_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(20, 6100) + irregular_instances(25, 6100):
        inst = _instance(graph, model)
        masks = connected_subset_masks(graph)
        for bound in (math.inf, sp.goo(graph, model)[0].internal_cost):
            assert _kernels.pure.dp_search(inst, masks, bound) == \
                compiled.dp_search(inst, masks, bound), (kind, n, bound)


def test_brute_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(16, 6200) + irregular_instances(25, 6200):
        inst = _instance(graph, model)
        pure = _kernels.pure.brute_search(inst)
        fast = compiled.brute_search(inst)
        assert pure == fast


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 10), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_dp_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    source = _catalog(graph, model) if full_catalog else model
    inst = _instance(graph, source)
    masks = connected_subset_masks(graph)
    for bound in (math.inf, sp.goo(graph, source)[0].internal_cost):
        assert _kernels.pure.dp_search(inst, masks, bound) == \
            compiled.dp_search(inst, masks, bound), bound


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 7), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_brute_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    inst = _instance(graph, _catalog(graph, model) if full_catalog else model)
    assert _kernels.pure.brute_search(inst) == compiled.brute_search(inst)


def _naive_greedy(inst, graph, kind, start):
    """prim's or kruskal's joins by the definition: at every step, price
    every pair of adjacent components anew over the lowest edge between
    them, and join the cheapest pair, ties going to the lowest edge.  prim
    only considers pairs that hold its component; kruskal joins a pair as
    its edge's (v1 side, v2 side)."""
    comp_of = [1 << v for v in range(graph.n_vertices)]
    joins = []

    def join(eid, left, right):
        joins.append((eid, left, right))
        for v in iter_bits(left | right):
            comp_of[v] = left | right

    def candidates(holding):
        lowest = {}
        for e in graph.edges:
            a, b = comp_of[e.v1], comp_of[e.v2]
            if a != b and (a | b) & holding and (a | b) not in lowest:
                lowest[a | b] = e
        return [(_kernels.pure.merge(inst, comp_of[e.v1], comp_of[e.v2])[0], e.id)
                for e in lowest.values()]

    component = 0  # prim's component, once it has one
    if start is not None:
        edge = graph.edges[start]
        join(start, 1 << edge.v1, 1 << edge.v2)
        component = comp_of[edge.v1]
    while comp_of[0] != graph.full_mask:
        prim = kind == formula.PRIM and component
        _cost, eid = min(candidates(component if prim else graph.full_mask))
        edge = graph.edges[eid]
        left, right = comp_of[edge.v1], comp_of[edge.v2]
        if prim and right == component:
            left, right = right, left  # prim joins (its component, the new table)
        join(eid, left, right)
        component = left | right
    return joins


def test_greedy_joins_match_a_reference_that_reprices_every_pair_at_every_step(compiled):
    cases = [irregular_graph(kind, n, seed) for kind in IRREGULAR_KINDS for n in (5, 9, 12)
             for seed in range(2)]
    cases += [(graph, model) for _kind, _n, graph, model in mixed_instances(12, base_seed=7100)]
    for graph, model in cases:
        inst = CostContext(graph, model).instance
        for kind in (formula.PRIM, formula.KRUSKAL):
            for start in (None, *range(graph.n_edges)):
                naive = _naive_greedy(inst, graph, kind, start)
                for backend in (_kernels.pure, compiled):
                    assert backend.greedy_search(inst, [(kind, start)])[1] == naive, \
                        (backend.name, kind, start)


def _searches(backend, graph, model):
    """Each search kernel's result on one instance, by the algorithm whose
    plan it finds."""
    inst = _instance(graph, model)
    greedy = CostContext(graph, model).instance
    return {"este": backend.greedy_search(greedy, _greedy_runs(graph)[-1]),
            "exhaustive": backend.dp_search(inst, connected_subset_masks(graph)),
            "brute_force": backend.brute_search(inst)}


def test_search_kernels_return_cost_then_joins_of_their_two_sides(compiled):
    for kind, n, graph, model in mixed_instances(16, base_seed=6500):
        for backend in (_kernels.pure, compiled):
            for algorithm, (cost, joins, *_counters) in _searches(backend, graph, model).items():
                assert len(joins) == n - 1, (backend.name, algorithm)
                components = {1 << v for v in range(n)}
                for edge, left, right in joins:
                    ends = 1 << graph.edges[edge].v1 | 1 << graph.edges[edge].v2
                    assert left in components and right in components and left != right
                    assert ends & left and ends & right
                    components -= {left, right}
                    components.add(left | right)
                assert components == {graph.full_mask}
                plan = replay(graph, CostContext(graph, model), algorithm, joins, cost)
                assert plan.internal_cost == cost
                with pytest.raises(sp.SpanPlanError):
                    replay(graph, CostContext(graph, model), algorithm, joins, 2 * cost)


def test_search_kernels_keep_the_result_positions_perfbench_reads(q2a, compiled):
    # The perfbench tracer reads dp_search's root cost at [0], subplans at
    # [2] and splits at [3], and the valid arrangements at brute_search's [2]
    # and count_trees' [0].
    cases = [q2a] + [(graph, model) for _k, _n, graph, model in mixed_instances(8, 6600)]
    for graph, source in cases:
        exhaustive, ex_stats = sp.exhaustive(graph, source, prune=False)
        brute, brute_stats = sp.brute_force_optimal(graph, source)
        trees = sp.enumerate_ordered_trees(graph)
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        for backend in (_kernels.pure, compiled):
            inst = _instance(graph, source)
            dp = backend.dp_search(inst, connected_subset_masks(graph))
            assert (dp[0], dp[2], dp[3]) == (exhaustive.internal_cost, ex_stats.subplans_reached,
                                             ex_stats.join_costs_computed)
            walk = backend.brute_search(inst)
            assert walk[0] == brute.internal_cost == exhaustive.internal_cost
            assert walk[2] == brute_stats.plans_enumerated == trees.valid
            assert backend.count_trees(graph.n_vertices, edge_u, edge_v)[0] == trees.valid
    graph, catalog = q2a
    dp = compiled.dp_search(_instance(graph, catalog), connected_subset_masks(graph))
    assert (dp[0], dp[2], dp[3]) == (1_617_001, 14, 32)
    assert [edge for edge, _left, _right in dp[1]] == [0, 3, 4, 1]


def test_count_trees_equals_the_counts_of_the_brute_walk(compiled):
    # count_trees counts in closed form; brute_search walks every
    # arrangement and returns (valid, linear) at [2:4].
    cases = mixed_instances(16, base_seed=6300) + irregular_instances(25, base_seed=6350)
    for kind, n, graph, model in cases:
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        inst = _instance(graph, model)
        for backend in (_kernels.pure, compiled):
            assert backend.count_trees(n, edge_u, edge_v) == backend.brute_search(inst)[2:4], \
                (backend.name, kind, n)


def test_count_trees_is_exact_past_int64_on_both_backends(compiled, monkeypatch):
    graph, _ = sp.gen_topology("chain", 25, seed=0)
    every = math.factorial(24)  # every order of the 24 edges is a spanning tree
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        t0 = time.perf_counter()
        counts = sp.enumerate_ordered_trees(graph, limit=every)
        assert time.perf_counter() - t0 < 1.0, backend.name
        assert counts == sp.TreeCounts(every, every, 0, 2**23, every - 2**23)
    assert counts.valid > 2**63


def test_count_trees_stops_at_its_deadline_on_both_backends(compiled):
    # The linear-order DP reaches 65,519 vertex sets of clique-16, far more
    # than it visits in 20 ms, and reads the clock every 4096 of them.
    graph, _ = sp.gen_topology("clique", 16, seed=0)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    for backend in (_kernels.pure, compiled):
        t0 = time.perf_counter()
        with pytest.raises(sp.OptimizeTimeout):
            backend.count_trees(16, edge_u, edge_v, deadline=t0 + 0.02)
        assert time.perf_counter() - t0 < 1.0, backend.name


def test_full_pipeline_equivalence(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    results = {}
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        results[backend.name] = (sp.exhaustive(graph, catalog)[0],
                                 sp.brute_force_optimal(graph, catalog)[0])
    assert results["pure"] == results["compiled"]


def test_missing_cardinality_raises_key_error_on_both_backends(compiled):
    # A catalog is read as it is: a mask absent from it is missing, even
    # when the context holds it.
    graph, model = sp.gen_topology("cycle", 6, seed=3)
    missing = 0b000111
    entries = {m: c for m, c in _catalog(graph, model).entries.items() if m != missing}
    inst = CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance
    inst.cards[missing] = float(model.lookup(graph, missing))
    masks = connected_subset_masks(graph)
    for kernel, args in (("dp_search", (inst, masks)), ("brute_search", (inst,)),
                         ("model_cards", (inst, masks))):
        for backend in (_kernels.pure, compiled):
            with pytest.raises(KeyError) as info:
                getattr(backend, kernel)(*args)
            assert info.value.args == (missing,), (kernel, backend.name)


def test_a_missing_join_result_is_named_before_its_missing_side_on_both_backends(q2a, compiled):
    # Without {mk} and {mk,k}, the join of mk and k misses both: every
    # kernel reads the result's cardinality first, as CostContext.merge does.
    graph, catalog = q2a
    entries = {m: c for m, c in catalog.entries.items() if m not in (0b01, 0b11)}
    inst = CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance
    runs = _greedy_runs(graph)[-1]
    for kernel, args in (("merge", (inst, 0b01, 0b10)), ("brute_search", (inst,)),
                         ("greedy_search", (inst, runs))):
        for backend in (_kernels.pure, compiled):
            with pytest.raises(KeyError) as info:
                getattr(backend, kernel)(*args)
            assert info.value.args == (0b11,), (kernel, backend.name)


def _card_reads(backend, graph, inst, masks):
    """What each kernel that reads cardinalities returns on inst."""
    return (backend.dp_search(inst, masks), backend.brute_search(inst),
            backend.model_cards(inst, masks), backend.greedy_search(inst, _greedy_runs(graph)[-1]))


def test_kernels_compute_model_masks_the_context_lacks_and_leave_it_as_it_was(compiled):
    for kind, n, graph, model in mixed_instances(8, base_seed=6700):
        masks = connected_subset_masks(graph)
        full = _instance(graph, model)
        lacking = _instance(graph, model)
        del lacking.cards[graph.full_mask]
        empty = CostContext(graph, model).instance
        before = [dict(inst.cards) for inst in (full, lacking, empty)]
        # A model's kernels are shipped none of the context's cardinalities.
        assert full.known_cards() == {} and _problem(full).n_cards == 0
        want = _card_reads(_kernels.pure, graph, full, masks)
        for backend in (_kernels.pure, compiled):
            for inst in (full, lacking, empty):
                assert _card_reads(backend, graph, inst, masks) == want, (kind, n, backend.name)
        assert [inst.cards for inst in (full, lacking, empty)] == before, \
            "a kernel must not fill the context's cardinalities"


def test_dp_search_reads_a_subset_cardinality_only_to_price_a_split(compiled):
    # Under a bound of 0.0 only the two-table subsets are priced: every split
    # of a larger subset has a side that costs more.  So a three-table
    # subset's missing cardinality is never read, and a pair's is.
    graph, model = sp.gen_topology("cycle", 6, seed=3)
    masks = connected_subset_masks(graph)
    for missing, want in ((0b000111, (math.inf, [], 6, 6)), (0b000011, Raised(KeyError, "3"))):
        entries = {m: c for m, c in _catalog(graph, model).entries.items() if m != missing}
        inst = CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance
        for backend in (_kernels.pure, compiled):
            try:
                got = backend.dp_search(inst, masks, prune_bound=0.0)
            except KeyError as exc:
                got = Raised(KeyError, str(exc))
            assert got == want, (missing, backend.name)


def test_dp_search_breaks_equal_totals_toward_the_largest_left_side_holding_the_lowest_table(
        compiled):
    # A triangle with every cardinality equal: the three splits of the root
    # into a pair and a table all total 43.0.  DPsub's rule keeps the first
    # of them in descending order of the left side, {0, 2} | {1}.
    inst = formula.Instance(
        n=3, edge_u=(0, 0, 1), edge_v=(1, 2, 2), scan=(1.0, 1.0, 1.0), indexed=(False,) * 3,
        lam=2.0, cards={m: 10.0 for m in range(1, 8)}, pair_inner={3: 1, 5: 2, 6: 2})
    step = _kernels.pure.merge
    assert {step(inst, l, r)[0] for l, r in ((0b001, 0b010), (0b001, 0b100), (0b010, 0b100))} \
        == {22.0}
    assert {step(inst, s1, 0b111 ^ s1)[0] for s1 in (0b101, 0b011, 0b001)} == {21.0}
    for backend in (_kernels.pure, compiled):
        assert backend.dp_search(inst, range(1, 8)) == (
            43.0, [(1, 0b001, 0b100), (0, 0b101, 0b010)], 4, 6)


def test_timeouts_raise_optimize_timeout_on_both_backends(compiled):
    graph, model = sp.gen_topology("clique", 11, seed=0)  # over 1024 subsets, 4096 nodes
    inst = _instance(graph, model)
    masks = connected_subset_masks(graph)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    for backend in (_kernels.pure, compiled):
        with pytest.raises(sp.OptimizeTimeout):
            backend.dp_search(inst, masks, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.brute_search(inst, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.count_trees(graph.n_vertices, edge_u, edge_v, deadline=1e-9)


# Calls of the kernels that take masks with masks formula.check_masks refuses:
# past the instance's tables, zero, or (merge) overlapping sides.  The C
# kernels index per-table arrays by masks and their memo keeps mask 0 for a
# free slot, so without the check they read past the model's bases, or a
# free slot's value.
BAD_MASKS = {
    "merge": [(1 << 20, 1), (1, 1 << 5), (0, 1), (0b11, 0b110)],
    "model_cards": [([1 << 20],), ([0],), ([1, 2, 1 << 5],)],
    "dp_search": [([1, 2, 3, 1 << 20],), ([0, 1, 2, 3],), ([1, 2, 3, 1 << 5],)],
}


@pytest.mark.parametrize("kernel", BAD_MASKS)
@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_reject_masks_outside_the_instance(backend, kernel, request):
    graph, model = sp.gen_topology("chain", 5, seed=1)
    inst = _instance(graph, model)
    run = getattr(request.getfixturevalue("compiled") if backend == "compiled"
                  else _kernels.pure, kernel)
    for args in BAD_MASKS[kernel]:
        with pytest.raises(ValueError, match="subsets of the instance's 5 tables"):
            run(inst, *args)


def test_backend_selection():
    assert _kernels.get_backend("pure") is _kernels.pure
    auto = _kernels.get_backend("auto")
    assert auto.name == _kernels.DEFAULT_BACKEND
    assert auto is _kernels.get_backend(_kernels.DEFAULT_BACKEND)
    with pytest.raises(ValueError):
        _kernels.get_backend("nope")



# Ways a built library can fail to match the loader, as edits to kernels.c.
_VERSION_LINE = f"const int sp_version = {VERSION};"
STALE_EDITS = {
    "built before it had a version": (_VERSION_LINE + "\n", ""),
    "another version": (_VERSION_LINE, f"const int sp_version = {VERSION - 1};"),
    "another problem struct": ("    int words;", "    double extra;\n    int words;"),
}


@pytest.fixture(scope="module")
def stale_libraries(tmp_path_factory):
    """A library built in a temporary directory from each of STALE_EDITS."""
    source = SOURCE.read_text()
    out = tmp_path_factory.mktemp("stale")
    paths = {}
    for i, (edit, (old, new)) in enumerate(STALE_EDITS.items()):
        assert source.count(old) == 1, edit
        c_file, paths[edit] = out / f"stale{i}.c", out / f"stale{i}.so"
        c_file.write_text(source.replace(old, new))
        subprocess.run([*_compiler(), "-shared", "-fPIC", "-ffp-contract=off", str(c_file),
                        "-o", str(paths[edit]), "-lm"], check=True)
    return paths


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_a_stale_library_is_refused_at_open_with_one_line_naming_the_rebuild(edit,
                                                                             stale_libraries):
    with pytest.raises(_kernels.StaleLibraryError) as info:
        open_library(stale_libraries[edit])
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"kernel library {stale_libraries[edit]} ")
    assert message.endswith("; rebuild it with: python3 setup.py build_ext --inplace")


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_auto_falls_back_to_pure_on_a_stale_library_and_compiled_refuses_it(edit,
                                                                            stale_libraries,
                                                                            monkeypatch):
    monkeypatch.setattr(_kernels, "_LIBRARY", str(stale_libraries[edit]))
    monkeypatch.setattr(_kernels, "HAVE_COMPILED", True)
    monkeypatch.setattr(_kernels, "_compiled", None)
    monkeypatch.setattr(_kernels, "_auto", None)
    assert _kernels.get_backend("auto") is _kernels.pure
    assert _kernels.DEFAULT_BACKEND == sp.DEFAULT_BACKEND == "pure"
    with pytest.raises(_kernels.StaleLibraryError, match="rebuild it with"):
        _kernels.get_backend("compiled")


def test_import_defers_ctypes_until_a_kernel_runs():
    code = ("import sys, spanplan; before = 'ctypes' in sys.modules; "
            "spanplan.enumerate_ordered_trees(spanplan.gen_topology('chain', 3, 0)[0]); "
            "print(before, 'ctypes' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout == f"False {_kernels.HAVE_COMPILED}\n"


@pytest.mark.parametrize("kind,n,seed,base_range,sel_range,top", [
    ("chain", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("cycle", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("star", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("clique", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    # Near the float limit: the largest finite products reach top (past
    # 1e303 on the cycle and the star), and the largest subsets overflow.
    ("chain", 16, 3, (10**19, 10**20), (0.5, 1.0), 1e293),
    ("cycle", 16, 3, (10**19, 10**21), (0.5, 1.0), 1e303),
    ("star", 14, 5, (10**22, 10**24), (0.5, 1.0), 1e303),
    ("clique", 12, 3, (10**24, 10**27), (0.2, 1.0), 1e274),
])
def test_model_cards_equivalence(kind, n, seed, base_range, sel_range, top, compiled):
    graph, model = sp.gen_topology(kind, n, seed=seed, base_range=base_range, sel_range=sel_range)
    inst = CostContext(graph, model).instance
    masks = connected_subset_masks(graph)
    finite, want, overflowed = [], [], []
    for mask in masks:
        try:
            want.append(float(model.lookup(graph, mask)))
            finite.append(mask)
        except sp.LimitExceededError:
            overflowed.append(mask)
    assert _kernels.pure.model_cards(inst, finite) == compiled.model_cards(inst, finite) == want
    assert max(want) > top
    assert bool(overflowed) == (top > 0)
    for backend in (_kernels.pure, compiled):
        if overflowed:
            with pytest.raises(KeyError) as info:
                backend.model_cards(inst, masks)
            assert info.value.args == (overflowed[0],)
        assert backend.model_cards(inst, []) == []


@pytest.mark.parametrize("search", ["exhaustive", "brute_force_optimal"])
def test_overflowing_model_is_the_per_mask_limit_error_on_both_backends(search, compiled,
                                                                        monkeypatch):
    # The first connected subset, in ascending mask order, whose estimate
    # overflows names the error, as when each mask was looked up in turn.
    graph, model = sp.gen_topology("cycle", 8, seed=2, base_range=(10**80, 10**81),
                                   sel_range=(0.5, 1.0))
    want = None
    for mask in connected_subset_masks(graph):
        try:
            model.lookup(graph, mask)
        except sp.LimitExceededError as exc:
            want = Raised(sp.LimitExceededError, str(exc))
            break
    assert want is not None
    outcomes = _on_each_backend(compiled, monkeypatch,
                                lambda: getattr(sp, search)(graph, model)[0])
    assert outcomes == [want, want]


def test_ensure_cards_calls_model_cards_once_and_never_for_a_catalog(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    model_graph, model = sp.gen_topology("clique", 6, seed=4)
    for backend in (_kernels.pure, compiled):
        calls = []
        real = backend.model_cards
        monkeypatch.setattr(backend, "model_cards",
                            lambda inst, masks: calls.append(len(masks)) or real(inst, masks))
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        ctx = CostContext(model_graph, model)
        masks = connected_subset_masks(model_graph)
        ctx.ensure_cards(iter(masks))
        assert calls == [len(masks)]
        assert ctx.instance.cards == {m: float(model.lookup(model_graph, m)) for m in masks}
        del calls[:]
        assert sp.exhaustive(graph, catalog)[0].internal_cost == 1_617_001
        sp.brute_force_optimal(graph, catalog)
        assert calls == []
