"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Budgets assume the compiled kernels are installed.
"""
import math
import statistics
import time

import pytest

import spanplan as sp
from spanplan.bench import growth_exponent
from spanplan.cli import main
from spanplan.cost import CostContext

from .conftest import DATA_DIR, mixed_instances

Q2A = str(DATA_DIR / "query_2a.json")


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# -------------------------------------------------------------- criterion 1

def test_criterion_1_structural_counts(q2a):
    t0 = time.perf_counter()
    graph, _ = q2a
    counts = sp.enumerate_ordered_trees(graph)
    subsets = [s for s in sp.connected_subsets(graph) if len(s) > 1]
    elapsed = time.perf_counter() - t0
    assert counts.bound == 120
    assert counts.valid == 72
    assert counts.invalid == 48
    assert counts.linear == 36
    assert counts.bushy == 36
    assert len(subsets) == 14
    assert elapsed < 1.0
    _report("1 structural counts", f"bound=120 valid=72 linear=36 bushy=36 subsets=14 in {elapsed:.3f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_reference_costs(q2a):
    t0 = time.perf_counter()
    graph, catalog = q2a
    ctx = CostContext(graph, catalog)
    exh, _ = sp.exhaustive(graph, ctx)
    kru, _ = sp.kruskal(graph, ctx)
    pri, _ = sp.prim(graph, ctx)
    est, _ = sp.este(graph, ctx)
    elapsed = time.perf_counter() - t0
    assert abs(exh.internal_cost - 1.6e6) <= 0.10 * 1.6e6
    assert abs(kru.internal_cost - 2.4e6) <= 0.10 * 2.4e6
    assert abs(pri.internal_cost - 4.6e6) <= 0.10 * 4.6e6
    assert est.internal_cost <= kru.internal_cost
    assert exh.internal_cost <= est.internal_cost <= kru.internal_cost <= pri.internal_cost
    assert elapsed < 1.0
    _report(
        "2 reference costs",
        f"exhaustive={exh.internal_cost:.0f} este={est.internal_cost:.0f} "
        f"kruskal={kru.internal_cost:.0f} prim={pri.internal_cost:.0f} in {elapsed:.3f}s",
    )


# ------------------------------------------------------- criteria 3 and 4

@pytest.fixture(scope="module")
def equivalence_run():
    """One shared pass over 200 seeded mixed-topology graphs."""
    t0 = time.perf_counter()
    rows = []
    for kind, n, graph, model in mixed_instances(200, base_seed=1000):
        ctx = CostContext(graph, model)
        exh, _ = sp.exhaustive(graph, ctx)
        brute, _ = sp.brute_force_optimal(graph, ctx)
        pri, _ = sp.prim(graph, ctx)
        kru, _ = sp.kruskal(graph, ctx)
        go, _ = sp.goo(graph, ctx)
        est, _ = sp.este(graph, ctx)
        plans = {"exhaustive": exh, "prim": pri, "kruskal": kru, "goo": go, "este": est}
        for plan in plans.values():
            sp.validate_plan(graph, plan, ctx)
        rows.append((kind, n, brute.internal_cost, plans))
    return rows, time.perf_counter() - t0


def test_criterion_3_oracle_equivalence(equivalence_run):
    rows, elapsed = equivalence_run
    assert len(rows) == 200
    for kind, n, brute_cost, plans in rows:
        assert plans["exhaustive"].internal_cost == brute_cost, (kind, n)
    assert elapsed < 120.0
    _report("3 oracle equivalence", f"200/200 exact matches in {elapsed:.1f}s")


def test_criterion_4_ensemble_dominance(equivalence_run):
    rows, _elapsed = equivalence_run
    for kind, n, _brute, plans in rows:
        bound = min(plans["prim"].internal_cost, plans["kruskal"].internal_cost)
        assert plans["este"].internal_cost <= bound, (kind, n)
    _report("4 ensemble dominance", "este <= min(prim, kruskal) on 200/200; all plans validated")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_counting_formulas():
    def catalan(n):
        row = [1]
        for _ in range(2 * n):
            row = [a + b for a, b in zip([0] + row, row + [0])]
        return row[n] // (n + 1)

    import itertools

    for n in range(1, 9):
        assert sp.binary_tree_space_size(n) == catalan(n) * math.factorial(n)
    for e in range(1, 9):
        for v in range(2, e + 2):
            brute = sum(1 for _ in itertools.permutations(range(e), v - 1))
            assert sp.arrangement_bound(v, e) == brute

    checked = 0
    for kind, n, graph, _model in mixed_instances(40, base_seed=52):
        counts = sp.enumerate_ordered_trees(graph)
        assert counts.valid + counts.invalid == counts.bound
        if graph.n_edges == graph.n_vertices - 1:
            assert counts.valid == math.factorial(graph.n_vertices - 1)
        checked += 1
    _report("5 counting formulas", f"exact for n<=8 and {checked} graphs")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_complexity_guardrail():
    t0 = time.perf_counter()
    sizes, prim_evals, este_evals = [], [], []
    for n in range(4, 10):
        graph, model = sp.gen_topology("clique", n, seed=0)
        ctx = CostContext(graph, model)
        _, pstats = sp.prim(graph, ctx)
        _, estats = sp.este(graph, ctx)
        sizes.append(graph.n_edges)
        prim_evals.append(pstats.evaluations)
        este_evals.append(estats.evaluations)
    prim_slope, prim_r2 = growth_exponent(sizes, prim_evals)
    este_slope, este_r2 = growth_exponent(sizes, este_evals)
    elapsed = time.perf_counter() - t0
    assert prim_slope <= 2.5 and prim_r2 >= 0.95
    assert este_slope <= 3.5 and este_r2 >= 0.95
    assert elapsed < 60.0
    _report(
        "6 complexity guardrail",
        f"prim slope {prim_slope:.2f} (R2 {prim_r2:.3f}), este slope {este_slope:.2f} "
        f"(R2 {este_r2:.3f}) in {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 7

def test_criterion_7_synthetic_quality():
    este_ratios, goo_ratios = [], []
    for i in range(100):
        kind = "clique" if i % 2 == 0 else "cycle"
        n = 6 + (i // 2) % 2
        graph, model = sp.gen_topology(kind, n, seed=5000 + i)
        ctx = CostContext(graph, model)
        exh, _ = sp.exhaustive(graph, ctx)
        est, _ = sp.este(graph, ctx)
        go, _ = sp.goo(graph, ctx)
        este_ratios.append(est.internal_cost / exh.internal_cost)
        goo_ratios.append(go.internal_cost / exh.internal_cost)
    med_este = statistics.median(este_ratios)
    med_goo = statistics.median(goo_ratios)
    within = sum(1 for r in este_ratios if r <= 1.5) / len(este_ratios)
    assert med_este <= med_goo
    assert within >= 0.80
    _report(
        "7 synthetic quality",
        f"median este {med_este:.3f} <= median goo {med_goo:.3f}; "
        f"este<=1.5 on {within:.0%} of 100 graphs",
    )


# -------------------------------------------------------------- criterion 8

def test_criterion_8_cli_determinism(capsys, tmp_path):
    invocations = {
        "optimize": ["optimize", "--graph", Q2A, "--algo", "este"],
        "count": ["count", "--graph", Q2A],
        "gen": ["gen", "--topology", "star", "--tables", "6", "--seed", "9"],
    }
    for name, argv in invocations.items():
        runs = []
        for _ in range(2):
            assert main(list(argv)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs.append(captured.out.encode())
        assert runs[0] == runs[1], name

    for i in (1, 2):
        csv_path = tmp_path / f"b{i}.csv"
        assert main(["bench", "--graph", Q2A, "--out", str(csv_path)]) == 0
        capsys.readouterr()
    assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()
    _report("8 cli determinism", "byte-identical reruns of optimize, count, gen and bench")
