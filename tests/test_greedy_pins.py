"""Plans and counters pinned before este shared per-state choices between
its members (prim, kruskal and este), and before the subset DP emitted its
own joins (goo and exhaustive).  The irregular graphs (conftest's
irregular_graph) were pinned while kruskal still kept a heap.

Every prim, kruskal, este, goo and exhaustive run on the graphs below must
keep its cost, step edges, plan tree and distinct-split counters.  Every
prim, kruskal and este run must also keep ``evaluations`` (its ``/evaluations``
key), the evaluations performed: this fixes how much pricing the shared
state memo saves.  They were pinned after the other counters, before prim
and kruskal became one member routine.

Regenerate the pins (only when a change is meant to alter plans) with

    PYTHONPATH=src python -m tests.test_greedy_pins --write
"""
import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import formula
from spanplan.cost import CostContext
from spanplan.plan import canonical_encoding

from .conftest import IRREGULAR_KINDS, irregular_graph, mixed_instances

PINS = Path(__file__).resolve().parent / "greedy_pins.json"
GRAPHS = [("clique", 6), ("clique", 8), ("clique", 10), ("clique", 12), ("star", 10),
          ("star", 14), ("cycle", 10), ("cycle", 16), ("chain", 10), ("chain", 16)]
IRREGULAR = [("tree", 12), ("chorded", 12), ("grid", 12), ("snowflake", 13), ("gnp", 10)]
SEEDS = (0, 1, 2)
# The unpruned DP is pinned on every graph but these, which take about 0.8 s
# a seed on the pure backend.
UNPRUNED_SKIPPED = {("clique", 12), ("star", 14)}


def _graph(kind: str, n: int, seed: int):
    if kind in IRREGULAR_KINDS:
        return irregular_graph(kind, n, seed)
    return sp.gen_topology(kind, n, seed)


def _digest(plan) -> str:
    enc = json.dumps(canonical_encoding(plan), separators=(",", ":"))
    return hashlib.sha256(enc.encode()).hexdigest()[:16]


def _entry(plan, stats, distinct) -> list:
    return [plan.internal_cost, plan.total_cost, [s.edge for s in plan.steps], _digest(plan),
            stats.subplans_reached, stats.join_costs_computed, distinct]


def _runs(kind: str, n: int, seed: int):
    """(key, entry) for este, goo and exhaustive (pruned by goo's bound, and
    unpruned unless skipped), and for prim and kruskal unseeded and from every start edge,
    on one generated graph; each este, prim and kruskal entry is followed by
    its evaluation count."""
    graph, model = _graph(kind, n, seed)
    name = f"{kind}-{n}-{seed}"
    runs = [("este", sp.este), ("goo", sp.goo), ("exhaustive", sp.exhaustive)]
    if (kind, n) not in UNPRUNED_SKIPPED:
        runs.append(("exhaustive-unpruned", functools.partial(sp.exhaustive, prune=False)))
    for algo, run in runs:
        plan, stats = run(graph, model)
        yield f"{name}/{algo}", _entry(plan, stats, stats.plans_enumerated)
        if algo == "este":
            yield f"{name}/{algo}/evaluations", stats.evaluations
    for algo, run in (("prim", sp.prim), ("kruskal", sp.kruskal)):
        for start in (None, *range(graph.n_edges)):
            plan, stats = run(graph, model, start_edge=start)
            suffix = "" if start is None else f"@{start}"
            yield f"{name}/{algo}{suffix}", _entry(plan, stats, stats.plans_enumerated)
            yield f"{name}/{algo}{suffix}/evaluations", stats.evaluations


def _all_runs() -> dict:
    return {key: entry for kind, n in GRAPHS + IRREGULAR for seed in SEEDS
            for key, entry in _runs(kind, n, seed)}


@pytest.mark.parametrize("kind,n", GRAPHS + IRREGULAR)
def test_greedy_runs_match_pins(kind, n):
    pins = json.loads(PINS.read_text())
    for seed in SEEDS:
        for key, entry in _runs(kind, n, seed):
            assert entry == pins[key], key


def test_goo_prices_each_split_once():
    for kind, n in GRAPHS + IRREGULAR:
        for seed in SEEDS:
            _plan, stats = sp.goo(*_graph(kind, n, seed))
            assert stats.evaluations == stats.join_costs_computed, (kind, n, seed)


def _tie_instance(indexed):
    """clique-8 with every cardinality 100, base tables and joins alike, so
    that almost every candidate join ties with another; table i is indexed
    when indexed(i)."""
    names = [f"t{i}" for i in range(8)]
    doc = {"tables": [{"name": name, "cardinality": 100, "indexed": indexed(i)}
                      for i, name in enumerate(names)],
           "joins": [{"left": a, "right": b} for a, b in itertools.combinations(names, 2)],
           "cardinalities": {",".join(subset): 100 for k in range(1, 9)
                             for subset in itertools.combinations(names, k)}}
    return sp.load_document(json.dumps(doc))


TIE_INSTANCES = {"none": lambda i: False, "even": lambda i: i % 2 == 0}
# Recorded before kruskal priced each neighbouring component once per
# state: este's [cost, plan digest, distinct plans], and kruskal's [cost,
# plan digest] unseeded and then from each start edge.
TIE_PINS = {
    "none": {
        "este": [1560.0, "1c15e866e77248ca", 28],
        "kruskal": [
            [1560.0, "1c15e866e77248ca"], [1560.0, "1c15e866e77248ca"], [1560.0, "146aaf0cff894e80"],
            [1560.0, "472872adbb43773d"], [1560.0, "bb368fc9ac3b868e"], [1560.0, "32b91547e64a9c18"],
            [1560.0, "17e34690abe1b0ca"], [1560.0, "ffba944851ce6726"], [1560.0, "a8192166c68831f7"],
            [1560.0, "11e1dfc8ab583b3d"], [1560.0, "6a7540fe9e99ad6a"], [1560.0, "bb36c63f3e624eb1"],
            [1560.0, "f84887015fbaa3eb"], [1560.0, "23ecd353bde2e762"], [1560.0, "54731a32dd2c8367"],
            [1560.0, "27e1f857eef04bff"], [1560.0, "ad1ca94fbef6d9a6"], [1560.0, "27aa8a80f7d515d5"],
            [1560.0, "37778beb5f32b57d"], [1560.0, "5076688dbff0970a"], [1560.0, "bba2d5aac49c010a"],
            [1560.0, "b550ea5257970673"], [1560.0, "41581bd29f7f2e7a"], [1560.0, "286e2cbc0dee1892"],
            [1560.0, "4c53730f135595ee"], [1560.0, "fde4a52f6c556380"], [1560.0, "88b21f1a90f1b1c2"],
            [1560.0, "d246599960a5a3f3"], [1560.0, "4001e4dc11ba2d6f"],
        ],
    },
    "even": {
        "este": [1480.0, "281461b25544bf14", 28],
        "kruskal": [
            [1500.0, "a4b1360fb1555c3d"], [1500.0, "91ea344c65fa1a9a"], [1500.0, "a4b1360fb1555c3d"],
            [1500.0, "43c4af445dc32745"], [1500.0, "0eed7a09ebaefaed"], [1500.0, "dd6d76ffc2f37303"],
            [1500.0, "81f977d3753c3995"], [1500.0, "9e22bab6d22d7f45"], [1480.0, "281461b25544bf14"],
            [1480.0, "d4855a9667d3538d"], [1480.0, "3d094644f8b3c1cb"], [1480.0, "acb52ae2bbcd632b"],
            [1480.0, "e3d56599ebb5f0b1"], [1480.0, "748f37e9a94f4016"], [1500.0, "152db13a22244b9f"],
            [1500.0, "737eb31834d8daa1"], [1500.0, "7664e29fe1be2e8a"], [1500.0, "99bc3d437b9888f0"],
            [1500.0, "f55ce0fd681132af"], [1480.0, "6cd1d9ac489571cc"], [1480.0, "481360be42afe1bb"],
            [1480.0, "dab4b00ff07ad9d9"], [1480.0, "3165748968b9e326"], [1500.0, "80e804f0dd3fa988"],
            [1500.0, "70879e8b51e8a9d0"], [1500.0, "dfe74c35eaae1e07"], [1480.0, "f464df744d208dd8"],
            [1480.0, "29284173d917ab6d"], [1500.0, "309fcdabcacdcf44"],
        ],
    },
}


@pytest.mark.parametrize("indexed", TIE_INSTANCES)
def test_kruskal_and_este_break_ties_as_pinned(indexed, compiled, monkeypatch):
    graph, catalog = _tie_instance(TIE_INSTANCES[indexed])
    pins = TIE_PINS[indexed]
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        plan, stats = sp.este(graph, catalog)
        assert [plan.internal_cost, _digest(plan), stats.plans_enumerated] == pins["este"]
        for start, pin in zip((None, *range(graph.n_edges)), pins["kruskal"], strict=True):
            plan, _stats = sp.kruskal(graph, catalog, start_edge=start)
            assert [plan.internal_cost, _digest(plan)] == pin, (backend.name, start)


# perfbench's greedy p90 graphs: este's greedy_search on each, as (cost,
# subplans, splits, evaluations, plans) and the winner's join edges, pinned
# before its neighbour walk read only the crossing edges.
P90_PINS = {
    ("clique", 14, 1): [196083.8, 2657, 5291, 9021, 139,
                        [66, 69, 17, 0, 1, 2, 3, 4, 6, 7, 8, 10, 11]],
    ("clique", 14, 4): [688078.6, 2643, 5025, 8720, 125,
                        [42, 37, 2, 0, 1, 3, 5, 6, 7, 8, 10, 11, 12]],
    ("clique", 15, 4): [66216.6, 3597, 7516, 12273, 175,
                        [100, 95, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 13]],
}


@pytest.mark.parametrize("topology", P90_PINS, ids=lambda t: "%s-%d-%d" % t)
def test_este_keeps_its_pins_on_the_p90_graphs(topology, compiled):
    graph, model = sp.gen_topology(*topology)
    runs = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL) for e in range(graph.n_edges)]
    for backend in (_kernels.pure, compiled):
        cost, joins, *counts = backend.greedy_search(CostContext(graph, model).instance, runs)
        assert [cost, *counts, [join[0] for join in joins]] == P90_PINS[topology], backend.name


def test_este_plan_is_the_cheapest_standalone_member():
    """The whole este plan, not only its cost, equals the standalone member
    that wins under the (internal_cost, canonical encoding) tie-break."""
    cases = [(graph, model) for _kind, _n, graph, model in mixed_instances(24, base_seed=1300)]
    cases += [sp.gen_topology(kind, n, seed=4) for kind, n in GRAPHS[:6]]
    for graph, model in cases:
        ctx = CostContext(graph, model)
        members = [run(graph, ctx, start_edge=e.id)[0]
                   for run in (sp.prim, sp.kruskal) for e in graph.edges]
        best = min(members, key=lambda p: (p.internal_cost, canonical_encoding(p)))
        plan, stats = sp.este(graph, ctx)
        assert plan == best._replace(algorithm="este")
        assert stats.plans_enumerated == len({canonical_encoding(p) for p in members})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_greedy_pins --write")
    pins = _all_runs()
    PINS.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pins.items())
                    + "\n}\n")
    print(f"wrote {len(pins)} pins to {PINS}")
