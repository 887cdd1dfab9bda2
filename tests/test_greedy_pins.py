"""Plans and counters pinned before este shared per-state choices between
its members (prim, kruskal and este), and before the subset DP emitted its
own joins (goo and exhaustive).

Every prim, kruskal, este, goo and exhaustive run on the graphs below must
keep its cost, step edges, plan tree and distinct-split counters.
``evaluations`` is not pinned: it counts the evaluations performed, which
the shared memo cuts.

Regenerate the pins (only when a change is meant to alter plans) with

    PYTHONPATH=src python -m tests.test_greedy_pins --write
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

import spanplan as sp
from spanplan.cost import CostContext
from spanplan.plan import canonical_encoding

from .conftest import mixed_instances

PINS = Path(__file__).resolve().parent / "greedy_pins.json"
GRAPHS = [("clique", 6), ("clique", 8), ("clique", 10), ("clique", 12), ("star", 10),
          ("star", 14), ("cycle", 10), ("cycle", 16), ("chain", 10), ("chain", 16)]
SEEDS = (0, 1, 2)


def _digest(plan) -> str:
    enc = json.dumps(canonical_encoding(plan), separators=(",", ":"))
    return hashlib.sha256(enc.encode()).hexdigest()[:16]


def _entry(plan, stats, distinct) -> list:
    return [plan.internal_cost, plan.total_cost, [s.edge for s in plan.steps], _digest(plan),
            stats.subplans_reached, stats.join_costs_computed, distinct]


def _runs(kind: str, n: int, seed: int):
    """(key, entry) for este, goo and exhaustive, and for prim and kruskal
    unseeded and from every start edge, on one generated graph."""
    graph, model = sp.gen_topology(kind, n, seed)
    name = f"{kind}-{n}-{seed}"
    for algo, run in (("este", sp.este), ("goo", sp.goo), ("exhaustive", sp.exhaustive)):
        plan, stats = run(graph, model)
        yield f"{name}/{algo}", _entry(plan, stats, stats.plans_enumerated)
    for algo, run in (("prim", sp.prim), ("kruskal", sp.kruskal)):
        for start in (None, *range(graph.n_edges)):
            plan, stats = run(graph, model, start_edge=start)
            suffix = "" if start is None else f"@{start}"
            yield f"{name}/{algo}{suffix}", _entry(plan, stats, stats.plans_enumerated)


def _all_runs() -> dict:
    return {key: entry for kind, n in GRAPHS for seed in SEEDS for key, entry in _runs(kind, n, seed)}


@pytest.mark.parametrize("kind,n", GRAPHS)
def test_greedy_runs_match_pins(kind, n):
    pins = json.loads(PINS.read_text())
    for seed in SEEDS:
        for key, entry in _runs(kind, n, seed):
            assert entry == pins[key], key


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
