"""plan_to_json writes, byte for byte, the text that json.dumps(indent=2)
gives for the plan's document."""
import json
import math

import pytest

import spanplan as sp
from spanplan import _kernels
from spanplan.cost import SelectivityModel
from spanplan.graph import JoinGraph, TableInfo
from spanplan.plan import _num, si_display

# Escaping reorders some names: '"' sorts before '#' raw but its escape
# '\\"' after it, and a non-ASCII name sorts after 'z' raw but its '\\u'
# escape before it.
NAMES = ('"quoted"', "#hash", "back\\slash", "naïve", "日本", "zeta",
         "tab\there", "bell\x07", "del\x7f", "line\nbreak")


def _reference(plan, graph, stats=None, timing=False) -> str:
    """The plan's document through json.dumps(indent=2)."""
    doc = {
        "algorithm": plan.algorithm,
        "internal_cost": _num(plan.internal_cost),
        "internal_cost_display": si_display(plan.internal_cost),
        "total_cost": _num(plan.total_cost),
        "shape": plan.shape,
        "steps": [
            {
                "edge": s.edge,
                "left_subset": list(graph.names_of_mask(s.left_mask)),
                "right_subset": list(graph.names_of_mask(s.right_mask)),
                "operator": s.operator,
                "build_side": s.side,
                "out_card": _num(s.out_card),
                "step_cost": _num(s.step_cost),
            }
            for s in plan.steps
        ],
        "filters": list(plan.filters),
    }
    if stats is not None:
        doc["stats"] = {
            "subplans": stats.subplans_reached,
            "join_costs": stats.join_costs_computed,
            "plans": stats.plans_enumerated,
            "elapsed_ms": round(stats.elapsed * 1000.0, 3) if timing else 0.0,
        }
        if timing:
            doc["stats"]["backend"] = _kernels.DEFAULT_BACKEND
            doc["stats"]["evaluations"] = stats.evaluations
    return json.dumps(doc, indent=2) + "\n"


def _named(kind: str, n: int, seed: int, base_range):
    """A generated topology whose tables carry NAMES."""
    graph, model = sp.gen_topology(kind, n, seed, base_range=base_range)
    vertices = tuple(TableInfo(NAMES[i], t.base_cardinality, t.selected, t.indexed)
                     for i, t in enumerate(graph.vertices))
    named = JoinGraph(vertices, graph.edges)
    return named, SelectivityModel(named, model.selectivities)


CASES = [
    # Filters and non-integral costs (scan costs are 0.2 of a row count).
    ("clique", 6, 1, (1_000, 1_000_000)),
    # A tree: no filters.
    ("chain", 7, 2, (1_000, 1_000_000)),
    ("star", 5, 3, (1_000, 1_000_000)),
    # Costs of 2**53 and more print as floats.
    ("cycle", 8, 4, (10**16, 10**17)),
]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("kind,n,seed,base_range", CASES)
def test_plan_json_is_json_dumps_of_the_plan_document(kind, n, seed, base_range, backend,
                                                      compiled, monkeypatch):
    kernels = _kernels.pure if backend == "pure" else compiled
    monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": kernels)
    graph, model = _named(kind, n, seed, base_range)
    floats = []
    for algo in sp.ALGORITHMS:
        plan, stats = sp.run_algorithm(algo, graph, model)
        stats.elapsed = 0.0123456
        for args in ((), (stats,), (stats, True)):
            assert sp.plan_to_json(plan, graph, *args) == _reference(plan, graph, *args), \
                (algo, len(args))
        assert bool(plan.filters) == (graph.n_edges >= n)
        costs = (plan.internal_cost, plan.total_cost,
                 *(x for s in plan.steps for x in (s.out_card, s.step_cost)))
        floats += [x for x in costs if isinstance(_num(x), float)]
    if base_range[0] > 2**53:
        assert any(x >= 2**53 for x in floats)
    else:
        assert any(x % 1 for x in floats)


def test_plan_json_of_one_table_lists_no_steps(one_table):
    graph, catalog = one_table
    for algo in sp.ALGORITHMS:
        plan, stats = sp.run_algorithm(algo, graph, catalog)
        text = sp.plan_to_json(plan, graph, stats)
        assert text == _reference(plan, graph, stats)
        assert '  "steps": [],\n  "filters": []' in text


def test_plan_json_raises_the_overflow_error_before_writing(q2a):
    graph, catalog = q2a
    plan, stats = sp.run_algorithm("prim", graph, catalog)
    for cost in (math.inf, math.nan):
        with pytest.raises(sp.LimitExceededError) as info:
            sp.plan_to_json(plan._replace(total_cost=cost), graph, stats)
        assert str(info.value) == "the prim plan's cost overflows a float"
