import json
from pathlib import Path

import pytest

import spanplan as sp

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def q2a_text() -> str:
    return (DATA_DIR / "query_2a.json").read_text()


@pytest.fixture(scope="session")
def q2a(q2a_text):
    """(graph, catalog) for the bundled five-table cyclic query."""
    return sp.load_document(q2a_text)


@pytest.fixture()
def q2a_ctx(q2a):
    graph, catalog = q2a
    return sp.CostContext(graph, catalog)


def make_graph(tables, joins, **sections):
    doc = {"tables": tables, "joins": joins}
    doc.update(sections)
    return sp.load_document(json.dumps(doc))


ONE_TABLE = {
    "tables": [{"name": "A", "cardinality": 100, "selected": False, "indexed": True}],
    "joins": [],
    "cardinalities": {"A": 100},
}


@pytest.fixture()
def one_table():
    """A graph of one table and no joins, catalog included."""
    return sp.load_document(json.dumps(ONE_TABLE))


@pytest.fixture()
def two_table():
    """Minimal connected graph: A(100) -- B(50), catalog included."""
    return make_graph(
        [
            {"name": "A", "cardinality": 100, "selected": False, "indexed": True},
            {"name": "B", "cardinality": 50, "selected": False, "indexed": True},
        ],
        [{"left": "A", "right": "B", "predicate": "A.x = B.x"}],
        cardinalities={"A": 100, "B": 50, "A,B": 40},
    )


@pytest.fixture()
def chain3_model():
    """Three-table chain with a selectivity model, for hand-rolled costs."""
    return make_graph(
        [
            {"name": "a", "cardinality": 1000, "selected": False, "indexed": True},
            {"name": "b", "cardinality": 2000, "selected": False, "indexed": True},
            {"name": "c", "cardinality": 500, "selected": False, "indexed": True},
        ],
        [
            {"left": "a", "right": "b", "predicate": "a.x = b.x"},
            {"left": "b", "right": "c", "predicate": "b.y = c.y"},
        ],
        selectivities={"a,b": 0.01, "b,c": 0.002},
    )


def mixed_instances(count: int, base_seed: int = 1000):
    """Deterministic mix of topologies with 3..7 tables (cliques capped at 6)."""
    kinds = ["chain", "cycle", "star", "clique"]
    out = []
    for i in range(count):
        kind = kinds[i % 4]
        n = 3 + (i // 4) % 5
        if kind == "clique" and n > 6:
            n = 6
        graph, model = sp.gen_topology(kind, n, seed=base_seed + i)
        out.append((kind, n, graph, model))
    return out
