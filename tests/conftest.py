import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import spanplan as sp
from spanplan import _kernels
from spanplan._kernels.loader import open_library
from spanplan.graph import JoinEdge, JoinGraph, TableInfo

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
SOURCE = ROOT / "src" / "spanplan" / "_kernels" / "kernels.c"


def _compiler() -> list[str]:
    """sysconfig's CC as an argument list; skips the test when it is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) to build kernels.c")
    return cc


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled backend: the in-place build if it is not older than
    kernels.c, or else a fresh one."""
    if _kernels.HAVE_COMPILED and os.path.getmtime(_kernels._LIBRARY) >= SOURCE.stat().st_mtime:
        return _kernels.get_backend("compiled")
    _compiler()
    out = tmp_path_factory.mktemp("ckernels")
    subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"),
                    "--build-temp", str(out / "temp")],
                   cwd=ROOT, check=True, capture_output=True)
    built = list((out / "lib" / "spanplan" / "_kernels").glob("_ckernels*"))
    assert built, "setup.py build_ext did not build kernels.c"
    return open_library(built[0])


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


IRREGULAR_KINDS = ("tree", "chorded", "grid", "snowflake", "gnp")


def _irregular_pairs(kind: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of one irregular graph on vertices 0..n-1, before relabelling."""
    if kind == "tree":
        return [(rng.randrange(v), v) for v in range(1, n)]
    if kind == "chorded":  # a cycle with about n / 3 chords
        pairs = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)}
        while len(pairs) < min(n + n // 3, n * (n - 1) // 2):
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        return sorted(pairs)
    if kind == "grid":  # row-major, the last row possibly short
        cols = math.ceil(math.sqrt(n))
        return [(v, w) for v in range(n)
                for w in ((v + 1) if (v + 1) % cols else n, v + cols) if w < n]
    if kind == "snowflake":  # a hub, its arms, and small stars on the arms
        arms = min(n - 1, max(2, n // 3))
        return [(0, v) for v in range(1, arms + 1)] + \
            [(rng.randint(1, arms), v) for v in range(arms + 1, n)]
    if kind == "gnp":  # a random spanning tree plus each other pair with p = 0.3
        tree = {(rng.randrange(v), v) for v in range(1, n)}
        return sorted(tree | {(u, v) for v in range(n) for u in range(v)
                              if (u, v) not in tree and rng.random() < 0.3})
    raise ValueError(f"unknown irregular kind {kind!r}")


def irregular_graph(kind: str, n: int, seed: int):
    """A seeded (JoinGraph, SelectivityModel) of one of IRREGULAR_KINDS on
    n tables: a random tree, a cycle with chords, a grid, a snowflake or a
    connected G(n, p) graph.  Table ids are shuffled, edges are listed in
    random order with random orientation, and about a third of the tables
    are not indexed, so that neither edge ids nor operator choices follow
    the vertex order as they do in gen_topology's graphs."""
    rng = random.Random(f"{kind}-{n}-{seed}")
    label = list(range(n))
    rng.shuffle(label)
    pairs = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in _irregular_pairs(kind, n, rng)]
    rng.shuffle(pairs)
    names = [f"t{i:02d}" for i in range(n)]
    vertices = tuple(TableInfo(name, rng.randint(10, 1_000_000), False, rng.random() < 0.67)
                     for name in names)
    edges = tuple(JoinEdge(eid, u, v, f"{names[u]}.a{eid} = {names[v]}.a{eid}")
                  for eid, (u, v) in enumerate(pairs))
    graph = JoinGraph(vertices, edges)
    sels = tuple(10.0 ** rng.uniform(-4.0, math.log10(0.5)) for _ in edges)
    return graph, sp.SelectivityModel(graph, sels)


def irregular_instances(count: int, base_seed: int = 1000):
    """Deterministic mix of irregular_graph's kinds with 3..7 tables, as
    (kind, n, graph, model) like mixed_instances."""
    out = []
    for i in range(count):
        kind = IRREGULAR_KINDS[i % len(IRREGULAR_KINDS)]
        n = 3 + (i // len(IRREGULAR_KINDS)) % 5
        out.append((kind, n, *irregular_graph(kind, n, base_seed + i)))
    return out
