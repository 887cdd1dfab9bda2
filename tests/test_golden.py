"""Golden outputs: the bytes `spanplan bench`, `count` and `optimize` write.

The determinism tests elsewhere check that two runs agree with each other;
these check that a run agrees with the files under tests/golden/, so a
refactor of the CLI or the bench harness cannot change a byte unnoticed.
Wall-clock fields are 0 without --timing, and outputs are the same on
both backends.

Regenerate the files (only when a change is meant to alter outputs) with

    PYTHONPATH=src python -m tests.test_golden --write
"""
import json
import sys
import tempfile
from pathlib import Path

import pytest

import spanplan as sp
from spanplan import enumerators
from spanplan.cli import main
from spanplan.graph import connected_subset_masks, graph_to_json

from .conftest import DATA_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
Q2A = DATA_DIR / "query_2a.json"
# Evaluation catalogs written from q2a's own catalog, by the name a case
# passes to --evaluation-catalog: one that moves every cost, and one whose
# joined cardinalities overflow every plan's cost after its search succeeded.
EVAL_CATALOGS = {
    "scaled": lambda key, rows: rows * 10 if "mc" in key.split(",") else rows,
    "overflow": lambda key, rows: 10**308 if "," in key else rows,
}
# Graphs written by `spanplan gen`, by the name a case passes to --graph.
GEN_GRAPHS = {f"{kind}-{n}": ["gen", "--topology", kind, "--tables", str(n)]
              for kind, n in (("cycle", 8), ("star", 8), ("clique", 5), ("clique", 14),
                              ("star", 22), ("cycle", 20))}


def _catalog_document() -> str:
    """A generated chain-6 with the catalog of every connected subset its
    model implies embedded, in place of the model."""
    graph, model = sp.gen_topology("chain", 6, 3)
    entries = {m: model.lookup(graph, m) for m in connected_subset_masks(graph)}
    return graph_to_json(graph, sp.CardinalityCatalog(entries))


def _escaped_names_document() -> str:
    r"""A 5-cycle whose table names sort in another order once written as
    escaped ASCII JSON: "\u00e9" and "\"" sort before letters, "é" after."""
    names = ["zeta", "émile", "Zoë", 'q"uote', "日本"]
    cards = [1200, 300_000, 45_000, 8, 70_000]
    joins = [(names[i], names[(i + 1) % 5]) for i in range(5)]
    return json.dumps({
        "tables": [{"name": n, "cardinality": c} for n, c in zip(names, cards)],
        "joins": [{"left": a, "right": b} for a, b in joins],
        "selectivities": {f"{a},{b}": s for (a, b), s in zip(joins, (1e-3, 0.02, 1e-4, 0.5, 1))},
    })


# Documents written here, by the name a case passes to --graph.
DOCUMENTS = {"chain-6-catalog": _catalog_document, "escaped-names": _escaped_names_document}
OPTIMIZE = {"q2a": [*enumerators.ALGORITHMS], "clique-14": ["prim", "este"],
            "star-22": ["kruskal", "goo"], "cycle-20": ["goo", "este"],
            "chain-6-catalog": ["exhaustive"], "escaped-names": ["exhaustive", "este"]}
CASES = {
    "bench-q2a": ["bench", "--graph", str(Q2A)],
    "bench-q2a-eval-scaled": ["bench", "--graph", str(Q2A), "--evaluation-catalog", "scaled"],
    "bench-q2a-eval-overflow": ["bench", "--graph", str(Q2A), "--evaluation-catalog", "overflow"],
    "bench-cycle-sweep": ["bench", "--topology", "cycle", "--sizes", "4,5", "--seeds", "2"],
    "count-q2a": ["count", "--graph", str(Q2A)],
    **{f"count-{name}": ["count", "--graph", name] for name in ("cycle-8", "star-8", "clique-5")},
    **{f"optimize-{name}-{algo}": ["optimize", "--graph", str(Q2A) if name == "q2a" else name,
                                   "--algo", algo]
       for name, algos in OPTIMIZE.items() for algo in algos},
}


def _outputs(case: str, tmp: Path) -> dict[str, bytes]:
    """Run one case with --out under tmp; every file it writes, by name."""
    argv = []
    for a in CASES[case]:
        path = tmp / f"{a}.json"
        if a in EVAL_CATALOGS:
            catalog = json.loads(Q2A.read_text())["cardinalities"]
            path.write_text(json.dumps({key: EVAL_CATALOGS[a](key, rows)
                                        for key, rows in catalog.items()}))
        elif a in GEN_GRAPHS:
            assert main([*GEN_GRAPHS[a], "--out", str(path)]) == 0
        elif a in DOCUMENTS:
            path.write_text(DOCUMENTS[a](), encoding="utf-8")
        else:
            path = a
        argv.append(str(path))
    out = tmp / "out"
    out.mkdir()
    suffix = ".csv" if argv[0] == "bench" else ".json"
    assert main([*argv, "--out", str(out / (case + suffix))]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden_bytes(case, tmp_path):
    golden = {path.name: path.read_bytes() for path in GOLDEN.glob(f"{case}.*")}
    assert golden, f"no golden file for {case}"
    assert _outputs(case, tmp_path) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_golden --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _outputs(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {GOLDEN / name}")
