"""Golden outputs: the bytes `spanplan bench` and `spanplan count` write.

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

from spanplan.cli import main

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
              for kind, n in (("cycle", 8), ("star", 8), ("clique", 5))}
CASES = {
    "bench-q2a": ["bench", "--graph", str(Q2A)],
    "bench-q2a-eval-scaled": ["bench", "--graph", str(Q2A), "--evaluation-catalog", "scaled"],
    "bench-q2a-eval-overflow": ["bench", "--graph", str(Q2A), "--evaluation-catalog", "overflow"],
    "bench-cycle-sweep": ["bench", "--topology", "cycle", "--sizes", "4,5", "--seeds", "2"],
    "count-q2a": ["count", "--graph", str(Q2A)],
    **{f"count-{name}": ["count", "--graph", name] for name in GEN_GRAPHS},
}


def _outputs(case: str, tmp: Path) -> dict[str, bytes]:
    """Run one case with --out under tmp; every file it writes, by name."""
    catalog = json.loads(Q2A.read_text())["cardinalities"]
    for name, rows_of in EVAL_CATALOGS.items():
        doc = {key: rows_of(key, rows) for key, rows in catalog.items()}
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    for name, gen in GEN_GRAPHS.items():
        assert main([*gen, "--out", str(tmp / f"{name}.json")]) == 0
    argv = [str(tmp / f"{a}.json") if a in EVAL_CATALOGS or a in GEN_GRAPHS else a
            for a in CASES[case]]
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
