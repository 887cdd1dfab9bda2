import json
import os
import subprocess
import sys

import pytest

import spanplan as sp
from spanplan.cli import main

from .conftest import DATA_DIR, ONE_TABLE

Q2A = str(DATA_DIR / "query_2a.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_2a(capsys):
    code, out, err = run(capsys, "count", "--graph", Q2A)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc == {"bound": 120, "valid": 72, "invalid": 48,
                   "linear": 36, "bushy": 36, "t_b": 5040}


def test_count_chain4(capsys, tmp_path):
    graph, model = sp.gen_topology("chain", 4, seed=0)
    path = tmp_path / "chain4.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 6 and doc["valid"] == 6 and doc["invalid"] == 0


def test_optimize_este_2a(capsys):
    code, out, err = run(capsys, "optimize", "--graph", Q2A, "--algo", "este")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["algorithm"] == "este"
    assert doc["internal_cost"] == 1_692_001
    assert doc["internal_cost"] <= 2_451_001
    assert doc["stats"]["elapsed_ms"] == 0.0
    assert [s["edge"] for s in doc["steps"]] + doc["filters"] == [0, 1, 2, 4, 3]


def test_optimize_exhaustive_two_table(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "tables": [{"name": "A", "cardinality": 100}, {"name": "B", "cardinality": 50}],
        "joins": [{"left": "A", "right": "B"}],
        "cardinalities": {"A": 100, "B": 50, "A,B": 40},
    }))
    code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", "exhaustive")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["steps"]) == 1
    assert doc["filters"] == []


@pytest.mark.parametrize("algo", sp.ALGORITHMS)
def test_optimize_one_table(capsys, tmp_path, algo):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_TABLE))
    code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", algo)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["steps"], doc["filters"], doc["internal_cost"]) == ([], [], 0)
    assert doc["stats"]["plans"] == 1


def test_optimize_missing_graph_flag(capsys):
    code, out, err = run(capsys, "optimize")
    assert code == 1
    assert "usage" in err
    assert out == ""


def test_optimize_unknown_algo(capsys):
    code, _, err = run(capsys, "optimize", "--graph", Q2A, "--algo", "magic")
    assert code == 1
    assert "usage" in err


def test_optimize_unreadable_graph(capsys):
    code, _, err = run(capsys, "optimize", "--graph", "/nonexistent.json")
    assert code == 1
    assert err.strip().count("\n") == 0  # single-line diagnostic


def test_optimize_timeout_exit_code(capsys, tmp_path):
    graph, model = sp.gen_topology("clique", 14, seed=0)
    path = tmp_path / "big.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, _, err = run(capsys, "optimize", "--graph", str(path),
                       "--algo", "exhaustive", "--timeout", "0.000000001")
    assert code == 2
    assert "timeout" in err


def test_optimize_este_timeout_exits_2_with_one_line(capsys, tmp_path):
    graph, model = sp.gen_topology("clique", 14, seed=0)
    path = tmp_path / "big.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", "este",
                         "--timeout", "1e-9")
    assert code == 2
    assert out == ""
    assert err.startswith("spanplan: timeout: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("algo", ["prim", "kruskal", "goo"])
def test_optimize_greedy_timeout_exits_2_with_one_line(capsys, tmp_path, algo):
    # On 20 tables one prim or kruskal run prices more than 16 states and goo
    # runs more than one round, so each of them reads the clock.
    graph, model = sp.gen_topology("clique", 20, seed=0)
    path = tmp_path / "big.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", algo,
                         "--timeout", "1e-9")
    assert code == 2
    assert out == ""
    assert err == f"spanplan: timeout: {algo} ran past its deadline\n"


def test_optimize_exhaustive_deadline_between_phases_exits_2_with_one_line(capsys, tmp_path):
    # The subset scan alone of a 16-table chain takes far longer than 1 ms.
    graph, model = sp.gen_topology("chain", 16, seed=0)
    path = tmp_path / "chain.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", "exhaustive",
                         "--timeout", "1e-3")
    assert code == 2
    assert out == ""
    assert err == "spanplan: timeout: exhaustive enumeration ran past its deadline\n"


def test_count_timeout_exits_2_with_one_line(capsys, tmp_path):
    graph, model = sp.gen_topology("cycle", 8, seed=0)
    path = tmp_path / "cycle.json"
    path.write_text(sp.graph_to_json(graph, model))
    code, out, err = run(capsys, "count", "--graph", str(path), "--timeout", "1e-9")
    assert code == 2
    assert out == ""
    assert err == "spanplan: timeout: tree enumeration ran past its deadline\n"


@pytest.mark.parametrize("argv", [
    ("optimize", "--graph", "{nested}"),
    ("optimize", "--graph", Q2A, "--selection-catalog", "{nested}"),
    ("bench", "--graph", Q2A, "--algos", "goo", "--evaluation-catalog", "{nested}"),
])
def test_deeply_nested_json_exits_1_with_one_line(capsys, tmp_path, argv):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, *(a.format(nested=nested) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("spanplan: error: invalid JSON") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["optimize", "count", "bench"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
def test_timeout_that_is_not_finite_and_positive_exits_1_with_one_line(capsys, command, value):
    code, out, err = run(capsys, command, "--graph", Q2A, "--timeout", value)
    assert code == 1
    assert out == ""
    assert err.startswith("spanplan: error: --timeout ") and err.count("\n") == 1, err


def test_gen_counts_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, err = run(capsys, "gen", "--topology", "clique", "--tables", "5",
                           "--seed", "7", "--out", str(f))
        assert code == 0 and err == ""
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert len(doc["joins"]) == 10
    assert len(doc["selectivities"]) == 10

    code, out, _ = run(capsys, "gen", "--topology", "chain", "--tables", "4")
    assert code == 0
    assert len(json.loads(out)["joins"]) == 3


def test_bench_2a_csv(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "--graph", Q2A, "--out", str(out_csv))
    assert code == 0 and err == ""
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 6  # header + five algorithms
    rows = [line.split(",") for line in lines[1:]]
    ratios = {row[2]: row[4] for row in rows}
    assert float(ratios["exhaustive"]) == 1.0
    times = {row[2]: row[5] for row in rows}
    assert set(times.values()) == {"0.0"}  # deterministic without --timing
    summary = json.loads((tmp_path / "bench.summary.json").read_text())
    assert summary["total"]["exhaustive"]["cost_ratio"] == 1.0


def test_bench_topology_sweep_rows(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "bench", "--topology", "clique", "--sizes", "4,5",
                       "--seeds", "2", "--algos", "exhaustive,este", "--out", str(out_csv))
    assert code == 0 and err == ""
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def test_bench_requires_input(capsys):
    code, _, err = run(capsys, "bench")
    assert code == 1
    assert err != ""


def test_cli_byte_identical_reruns(capsys, tmp_path):
    outputs = []
    for i in range(3):
        f = tmp_path / f"plan{i}.json"
        code, _, err = run(capsys, "optimize", "--graph", Q2A, "--algo", "este", "--out", str(f))
        assert code == 0 and err == ""
        outputs.append(f.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_timing_flag_reports_real_time(capsys):
    code, out, _ = run(capsys, "optimize", "--graph", Q2A, "--algo", "prim", "--timing")
    assert code == 0
    assert json.loads(out)["stats"]["elapsed_ms"] > 0.0


def test_timing_adds_backend_and_evaluations_to_the_stats(capsys):
    code, out, _ = run(capsys, "optimize", "--graph", Q2A, "--algo", "este", "--timing")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["backend"] == sp.DEFAULT_BACKEND
    assert stats["backend"] in ("pure", "compiled")
    _plan, este_stats = sp.este(*sp.load_document((DATA_DIR / "query_2a.json").read_text()))
    assert stats["evaluations"] == este_stats.evaluations > 0
    code, out, _ = run(capsys, "optimize", "--graph", Q2A, "--algo", "este")
    assert set(json.loads(out)["stats"]) == {"subplans", "join_costs", "plans", "elapsed_ms"}


def test_optimize_malformed_value_exits_1_with_one_line(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "tables": [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 20}],
        "joins": [{"left": "a", "right": "b"}],
        "selectivities": {"a,b": "x"},
    }))
    code, out, err = run(capsys, "optimize", "--graph", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("spanplan: error: ")
    assert err.count("\n") == 1


def test_import_loads_neither_numpy_nor_thread_pools():
    code = ("import sys, spanplan; "
            "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    assert proc.stdout == "[]\n"


def test_start_up_loads_only_what_the_command_runs():
    # Neither the benchmark harness, the oracle, csv nor hashlib is loaded by
    # the CLI's import or by an optimize run; with the compiled build, the
    # pure-Python kernels are not either.  The lazy public names still resolve.
    code = f"""if True:
        import os, sys
        import spanplan, spanplan.cli
        unused = ("spanplan.bench", "spanplan.oracle", "csv", "hashlib", "spanplan._kernels.pure")
        def loaded():
            return [m for m in unused if m in sys.modules]
        print(loaded())
        spanplan.cli.main(["optimize", "--graph", {Q2A!r}, "--algo", "exhaustive",
                           "--out", os.devnull])
        print(loaded())
        from spanplan import bench, oracle
        assert spanplan.run_workload is bench.run_workload
        assert spanplan.brute_force_optimal is oracle.brute_force_optimal
        assert spanplan.TreeCounts is oracle.TreeCounts
        print("resolved")
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    after_optimize = [] if sp.HAVE_COMPILED else ["spanplan._kernels.pure"]
    assert proc.stdout == f"[]\n{after_optimize}\nresolved\n"


def test_optimize_cost_overflow_exits_1_with_one_line(capsys, tmp_path):
    doc = json.loads((DATA_DIR / "query_2a.json").read_text())
    for key in doc["cardinalities"]:
        if "," in key:
            doc["cardinalities"][key] = 10**308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for algo in sp.ALGORITHMS:
        code, out, err = run(capsys, "optimize", "--graph", str(path), "--algo", algo)
        assert code == 1, algo
        assert out == ""
        assert err.startswith("spanplan: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("gen", "--topology", "chain", "--tables", "4", "--card-range", "5", "1"),
    ("gen", "--topology", "chain", "--tables", "4", "--card-range", "1", "9" * 400),
    ("gen", "--topology", "chain", "--tables", "4", "--sel-range", "0", "0.1"),
    ("gen", "--topology", "chain", "--tables", "4", "--sel-range", "0.1", "2"),
    ("bench", "--topology", "chain", "--sizes", "abc"),
    ("bench", "--topology", "chain", "--sizes", "4,,5"),
])
def test_bad_generator_ranges_and_sizes_exit_1_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    if argv[0] == "gen":
        assert err.startswith("spanplan: error: ") and err.count("\n") == 1, err
    else:
        # A malformed flag value prints the usage first, as for every flag.
        assert err.splitlines()[-1].startswith("spanplan bench: error: argument --sizes: "), err
