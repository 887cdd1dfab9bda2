import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanplan as sp
from spanplan._kernels import trees
from spanplan.cli import _load_catalog_file, build_parser, main

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
    # The subset scan alone of a 16-table chain takes about 19 ms, 19 times
    # the budget.
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


def test_count_past_its_set_cap_exits_1_with_one_line(capsys, tmp_path, monkeypatch):
    # clique-8's linear orders pass through its 247 connected sets of two
    # tables or more; a cap of 1 << 7 sets refuses it.
    graph, model = sp.gen_topology("clique", 8, seed=0)
    path = tmp_path / "clique8.json"
    path.write_text(sp.graph_to_json(graph, model))
    monkeypatch.setattr(trees, "SUBSET_ENUM_LIMIT", 7)
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert (code, out) == (1, "")
    assert err == ("spanplan: error: the linear-order count reaches more than 128"
                   " connected table sets\n")


@pytest.mark.parametrize("kind,n", [("star", 22), ("star", 25), ("clique", 21), ("clique", 25)])
def test_count_refuses_a_graph_past_its_set_cap_at_once(capsys, tmp_path, kind, n):
    # Each reaches more than 2^20 connected sets by its degrees alone.
    graph, model = sp.gen_topology(kind, n, seed=0)
    path = tmp_path / f"{kind}{n}.json"
    path.write_text(sp.graph_to_json(graph, model))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == ("spanplan: error: the linear-order count reaches more than 1048576"
                   " connected table sets\n")


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


@pytest.mark.parametrize("argv", [
    ("optimize", "--graph", "{long}"),
    ("count", "--graph", "{long}"),
    ("optimize", "--graph", Q2A, "--selection-catalog", "{long}"),
    ("bench", "--graph", Q2A, "--algos", "goo", "--evaluation-catalog", "{long}"),
])
def test_an_integer_longer_than_python_converts_exits_1_with_one_line(capsys, tmp_path, argv):
    # json.loads refuses an integer literal of more than 4,300 digits with a
    # ValueError that is not a JSONDecodeError.
    with open(Q2A) as fh:
        text = fh.read()
    assert '"cardinality": 4545000' in text
    long = tmp_path / "long.json"
    long.write_text(text.replace('"cardinality": 4545000', '"cardinality": ' + "9" * 4301))
    code, out, err = run(capsys, *(a.format(long=long) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("spanplan: error: invalid JSON") and err.count("\n") == 1, err
    assert "4300 digits" in err, err


def test_a_key_repeated_in_one_object_takes_its_last_value(capsys, tmp_path):
    # As json.loads reads it: the first "cardinality" of mk and the first
    # "k,mk" of the catalog are overridden, and the plan is q2a's.
    with open(Q2A) as fh:
        text = fh.read()
    doc = json.loads(text)
    assert '"cardinality": 4545000' in text and doc["cardinalities"]["k,mk"] == 42000
    twice = tmp_path / "twice.json"
    first = '"cardinality": 4545000'
    twice.write_text(text.replace(first, '"cardinality": 1, ' + first)
                     .replace('"k,mk": 42000', '"k,mk": 7, "k,mk": 42000'))
    assert json.loads(twice.read_text()) == doc
    want = run(capsys, "optimize", "--graph", Q2A, "--algo", "exhaustive")
    assert want[0] == 0
    assert run(capsys, "optimize", "--graph", str(twice), "--algo", "exhaustive") == want
    assert run(capsys, "optimize", "--graph", str(twice), "--algo", "exhaustive",
               "--selection-catalog", str(twice)) == want


@pytest.mark.parametrize("argv", [
    ("optimize", "--graph", "{bad}"),
    ("count", "--graph", "{bad}"),
    ("optimize", "--graph", Q2A, "--selection-catalog", "{bad}"),
    ("bench", "--graph", Q2A, "--algos", "goo", "--evaluation-catalog", "{bad}"),
])
def test_input_that_is_not_utf8_exits_1_with_one_line(capsys, tmp_path, argv):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"spanplan: error: cannot read {bad}: not UTF-8 text (byte 0)\n", err


@pytest.mark.parametrize("argv", [
    ("optimize", "--graph", Q2A, "--algo", "goo"),
    ("count", "--graph", Q2A),
    ("gen", "--topology", "chain", "--tables", "4"),
    ("bench", "--graph", Q2A, "--algos", "goo"),
])
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_out_that_cannot_be_written_exits_1_with_one_line(capsys, tmp_path, argv, target):
    out_path = tmp_path / "plan.csv"
    if target == "directory":
        out_path.mkdir()
    else:
        out_path = tmp_path / "missing" / "plan.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"spanplan: error: cannot write {out_path}: "), err
    assert err.count("\n") == 1, err


def test_bench_summary_that_cannot_be_written_exits_1_with_one_line(capsys, tmp_path):
    (tmp_path / "bench.summary.json").mkdir()
    code, out, err = run(capsys, "bench", "--graph", Q2A, "--algos", "goo",
                         "--out", str(tmp_path / "bench.csv"))
    assert code == 1
    assert out == ""
    summary = tmp_path / "bench.summary.json"
    assert err == f"spanplan: error: cannot write {summary}: Is a directory\n"
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("algos,message", [
    ("exhaustive,prim,prim", "algorithm 'prim' is listed twice"),
    ("exhaustive,dpccp", "unknown algorithm 'dpccp'"),
])
def test_bench_algorithm_that_is_repeated_or_unknown_exits_1_with_one_line(capsys, tmp_path,
                                                                         algos, message):
    code, out, err = run(capsys, "bench", "--graph", Q2A, "--algos", algos,
                         "--out", str(tmp_path / "bench.csv"))
    assert (code, out, err) == (1, "", f"spanplan: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("inputs,query_id", [
    ("same stem in two folders", "q"),
    ("same path twice", "q"),
    ("same sweep size twice", "chain-06-s0"),
])
def test_bench_query_id_that_is_repeated_exits_1_with_one_line(capsys, tmp_path, inputs,
                                                             query_id):
    paths = []
    for folder, kind in (("a", "clique"), ("b", "chain")):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "q.json")
        paths[-1].write_text(sp.graph_to_json(*sp.gen_topology(kind, 6, seed=0)))
    argv = {
        "same stem in two folders": ["--graph", str(paths[0]), "--graph", str(paths[1])],
        "same path twice": ["--graph", str(paths[0]), "--graph", str(paths[0])],
        "same sweep size twice": ["--topology", "chain", "--sizes", "6,6", "--seeds", "1"],
    }[inputs]
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, "bench", *argv, "--algos", "exhaustive,prim",
                         "--out", str(out_path))
    assert (code, out, err) == (1, "", f"spanplan: error: query id {query_id!r} is listed twice\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["optimize", "count", "bench"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
def test_timeout_that_is_not_finite_and_positive_exits_1_with_one_line(capsys, command, value):
    code, out, err = run(capsys, command, "--graph", Q2A, "--timeout", value)
    assert code == 1
    assert out == ""
    assert err.startswith("spanplan: error: --timeout ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["optimize", "bench"])
@pytest.mark.parametrize("flag", ["--tau", "--lambda"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cost_factor_that_is_not_finite_and_positive_exits_1_with_one_line(capsys, command, flag,
                                                                           value):
    code, out, err = run(capsys, command, "--graph", Q2A, flag, value)
    assert code == 1
    assert out == ""
    name = flag[2:]
    assert err == f"spanplan: error: {name} must be a finite number above 0, got {float(value)!r}\n"


@pytest.mark.parametrize("seeds,message", [
    ("100000000000", "a sweep of sizes x seeds runs 100000000000 queries, above the limit of"
                     " 10000"),
    ("0", "a sweep needs at least 1 seed per size, got 0"),
])
def test_bench_sweep_past_its_limit_exits_1_with_one_line(capsys, seeds, message):
    code, out, err = run(capsys, "bench", "--topology", "chain", "--sizes", "3", "--seeds", seeds,
                         "--timeout", "0.5")
    assert (code, out, err) == (1, "", f"spanplan: error: {message}\n")


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
    sections = [*summary["groups"].values(), summary["total"]]
    assert {s["opt_time_ms"] for section in sections for s in section.values()} == {0.0}


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


@pytest.mark.parametrize("doc,message", [
    ({"tables": [["a", 10]], "joins": []}, "table #0 must be an object"),
    ({"tables": [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 20}],
      "joins": [["a", "b"]]}, "join #0 must be an object"),
])
def test_table_or_join_that_is_not_an_object_exits_1_naming_it(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "optimize", "--graph", str(path)) == (1, "", f"spanplan: error: {message}\n")


def test_table_name_with_a_comma_exits_1_naming_it(capsys, tmp_path):
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({
        "tables": [{"name": "a,b", "cardinality": 10}, {"name": "c", "cardinality": 20}],
        "joins": [{"left": "a,b", "right": "c"}],
        "cardinalities": {"a,b": 10, "c": 20, "a,b,c": 5},
    }))
    assert run(capsys, "optimize", "--graph", str(path)) == (
        1, "", "spanplan: error: table #0 has a comma in its name\n")


@pytest.mark.parametrize("section", [5, None, "a", [["a", 10]]])
def test_catalog_whose_cardinalities_member_is_not_an_object_exits_1(capsys, tmp_path, section):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"cardinalities": section}))
    code, out, err = run(capsys, "optimize", "--graph", Q2A, "--selection-catalog", str(catalog))
    assert (code, out) == (1, "")
    assert err == f"spanplan: error: {catalog}: 'cardinalities' must be an object\n"


def test_catalog_key_map_may_name_a_table_called_cardinalities(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"tables": [{"name": "cardinalities", "cardinality": 10}],
                                 "joins": []}))
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"cardinalities": 10}))
    code, out, err = run(capsys, "optimize", "--graph", str(graph),
                         "--selection-catalog", str(catalog))
    assert (code, err) == (0, "")
    assert json.loads(out)["internal_cost"] == 0


def test_table_flags_must_be_json_booleans(capsys, tmp_path):
    # b is a large table: an index into it would make the join cost 22
    # instead of a hash join's 200,022, so "false" must not read as true.
    def plan(indexed):
        path = tmp_path / "flags.json"
        path.write_text(json.dumps({
            "tables": [{"name": "a", "cardinality": 10},
                       {"name": "b", "cardinality": 10**6, "indexed": indexed}],
            "joins": [{"left": "a", "right": "b"}],
            "selectivities": {"a,b": 1e-6},
        }))
        return run(capsys, "optimize", "--graph", str(path), "--algo", "exhaustive")

    code, out, _ = plan(False)
    assert code == 0 and json.loads(out)["internal_cost"] == 200_022
    code, out, _ = plan(True)
    assert code == 0 and json.loads(out)["internal_cost"] == 22
    code, out, err = plan("false")
    assert code == 1
    assert out == ""
    assert err == "spanplan: error: table b: 'indexed' must be true or false\n"


# Any JSON value, and valid graph and catalog documents with one member
# replaced by any JSON value or deleted.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


def _members(value, path=()):
    """The path of every member of a JSON value, the value's own () first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, member in items:
        yield from _members(member, path + (key,))


@st.composite
def _damaged(draw, valid):
    """(doc, damage): a document from valid, returned as it is with damage
    None, or with one member replaced by any JSON value or deleted and
    damage (how, path of that member)."""
    doc = draw(valid)
    how = draw(st.sampled_from(["keep", "replace", "delete"]))
    if how == "keep":
        return doc, None
    path = draw(st.sampled_from(list(_members(doc))))
    if not path:
        return draw(_JSON), (how, path)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if how == "delete":
        del holder[path[-1]]
    else:
        holder[path[-1]] = draw(_JSON)
    return doc, (how, path)


_UNDAMAGED = _JSON.map(lambda doc: (doc, None))


def _replaced_by_non_object(doc, damage, *path) -> bool:
    """Whether damage replaced the member at path with a non-object."""
    if damage != ("replace", path):
        return False
    for key in path:
        doc = doc[key]
    return not isinstance(doc, dict)


@st.composite
def _catalogs(draw, names):
    """A catalog of every subset of names, some left out."""
    keys = [",".join(c) for k in range(1, len(names) + 1)
            for c in itertools.combinations(names, k)]
    return {key: draw(st.integers(0, 10**6)) for key in keys if draw(st.integers(0, 9))}


@st.composite
def _graphs(draw):
    """A tree of 1 to 4 tables, with a catalog, a selectivity model or neither."""
    names = "abcd"[:draw(st.integers(1, 4))]
    tables = [{"name": name, "cardinality": draw(st.integers(1, 10**6)),
               "selected": draw(st.booleans()), "indexed": draw(st.booleans())}
              for name in names]
    joins = [{"left": names[draw(st.integers(0, i - 1))], "right": names[i]}
             for i in range(1, len(names))]
    doc = {"tables": tables, "joins": joins}
    section = draw(st.sampled_from(["none", "cardinalities", "selectivities"]))
    if section == "cardinalities":
        doc["cardinalities"] = draw(_catalogs(names))
    elif section == "selectivities":
        doc["selectivities"] = {f"{j['left']},{j['right']}": draw(st.floats(1e-6, 1.0))
                                for j in joins}
    return doc


_CHAIN = {"tables": [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 20},
                     {"name": "c", "cardinality": 30}],
          "joins": [{"left": "a", "right": "b"}, {"left": "b", "right": "c"}]}
_CATALOG = _catalogs("abc") | _catalogs("abc").map(lambda c: {"cardinalities": c})


def _cli_outcome(argv) -> tuple[int, str]:
    """main's exit code and stderr; any exception escaping main fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_exit_0_or_one_line(code: int, err: str) -> None:
    assert (code, err) == (0, "") or (code == 1 and err.count("\n") == 1
                                      and err.startswith("spanplan: error: ")), (code, err)


@settings(max_examples=150, deadline=None)
@given(case=_UNDAMAGED | _damaged(_graphs()), algo=st.sampled_from(sp.ALGORITHMS))
def test_any_json_graph_document_loads_or_exits_1_with_one_line(case, algo):
    doc, damage = case
    text = json.dumps(doc)
    try:
        sp.load_document(text)
    except sp.SpanPlanError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcome = _cli_outcome(["optimize", "--graph", path, "--algo", algo])
    _assert_exit_0_or_one_line(*outcome)
    # A table or join item that is no object is named by its position.
    if damage is not None and len(damage[1]) == 2:
        section, index = damage[1]
        if section in ("tables", "joins") and _replaced_by_non_object(doc, damage, *damage[1]):
            item = "table" if section == "tables" else "join"
            assert outcome == (1, f"spanplan: error: {item} #{index} must be an object\n")


@settings(max_examples=150, deadline=None)
@given(case=_UNDAMAGED | _damaged(_CATALOG), algo=st.sampled_from(sp.ALGORITHMS))
def test_any_json_catalog_file_loads_or_exits_1_with_one_line(case, algo):
    doc, damage = case
    graph, _ = sp.load_document(json.dumps(_CHAIN))
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "graph.json")
        catalog_path = os.path.join(tmp, "catalog.json")
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_CHAIN))
        with open(catalog_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        try:
            _load_catalog_file(graph, catalog_path)
        except sp.SpanPlanError:
            pass
        outcome = _cli_outcome(["optimize", "--graph", graph_path, "--selection-catalog",
                                catalog_path, "--algo", algo])
        _assert_exit_0_or_one_line(*outcome)
        if _replaced_by_non_object(doc, damage, "cardinalities"):
            assert outcome == (
                1, f"spanplan: error: {catalog_path}: 'cardinalities' must be an object\n")


# Faults that exist only in a document's text, spliced into valid text: a
# number or a string replaced by a long digit run, a huge exponent, a long
# fraction or a bad escape; a key written twice in one object; a BOM; or one
# of these inserted anywhere.
_NUMBER_FAULTS = ["9" * 4301, "9" * 4300, "1" + "0" * 400, "1e999999", "-1e999999",
                  "1e-999999", "0." + "5" * 5000, "-0", "1E+2", "1.0"]
_STRING_FAULTS = [r'"\x41"', r'"\ud800"', r'"\uZZZZ"', r'"\u0000"', '"a\\"b"', '""', '"a,b"']
_KEYS = ["tables", "joins", "name", "cardinality", "selected", "indexed", "left", "right",
         "cardinalities", "selectivities", "a", "a,b", "mk", "k,mk"]
_VALUES = ["1", "0.5", '"a"', "[]", "{}", "null", "true"]
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


@st.composite
def _spliced(draw, texts):
    """Text from texts with one to three text-level faults spliced in."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["token"] * 3 + ["key twice"] * 2 + ["bom", "insert"]))
        tokens = list(_TOKEN.finditer(text))
        opens = [i + 1 for i, char in enumerate(text) if char == "{"]
        if how == "token" and tokens:
            token = draw(st.sampled_from(tokens))
            faults = _STRING_FAULTS if token.group().startswith('"') else _NUMBER_FAULTS
            text = text[:token.start()] + draw(st.sampled_from(faults)) + text[token.end():]
        elif how == "key twice" and opens:
            at = draw(st.sampled_from(opens))
            pair = f'"{draw(st.sampled_from(_KEYS))}": {draw(st.sampled_from(_VALUES))}, '
            text = text[:at] + pair + text[at:]
        else:
            at = 0 if how == "bom" else draw(st.integers(0, len(text)))
            fault = "\ufeff" if how == "bom" else draw(
                st.sampled_from(_NUMBER_FAULTS + _STRING_FAULTS + ["\ufeff", ","]))
            text = text[:at] + fault + text[at:]
    return text


with open(Q2A, encoding="utf-8") as _fh:
    _Q2A_TEXT = _fh.read()


@settings(max_examples=100, deadline=None)
@given(text=_spliced(st.just(_Q2A_TEXT) | _graphs().map(json.dumps)),
       algo=st.sampled_from(sp.ALGORITHMS))
def test_a_graph_text_with_spliced_faults_loads_or_exits_1_with_one_line(text, algo):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["optimize", "--graph", path, "--algo", algo], ["count", "--graph", path]):
            _assert_exit_0_or_one_line(*_cli_outcome(argv))


@settings(max_examples=100, deadline=None)
@given(case=st.tuples(st.just(Q2A), _spliced(st.just(_Q2A_TEXT)))
       | st.tuples(st.just(None), _spliced(_CATALOG.map(json.dumps))),
       algo=st.sampled_from(sp.ALGORITHMS))
def test_a_catalog_text_with_spliced_faults_loads_or_exits_1_with_one_line(case, algo):
    graph_path, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if graph_path is None:
            graph_path = os.path.join(tmp, "graph.json")
            with open(graph_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_CHAIN))
        catalog_path = os.path.join(tmp, "catalog.json")
        with open(catalog_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_exit_0_or_one_line(*_cli_outcome(["optimize", "--graph", graph_path,
                                                  "--selection-catalog", catalog_path,
                                                  "--algo", algo]))


def test_import_loads_neither_numpy_nor_thread_pools():
    code = ("import sys, spanplan; "
            "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    assert proc.stdout == "[]\n"


def test_start_up_loads_only_what_the_command_runs(tmp_path):
    # Neither the benchmark harness, the oracle, csv nor hashlib is loaded by
    # the CLI's import or by an optimize run; with the compiled build, the
    # pure-Python kernels are not either.  No module generates code while it
    # is imported, so neither dataclasses nor inspect is loaded by the
    # import, by optimize with any algorithm, by count, or by bench.  The
    # lazy public names still resolve.
    code = f"""if True:
        import os, sys
        import spanplan, spanplan.cli
        unused = ("spanplan.bench", "spanplan.oracle", "csv", "hashlib", "spanplan._kernels.pure")
        codegen = ("dataclasses", "inspect")
        def loaded(names):
            return [m for m in names if m in sys.modules]
        print(loaded(unused + codegen))
        for algo in spanplan.ALGORITHMS:
            spanplan.cli.main(["optimize", "--graph", {Q2A!r}, "--algo", algo,
                               "--out", os.devnull])
            print(algo, loaded(unused + codegen))
        spanplan.cli.main(["count", "--graph", {Q2A!r}, "--out", os.devnull])
        print("count", loaded(codegen))
        spanplan.cli.main(["bench", "--graph", {Q2A!r}, "--out", {str(tmp_path / "b.csv")!r}])
        print("bench", loaded(codegen))
        from spanplan import bench, oracle
        assert spanplan.run_workload is bench.run_workload
        assert spanplan.brute_force_optimal is oracle.brute_force_optimal
        assert spanplan.TreeCounts is oracle.TreeCounts
        print("resolved")
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    after_optimize = [] if sp.HAVE_COMPILED else ["spanplan._kernels.pure"]
    runs = "".join(f"{algo} {after_optimize}\n" for algo in sp.ALGORITHMS)
    assert proc.stdout == f"[]\n{runs}count []\nbench []\nresolved\n"
    # Only the compiled kernels' loader builds C arrays, so neither the
    # import nor count, which runs no search kernel, loads array.
    code = f"""if True:
        import os, sys
        import spanplan, spanplan.cli
        print("array" in sys.modules)
        spanplan.cli.main(["count", "--graph", {Q2A!r}, "--out", os.devnull])
        print("array" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    assert proc.stdout == "False\nFalse\n"


def _flags(parser) -> set[str]:
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _flags(sub)
    return flags


def test_readme_cli_section_names_the_flags_the_parser_has():
    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named == _flags(build_parser()) - {"--help"}


def test_count_opens_no_kernel_library():
    # No C kernel counts, so a process that only counts neither imports
    # ctypes nor opens the library.
    code = f"""if True:
        import os, sys
        import spanplan.cli
        spanplan.cli.main(["count", "--graph", {Q2A!r}, "--out", os.devnull])
        print([m for m in ("ctypes", "spanplan._kernels.loader") if m in sys.modules])
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src")))
    assert proc.stdout == "[]\n"


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
    ("gen", "--topology", "chain", "--tables", "4", "--sel-range", "0.5", "0.1"),
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
