"""Tests of the benchmark itself: percentile rule, self-time arithmetic,
wrapper bookkeeping, pins, and smoke runs of every workload at tiny size.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import tracing
from tracing import Span, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("stamp ")
    stamp = json.loads(lines[-2][len("stamp "):])
    assert stamp["backend"] in ("pure", "compiled")
    return json.loads(lines[-1])


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.9)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)
    assert run.percentile(list(range(1, 20)) + [100], 50) == pytest.approx(10.5)


def test_times_are_scaled_by_the_speed_around_them():
    # (ms, speed, ok, cost, reference cost): the machine ran at half speed
    # around the first 50 requests and at full speed around the rest.
    records = [(20.0, 0.5, True, 2.0, 2.0)] * 50 + [(10.0, 1.0, True, 3.0, 3.0)] * 50
    m = run.end_to_end(records, 100, [(0.4, 0.5), (0.2, 1.0), (0.2, 1.0)], {"peak_rss_mb": 1.0})
    assert m["latency_ms_p50"] == pytest.approx(10.0)
    assert m["latency_ms_p90"] == pytest.approx(10.0)
    assert m["queries_per_s"] == pytest.approx(100.0)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["cost_ratio"] == 1.0 and m["success_ratio"] == 1.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    spans = [Span("root", 0.0, 10.0, -1, 1), Span("a", 1.0, 4.0, 0, 1),
             Span("b", 5.0, 9.0, 0, 1), Span("c", 6.0, 8.0, 2, 1)]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_goo_under_exhaustive_counts_as_the_bound():
    tr = Tracer(spans=[Span("enumerators.exhaustive", 0.0, 0.010, -1, 1),
                       Span("enumerators.goo", 0.001, 0.003, 0, 1),
                       Span("enumerators.goo", 0.020, 0.024, -1, 2)])
    m = tracing.pass_metrics(tr, 0, {})
    assert m["enumerators.goo_bound_ms"] == pytest.approx(2.0)
    assert m["enumerators.goo_ms"] == pytest.approx(4.0)
    assert m["enumerators.exhaustive_self_ms"] == pytest.approx(8.0)


def test_pass_metrics_ignore_earlier_passes():
    tr = Tracer(spans=[Span("plan.plan_to_json", 0.0, 1.0, -1, 1),
                       Span("plan.plan_to_json", 2.0, 2.5, -1, 2)],
                counters={"cost.merge_calls": 10, "cost.merge_distinct": 4})
    m = tracing.pass_metrics(tr, 1, {"cost.merge_calls": 6, "cost.merge_distinct": 2})
    assert m["plan.serialize_ms"] == pytest.approx(500.0)
    assert m["cost.merge_calls"] == 4
    assert m["cost.merge_reuse"] == pytest.approx(0.5)


def test_zero_layer_is_reported():
    metrics = {name: 1.0 for name, _u, _b, _w in tracing.LAYER_METRICS}
    assert tracing.check_required("exact", metrics) == []
    metrics["kernels.dp_ms"] = 0.0
    metrics["kernels.brute_ms"] = 0.0  # not meant to run on exact
    assert tracing.check_required("exact", metrics) == ["kernels.dp_ms"]


def test_scan_counters_count_the_connectivity_tests():
    import workloads  # noqa: F401  (puts src/ on the path)
    from spanplan import graph

    # chain 0-1-2: the scan tests masks 1..7; all but {0, 2} are connected.
    g, _model = graph.gen_topology("chain", 3, 0)
    tr = Tracer()
    restore = tracing.install(tr)
    try:
        tr.active = True
        found = graph.connected_subset_masks(g)
    finally:
        tr.active = False
        restore()
    assert found == [0b001, 0b010, 0b011, 0b100, 0b110, 0b111]
    m = tracing.pass_metrics(tr, 0, {})
    assert m["graph.masks_scanned"] == 7
    assert m["graph.connected_found"] == 6
    assert m["graph.subset_yield"] == pytest.approx(6 / 7)


def test_renamed_entry_point_fails_before_patching(monkeypatch):
    import workloads  # noqa: F401  (puts src/ on the path)
    from spanplan import enumerators, graph

    original = graph.load_document
    monkeypatch.delattr(enumerators, "goo")
    with pytest.raises(AttributeError):
        tracing.install(Tracer())
    assert graph.load_document is original


def test_every_span_feeds_a_required_metric():
    required = {name for name, _u, _b, wl in tracing.LAYER_METRICS if wl}
    assert set(tracing.SELF_TIME.values()) | {"enumerators.goo_bound_ms"} <= required


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(n, u, b) for n, u, b, _w in tracing.LAYER_METRICS]


def test_q2a_pins_match_the_roadmap():
    import workloads

    ref = workloads.load_reference()
    pins = workloads.Q2A_PINS
    assert ref["exact/q2a"]["cost"] == pins["cost"]
    assert ref["exact/q2a"]["edges"] == pins["edges"]
    assert ref["oracle/q2a"]["counts"] == pins["counts"]


def test_seed_fixes_the_inputs():
    import workloads

    work = HERE / "_work" / "test-seed"
    try:
        a = workloads.make_slots("cli_short", "full", 7, work)
        b = workloads.make_slots("cli_short", "full", 7, work)
        c = workloads.make_slots("cli_short", "full", 8, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert a == b and a != c
    ref = workloads.load_reference()
    assert all(slot.key in ref for slot in a + c)


def test_compare_refuses_different_backends(capsys):
    import compare

    work = HERE / "_work" / "test-compare"
    work.mkdir(parents=True, exist_ok=True)
    metrics = {"setup_s": {"value": 1.0, "unit": "s"}}
    paths = []
    for backend in ("pure", "compiled"):
        stamp = {"backend": backend, "workload": "exact", "profile": "full", "trace": 0}
        paths.append(work / f"{backend}.json")
        paths[-1].write_text(json.dumps({"stamp": stamp, "result": {"metrics": metrics}}))
    try:
        assert compare.main([str(paths[0]), str(paths[0])]) == 0
        assert compare.main([str(paths[0]), str(paths[1])]) == 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert "refusing" in capsys.readouterr().out


def test_watchdog_stops_a_long_run_and_keeps_its_records():
    args = Namespace(workload="exact", seed=1, seconds=60.0, trace=0, profile="tiny")
    lines, _code, killed = run.run_worker(args, timeout=4.0)
    setup, records, done = run.parse(lines)
    assert killed and done is None and setup is not None and records


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--profile", "tiny"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [n for n, _u, _b, _w in tracing.LAYER_METRICS]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--profile", "tiny"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    metrics = res["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == run.END_TO_END
    assert metrics["cost_ratio"]["value"] == 1.0
    assert metrics["success_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(HERE / "reference.json", bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
