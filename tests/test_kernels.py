"""Equivalence of the pure-Python and compiled kernels.

The two backends must agree bit-for-bit: same costs, same reconstruction
choices, same counters.  When kernels.c is not built in place, or the
in-place build is older than kernels.c, the compiled backend is built into
a temporary directory with setup.py and opened from there; the tests skip
only when no C compiler is found.
"""
import ast
import ctypes
import itertools
import math
import os
import random
import struct
import subprocess
import sys
import time
import types
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import formula
from spanplan._kernels.loader import _CODES, VERSION, _Problem, _problem, open_library
from spanplan.cost import CostContext
from spanplan.graph import JoinEdge, TableInfo, connected_subset_masks, iter_bits
from spanplan.plan import replay

from .conftest import (IRREGULAR_KINDS, ROOT, SOURCE, _compiler, irregular_graph,
                       irregular_instances, mixed_instances)


def test_kernels_c_compiles_without_warnings(tmp_path):
    # -Wall names a static function or variable that nothing uses any more,
    # and -Wcast-qual a cast that would let a kernel write its const problem.
    proc = subprocess.run([*_compiler(), "-std=c99", "-O2", "-Wall", "-Wextra", "-Wcast-qual",
                           "-Werror", "-ffp-contract=off", "-c", str(SOURCE), "-o",
                           str(tmp_path / "kernels.o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Run in a process whose allocator ASan replaces: every kernel against pure
# on small graphs, each search's joins filling its buffer, greedy_search and
# model_cards over clique-20's three-word edge bitsets, merge_pairs on
# every edge's two tables, one instance's
# kept problem through a failing call, two searches and a passing call, a
# grouped clique-6 walk, chain-9 and cycle-9 walks whose forest memo grows
# many times, star-10 and cycle-10 walks whose record of walked costs grows
# with it, a clique-11 walk stopped by its deadline, a clique-12 walk
# refused, masks check_masks refuses, searches on loaded arrays after the
# document, the graph and the model are dropped, and a
# model of a smaller graph refused by its context and by the loader.
SANITIZED_RUN = """
import gc, sys, time
import spanplan as sp
from spanplan import _kernels
from spanplan._kernels import formula
from spanplan._kernels.loader import _problem, open_library
from spanplan.cost import CostContext
from spanplan.graph import connected_subset_masks
from tests.conftest import irregular_graph
from tests.test_kernels import BAD_MASKS

lib, pure = open_library(sys.argv[1]), _kernels.pure

def outcome(backend, kernel, *args):
    try:
        return getattr(backend, kernel)(*args)
    except (KeyError, ValueError, sp.SpanPlanError) as exc:
        return type(exc), exc.args

cases = [sp.gen_topology(kind, n, seed=n) for kind in ("chain", "cycle", "star", "clique")
         for n in (3, 4, 6)]
cases += [irregular_graph(kind, 6, seed=3) for kind in ("tree", "chorded", "grid", "gnp")]
for graph, model in cases:
    masks = connected_subset_masks(graph)
    catalog = sp.CardinalityCatalog(entries={m: model.lookup(graph, m) for m in masks[::2]})
    for source in (model, catalog):
        inst = CostContext(graph, source).instance
        runs = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL)
                for e in (None, *range(graph.n_edges))]
        pairs = [(1 << u, 1 << v) for u, v in zip(graph.edge_u, graph.edge_v)]
        calls = [("model_cards", inst, masks), ("greedy_search", inst, runs),
                 ("dp_search", inst, masks), ("brute_search", inst),
                 ("merge_pairs", inst, pairs)]
        for call in calls:
            assert outcome(lib, *call) == outcome(pure, *call), call[0]
        if isinstance(source, sp.SelectivityModel):
            bound = lib.greedy_search(inst, runs)[0]
            assert lib.dp_search(inst, masks, bound) == pure.dp_search(inst, masks, bound)
            # Each search fills its whole join buffer: n - 1 joins of four fields.
            for kernel, *args in calls[1:4]:
                joins = getattr(lib, kernel)(*args)[1]
                assert [len(join) for join in joins] == [4] * (graph.n_vertices - 1), kernel

graph, model = sp.gen_topology("clique", 20, seed=20)
inst = CostContext(graph, model).instance
runs = [(formula.PRIM, 0), (formula.PRIM, graph.n_edges - 1), (formula.KRUSKAL, 64),
        (formula.KRUSKAL, None)]
masks = [1 << e.v1 | 1 << e.v2 for e in graph.edges] + [1 | 1 << 19 | 1 << v for v in range(1, 19)]
for call in (("greedy_search", inst, runs), ("model_cards", inst, masks)):
    assert outcome(lib, *call) == outcome(pure, *call), call[0]

# One flattened problem serves every call on a model's instance: a call that
# fails on an overflowing estimate, two searches, then a call that succeeds,
# each naming its own first missing mask or returning what pure returns.
big, over = sp.gen_topology("clique", 7, seed=1, base_range=(10**80, 10**81),
                            sel_range=(0.5, 1.0))
inst = CostContext(big, over).instance
masks = connected_subset_masks(big)
small = [m for m in masks if bin(m).count("1") <= 3]  # three bases stay below a float's limit
calls = [("model_cards", inst, masks), ("greedy_search", inst, [(formula.KRUSKAL, None)]),
         ("dp_search", inst, small), ("model_cards", inst, small)]
got = [outcome(lib, *call) for call in calls]
assert got == [outcome(pure, *call) for call in calls]
assert got[0][0] is got[1][0] is KeyError and got[0] != got[1] and len(got[3]) == len(small)
assert _problem(inst) is _problem(inst)

# The grouped walk of clique-6; the chain-9 and cycle-9 walks, whose memo
# of walked forests grows from room for 32 to over a thousand; the clique-11
# walk (55 edges) stopped by its deadline; clique-12's 66 edges, more than
# one word holds, refused before the walk.
for kind, n in (("clique", 6), ("chain", 9), ("cycle", 9)):
    inst = CostContext(*sp.gen_topology(kind, n, seed=0)).instance
    assert outcome(lib, "brute_search", inst) == outcome(pure, "brute_search", inst), kind
# The star-10 and cycle-10 walks, too long for pure, whose forests come back
# cheaper and are walked again: their counts are the closed form's and
# their cost the DP's.
for kind, n in (("star", 10), ("cycle", 10)):
    graph, model = sp.gen_topology(kind, n, seed=0)
    inst = CostContext(graph, model).instance
    cost, joins, valid, linear, *_ = lib.brute_search(inst)
    assert (valid, linear) == _kernels.count_trees(n, graph.edge_u, graph.edge_v), kind
    assert cost == lib.dp_search(inst, connected_subset_masks(graph))[0], kind
graph, model = sp.gen_topology("clique", 11, seed=0)
try:
    lib.brute_search(CostContext(graph, model).instance, time.perf_counter() + 0.01)
    raise AssertionError("the clique-11 walk finished within 10 ms")
except sp.OptimizeTimeout:
    pass
inst = CostContext(*sp.gen_topology("clique", 12, seed=0)).instance
assert outcome(lib, "brute_search", inst)[0] is ValueError
inst = CostContext(*sp.gen_topology("chain", 5, seed=1)).instance
for kernel, calls in BAD_MASKS.items():
    for args in calls:
        assert outcome(lib, kernel, inst, *args)[0] is ValueError, (kernel, args)

# The instance holds the arrays the load built; the document text, the
# graph, the model and the loader's temporaries are gone before the calls.
for shape in ("gnp", "chorded"):
    text = sp.graph_to_json(*irregular_graph(shape, 7, seed=5))
    graph, model = sp.load_document(text)
    inst, masks, m = CostContext(graph, model).instance, connected_subset_masks(graph), graph.n_edges
    del text, graph, model
    gc.collect()
    runs = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL) for e in (None, *range(m))]
    for call in (("greedy_search", inst, runs), ("dp_search", inst, masks),
                 ("brute_search", inst), ("model_cards", inst, masks)):
        assert outcome(lib, *call) == outcome(pure, *call), call[0]

# A chain-4 model with a chain-6 graph: its context refuses it, and an
# instance built from its arrays is refused before any kernel reads them.
graph, model = sp.gen_topology("chain", 6, seed=1)
small = sp.gen_topology("chain", 4, seed=1)[1]
try:
    CostContext(graph, small)
    raise AssertionError("a chain-4 model fitted a chain-6 graph")
except sp.GraphFormatError:
    pass
good = CostContext(graph, model).instance
bad = formula.Instance(good.n, good.edge_u, good.edge_v, good.scan, good.indexed, good.lam,
                       good.edge_of,
                       model=(small.graph.bases, small.graph.edge_masks, small.selectivities))
for call in (("greedy_search", bad, [(formula.KRUSKAL, None)]), ("model_cards", bad, [63]),
             ("dp_search", bad, connected_subset_masks(graph)), ("brute_search", bad)):
    assert outcome(lib, *call)[0] is ValueError, call[0]
print("ok")
"""


def test_every_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    cc = _compiler()
    runtime = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no libasan for the C compiler")
    library = tmp_path / "sanitized.so"
    subprocess.run([*cc, "-shared", "-fPIC", "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=all", "-fno-omit-frame-pointer", "-ffp-contract=off",
                    str(SOURCE), "-o", str(library), "-lm"], check=True)
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-4000:]


def _unpacked(prob) -> list:
    """The values of each array field of a compiled problem, read from the
    one buffer it keeps, None for a NULL field."""
    at = ctypes.cast(prob.buffer, ctypes.c_void_p).value
    lengths = (prob.n_edges, prob.n_edges, prob.n, prob.n, prob.n_cards, prob.n_cards, prob.n,
               prob.n_edges)
    out = []
    for (field, _type), code, k in zip(_Problem._fields_[4:], _CODES, lengths):
        start = getattr(prob, field)
        if start is None:
            out.append(None)
            continue
        start -= at
        end = start + k * struct.calcsize(code)
        assert 0 <= start <= end <= len(prob.buffer), field
        out.append(tuple(memoryview(prob.buffer)[start:end].cast(code)))
    return out


def _c_problem(name, inst):
    """C definitions of a kernels.c problem called name, flattened from inst
    as the loader flattens it; each double is written exactly, in hex."""
    prob = _problem(inst)
    ctypes_of = {"i": "int", "d": "double", "b": "int8_t", "Q": "mask_t"}
    lines, inits = [], [f".n = {prob.n}", f".n_edges = {prob.n_edges}",
                        f".n_cards = {prob.n_cards}", f".lam = {prob.lam.hex()}"]
    for (field, _type), code, values in zip(_Problem._fields_[4:], _CODES, _unpacked(prob)):
        if values:  # absent (None) or empty
            values = ", ".join(x.hex() if code == "d" else str(x) for x in values)
            lines.append(f"static const {ctypes_of[code]} {name}_{field}[] = {{{values}}};")
            inits.append(f".{field} = {name}_{field}")
    return "\n".join(lines + [f"static const problem {name} = {{{', '.join(inits)}}};"])


# Includes kernels.c for its problem type, and prints each call's outcome
# as the tokens _tokens gives.  The problems, and shared's greedy runs and
# DP masks, are defined where %s stands.
TSAN_DRIVER = r"""
#include "kernels.c"
#include <pthread.h>
#include <stdio.h>

%s

static void print_result(int rc, mask_t missing, double cost, const mask_t *joins, int n_joins,
                         const int64_t *counts, int n_counts) {
    double out;
    if (rc) {
        printf("%%d %%llu\n", rc, (unsigned long long)missing);
        return;
    }
    printf("%%a", cost);
    for (int i = 0; i < n_joins; i++) {
        memcpy(&out, joins + 4 * i + 3, sizeof out);
        printf(" %%llu %%llu %%llu %%a", (unsigned long long)joins[4 * i],
               (unsigned long long)joins[4 * i + 1], (unsigned long long)joins[4 * i + 2], out);
    }
    for (int i = 0; i < n_counts; i++)
        printf(" %%lld", (long long)counts[i]);
    printf("\n");
}

/* One search, run by a thread of its own. */
typedef struct { int rc; double cost; mask_t joins[4 * 24], missing; int64_t counts[5]; } run;

static void *greedy_thread(void *arg) {
    run *r = arg;
    r->rc = sp_greedy_search(&shared, shared_runs, sizeof shared_runs / sizeof *shared_runs / 2,
                             0.0, &r->cost, r->joins, r->counts, &r->missing);
    return NULL;
}

static void *dp_thread(void *arg) {
    run *r = arg;
    r->rc = sp_dp_search(&shared, shared_masks, sizeof shared_masks / sizeof *shared_masks,
                         INFINITY, 0.0, &r->cost, r->counts, r->joins, &r->missing);
    return NULL;
}

static void *walk_thread(void *arg) {
    run *r = arg;
    r->rc = sp_brute_search(&cycle8, 0.0, &r->cost, r->joins, r->counts, &r->missing);
    return NULL;
}

int main(void) {
    run greedy = { 0 }, dp = { 0 }, walk = { 0 };
    pthread_t threads[3];
    /* greedy_search and dp_search on one problem, and a walk, at once. */
    if (pthread_create(&threads[0], NULL, greedy_thread, &greedy)
        || pthread_create(&threads[1], NULL, dp_thread, &dp)
        || pthread_create(&threads[2], NULL, walk_thread, &walk))
        return 1;
    for (int i = 0; i < 3; i++)
        pthread_join(threads[i], NULL);
    print_result(greedy.rc, greedy.missing, greedy.cost, greedy.joins, shared.n - 1,
                 greedy.counts, 4);
    print_result(dp.rc, dp.missing, dp.cost, dp.joins, shared.n - 1, dp.counts, 2);
    print_result(walk.rc, walk.missing, walk.cost, walk.joins, cycle8.n - 1, walk.counts, 5);
    return 0;
}
"""


def _tokens(search, *args):
    """pure's search on args as the driver prints it: (cost, joins, counts)
    or KeyError's status and mask, floats as floats."""
    try:
        cost, joins, *counts = getattr(_kernels.pure, search)(*args)
    except KeyError as exc:
        return [2, *exc.args]
    return [cost, *itertools.chain.from_iterable(joins), *counts]


def test_searches_sharing_one_problem_run_clean_under_thread_sanitizer(tmp_path):
    # este's members and the DP on one clique-7 model problem, and the
    # cycle-8 walk, which records its forests in a memo of its own, on
    # three threads at once.  The driver is a C program of its own: libtsan
    # is never preloaded into python3.
    cc = _compiler()
    runtime = subprocess.run([*cc, "-print-file-name=libtsan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no libtsan for the C compiler")
    cycle8 = CostContext(*sp.gen_topology("cycle", 8, seed=1)).instance
    graph, model = sp.gen_topology("clique", 7, seed=2)
    shared, runs, masks = CostContext(graph, model).instance, _greedy_runs(graph)[-1], \
        connected_subset_masks(graph)
    definitions = [_c_problem(name, inst) for name, inst in
                   {"cycle8": cycle8, "shared": shared}.items()]
    definitions += [
        "static const int shared_runs[] = {%s};" % ", ".join(
            str(-1 if x is None else x) for run in runs for x in run),
        "static const mask_t shared_masks[] = {%s};" % ", ".join(map(str, masks))]
    driver = tmp_path / "driver.c"
    driver.write_text(TSAN_DRIVER % "\n".join(definitions))
    binary = tmp_path / "driver"
    subprocess.run([*cc, "-std=c99", "-O1", "-g", "-pthread", "-fsanitize=thread",
                    "-ffp-contract=off", f"-I{SOURCE.parent}", str(driver), "-o", str(binary),
                    "-lm"], check=True)
    proc = subprocess.run([str(binary)], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, TSAN_OPTIONS="halt_on_error=1"))
    assert proc.returncode == 0 and "ThreadSanitizer" not in proc.stderr, proc.stderr[-4000:]
    got = [[float.fromhex(t) if "x" in t else int(t) for t in line.split()]
           for line in proc.stdout.splitlines()]
    assert got == [_tokens("greedy_search", shared, runs), _tokens("dp_search", shared, masks),
                   _tokens("brute_search", cycle8)]


# Runs in a process that may use every CPU or, pinned, only the first: the
# cycle-10 and star-9 walks on the compiled backend at sys.argv[1], five
# times each, while a thread polls how many threads the process has.
# Prints both.
THREAD_COUNT_RUN = """
import os, sys, threading
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import spanplan as sp
from spanplan._kernels.loader import open_library
from spanplan.cost import CostContext

lib, most, done = open_library(sys.argv[1]), 0, False

def poll():
    global most
    while not done:
        most = max(most, len(os.listdir("/proc/self/task")))

poller = threading.Thread(target=poll)
poller.start()
walks = [CostContext(*sp.gen_topology(kind, n, seed=1)).instance
         for kind, n in (("cycle", 10), ("star", 9))]
results = [lib.brute_search(inst) for inst in walks for _ in range(5)]
done = True
poller.join()
print(repr((most, results)))
"""


def test_the_walk_never_starts_a_thread_pinned_or_free(tmp_path):
    # Whatever CPUs the process may use, no thread is ever seen beside the
    # main one and the poller, and the results are the same.
    if not hasattr(os, "sched_setaffinity") or not os.path.isdir("/proc/self/task"):
        pytest.skip("no CPU affinity or /proc/self/task to observe threads by")
    library = tmp_path / "kernels.so"
    subprocess.run([*_compiler(), "-shared", "-fPIC", "-O2", "-ffp-contract=off",
                    str(SOURCE), "-o", str(library), "-lm"], check=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for how in ("pinned", "free"):
        proc = subprocess.run([sys.executable, "-c", THREAD_COUNT_RUN, str(library), how],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        runs[how] = ast.literal_eval(proc.stdout)
    assert runs["pinned"][0] == runs["free"][0] == 2
    assert runs["pinned"][1] == runs["free"][1]


# Runs on the compiled backend at sys.argv[1]: three threads share one
# clique-6 CostContext and run este, prim, exhaustive and the oracle on it
# 300 times each in turn, switching often.  Prints "ok" when every plan and
# every counter equals the sequential run's.
SHARED_CONTEXT_RUN = """
import sys, threading
import spanplan as sp
from spanplan import _kernels
from spanplan._kernels.loader import open_library
from spanplan.cost import CostContext

_kernels._auto = open_library(sys.argv[1])
SEARCHES = (sp.este, sp.prim, sp.exhaustive, sp.brute_force_optimal)

def outcome(search):
    plan, stats = search(ctx.graph, ctx)
    return plan, (stats.subplans_reached, stats.join_costs_computed, stats.plans_enumerated,
                  stats.evaluations)

ctx = CostContext(*sp.gen_topology("clique", 6, seed=1))
want = [outcome(search) for search in SEARCHES]
got, errors = [], []

def work(k):
    try:
        for i in range(300):
            j = (i + k) % 4
            got.append((j, outcome(SEARCHES[j])))
    except BaseException as exc:
        errors.append(exc)

sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not errors and not any(thread.is_alive() for thread in threads), errors
assert len(got) == 900 and all(result == want[j] for j, result in got)
print("ok")
"""


def test_searches_on_threads_sharing_one_context_equal_the_sequential_run(tmp_path):
    # Every call on the context's instance reads its one flattened problem,
    # which no kernel writes.  A subprocess, so that a crash fails the test.
    library = tmp_path / "kernels.so"
    subprocess.run([*_compiler(), "-shared", "-fPIC", "-O2", "-ffp-contract=off",
                    str(SOURCE), "-o", str(library), "-lm"], check=True)
    proc = subprocess.run([sys.executable, "-c", SHARED_CONTEXT_RUN, str(library)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-4000:]


def test_problem_struct_has_one_size_in_c_and_ctypes(compiled):
    # The kernels write the fields they set past a ctypes struct that lacks them.
    assert compiled.problem_size == ctypes.sizeof(_Problem)


def test_a_request_instance_holds_its_graphs_and_sources_own_tuples(q2a_text):
    # A cost context passes the read-only inputs its graph and source hold,
    # not copies: only the scan costs are its own.
    graph, model = sp.load_document(sp.graph_to_json(*sp.gen_topology("clique", 6, seed=1)))
    inst = CostContext(graph, model).instance
    assert inst.edge_u is graph.edge_u and inst.edge_v is graph.edge_v
    assert inst.indexed is graph.indexed and inst.edge_of is graph.edge_of
    bases, edge_masks, sels = inst.model
    assert bases is graph.bases and edge_masks is graph.edge_masks and sels is model.selectivities
    assert type(inst.scan) is tuple and inst.catalog is None
    graph, catalog = sp.load_document(q2a_text)
    inst = CostContext(graph, catalog).instance
    assert inst.catalog is catalog.entries and inst.model is None


def test_the_compiled_problem_holds_arrays_equal_to_its_instances_tuples(compiled, q2a_text):
    graph, model = sp.load_document(sp.graph_to_json(*sp.gen_topology("clique", 6, seed=1)))
    inst = CostContext(graph, model).instance
    compiled.greedy_search(inst, [(formula.PRIM, None)])
    assert _unpacked(_problem(inst)) == [graph.edge_u, graph.edge_v, inst.scan, graph.indexed,
                                         None, None, graph.bases, model.selectivities]
    graph, catalog = sp.load_document(q2a_text)
    inst = CostContext(graph, catalog).instance
    compiled.greedy_search(inst, [(formula.PRIM, None)])
    assert _unpacked(_problem(inst))[4:] == [tuple(catalog.entries),
                                             tuple(catalog.entries.values()), None, None]
    assert _problem(inst).n_cards == len(catalog.entries)


def _exposed(graph, source, ctx) -> dict:
    """Each container a graph, its source and a context's instance expose,
    by where it is read."""
    inst = ctx.instance
    exposed = {f"graph.{name}": getattr(graph, name) for name in (
        "names", "bases", "indexed", "edge_u", "edge_v", "edge_masks", "adjacency", "edge_of",
        "name_to_id", "vertices", "edges")}
    exposed["graph.vertices[0]"] = graph.vertices[0]
    exposed.update({f"instance.{name}": getattr(inst, name)
                    for name in ("edge_u", "edge_v", "scan", "indexed", "edge_of")})
    if isinstance(source, sp.SelectivityModel):
        exposed.update({"model.selectivities": source.selectivities, "instance.model": inst.model})
    else:
        exposed.update({"catalog.entries": source.entries, "instance.catalog": inst.catalog})
    if inst.problem is not None:  # the compiled backend's packed arrays
        exposed["instance.problem.buffer"] = inst.problem.buffer
    return exposed


def _takes_assignment(container) -> bool:
    """False when assigning and deleting an item both raise TypeError."""
    key = next(iter(container.keys())) if hasattr(container, "keys") else 0
    try:
        container[key] = 1
        return True
    except TypeError:
        pass
    try:
        del container[key]
        return True
    except TypeError:
        return False


@pytest.mark.parametrize("backend_name", ["pure", "compiled"])
def test_item_assignment_into_any_checked_input_raises_on_either_backend(compiled, q2a,
                                                                        monkeypatch,
                                                                        backend_name):
    # Every algorithm and both backends read the inputs that were checked:
    # none of them can be written once built, nor after a search has run.
    backend = compiled if backend_name == "compiled" else _kernels.pure
    monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
    for graph, source in (q2a, sp.gen_topology("clique", 6, seed=3)):
        ctx = CostContext(graph, source)
        plans = [sp.run_algorithm(name, graph, ctx)[0] for name in sp.ALGORITHMS]
        exposed = _exposed(graph, source, ctx)
        assert ("instance.problem.buffer" in exposed) == (backend is compiled)
        assert [where for where, container in exposed.items() if _takes_assignment(container)] \
            == []
        assert [sp.run_algorithm(name, graph, source)[0] for name in sp.ALGORITHMS] == plans


def test_a_catalog_scaled_after_a_search_plans_alike_everywhere(compiled, q2a_text, monkeypatch):
    # Multiplying q2a's multi-table counts by 7 in place after one prim run
    # once left the compiled greedy search on the cached old counts
    # (4,658,001), while pure and goo planned 4,191,001 and exhaustive
    # refused a kernel cardinality.  A catalog now refuses the write, and a
    # catalog built from the scaled counts plans alike on both backends.
    graph, catalog = sp.load_document(q2a_text)
    assert sp.prim(graph, catalog)[0].internal_cost == 4_658_001
    multi = [m for m in catalog.entries if m & (m - 1)]
    with pytest.raises(TypeError):
        for m in multi:
            catalog.entries[m] *= 7
    counts = {m: rows * 7 if m in multi else rows for m, rows in catalog.entries.items()}
    scaled = sp.CardinalityCatalog(counts)
    counts.clear()  # the catalog holds its own copy
    assert len(scaled.entries) == len(catalog.entries)
    want = {"exhaustive": 3_666_001, "prim": 4_191_001, "kruskal": 4_191_001, "goo": 4_191_001,
            "este": 3_666_001}
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        assert {name: sp.run_algorithm(name, graph, scaled)[0].internal_cost
                for name in sp.ALGORITHMS} == want
        assert sp.prim(graph, catalog)[0].internal_cost == 4_658_001


def test_the_loader_refuses_arrays_shorter_than_the_kernels_read(compiled):
    # A chain-4 model's arrays under a chain-6 instance made C read past
    # their end; a cost context refuses the model first (GraphFormatError).
    graph, _model = sp.gen_topology("chain", 6, seed=1)
    small, model = sp.gen_topology("chain", 4, seed=1)
    inst = CostContext(graph, _model).instance
    short = [(small.bases, graph.edge_masks, _model.selectivities),
             (graph.bases, graph.edge_masks, model.selectivities)]
    for arrays in short:
        bad = formula.Instance(inst.n, inst.edge_u, inst.edge_v, inst.scan, inst.indexed,
                               inst.lam, inst.edge_of, model=arrays)
        with pytest.raises(ValueError, match="^kernel instance arrays must cover its 6 tables"
                                             " and 5 edges$"):
            compiled.greedy_search(bad, [(formula.PRIM, None)])
        assert bad.problem is None
    bad = formula.Instance(inst.n, inst.edge_u, inst.edge_v[:4], inst.scan, inst.indexed,
                           inst.lam, inst.edge_of, model=inst.model)
    with pytest.raises(ValueError):
        compiled.model_cards(bad, [1])


def _context(graph, model):
    ctx = CostContext(graph, model)
    ctx.ensure_cards(connected_subset_masks(graph))
    return ctx


def _instance(graph, model):
    return _context(graph, model).instance


def _merge(inst, l_mask, r_mask):
    """formula.merge over a memo of its own, as every kernel call reads
    cardinalities (pure._Cards)."""
    return formula.merge(inst, _kernels.pure._Cards(inst), l_mask, r_mask)


def _joins_cost(inst, joins):
    """The cost of a search's joins priced by _merge and summed as the
    kernels sum them; each join's out card must be _merge's."""
    cost_of = {1 << v: 0.0 for v in range(inst.n)}
    for _edge, left, right, out in joins:
        step, _op, _side, want = _merge(inst, left, right)
        assert out == want, (left, right)
        cost_of[left | right] = step + cost_of[left] + cost_of[right]
    return cost_of[(1 << inst.n) - 1]


def test_merge_equivalence(q2a, compiled):
    # The C cost formula against formula.merge on every join each compiled
    # search returns: its out card, and its cost summed bit for bit.
    for kind, n, graph, model in mixed_instances(12, base_seed=6000):
        inst = _instance(graph, model)
        for cost, joins, *_counts in (
                compiled.dp_search(inst, connected_subset_masks(graph)),
                compiled.greedy_search(inst, _greedy_runs(graph)[-1]),
                compiled.brute_search(inst)):
            assert _joins_cost(inst, joins) == cost, (kind, n)
    # merge_pairs on every ordered split of a connected subset into two
    # connected sides: its (cost, op, side, out card) are formula.merge's,
    # bit for bit, on both backends, under the model and under a catalog.
    for kind, n, graph, model in mixed_instances(12, base_seed=6000):
        pairs = _splits(graph)
        for source in (model, _catalog(graph, model)):
            inst = CostContext(graph, source).instance
            want = repr([_merge(inst, left, right) for left, right in pairs])
            assert repr(_kernels.pure.merge_pairs(inst, pairs)) == want, (kind, n)
            assert repr(compiled.merge_pairs(inst, pairs)) == want, (kind, n)
    # A catalog instance whose context has priced nothing: the kernels read
    # the catalog, and none fills the context's cardinalities.
    graph, catalog = q2a
    ctx = CostContext(graph, catalog)
    inst = ctx.instance
    assert _merge(inst, 1, 2) == (1100001.0, 0, 1, 42000.0)
    assert compiled.merge_pairs(inst, [(1, 2)]) == [(1100001.0, 0, 1, 42000.0)]
    cost, joins, *_counts = compiled.brute_search(inst)
    assert _joins_cost(inst, joins) == cost == 1617001.0
    assert ctx.cards == {}


def _splits(graph):
    """Every ordered split of a connected subset into two connected sides."""
    connected = set(connected_subset_masks(graph))
    pairs = []
    for mask in sorted(connected):
        left = mask
        while left := (left - 1) & mask:
            if left in connected and mask ^ left in connected:
                pairs.append((left, mask ^ left))
    return pairs


def test_merge_equivalence_on_equal_cardinalities(compiled):
    # Seeded models rarely tie: the hash-build side breaks ties toward the
    # smaller mask, and every search on the tied instance agrees across
    # backends.
    inst = formula.Instance(
        n=3, edge_u=(0, 1), edge_v=(1, 2), scan=(2.0, 2.0, 2.0), indexed=(False,) * 3,
        lam=2.0, edge_of={3: 0, 6: 1},
        catalog={1: 10, 2: 10, 4: 10, 3: 10, 6: 10, 7: 5})
    assert [_merge(inst, l, r) for l, r in ((1, 2), (2, 1), (3, 4), (4, 3), (1, 6), (6, 1))] \
        == [(24.0, 0, 0, 10.0), (24.0, 0, 1, 10.0), (17.0, 0, 0, 5.0), (17.0, 0, 1, 5.0),
            (17.0, 0, 0, 5.0), (17.0, 0, 1, 5.0)]
    runs = [(formula.PRIM, None), (formula.KRUSKAL, None), (formula.PRIM, 0), (formula.KRUSKAL, 1)]
    for kernel, args in (("dp_search", (inst, (1, 2, 4, 3, 6, 7))), ("brute_search", (inst,)),
                         ("greedy_search", (inst, runs))):
        assert getattr(_kernels.pure, kernel)(*args) == getattr(compiled, kernel)(*args), kernel


def _catalog(graph, model):
    """The model's cardinalities as a catalog of every connected subset."""
    return sp.CardinalityCatalog(
        entries={m: model.lookup(graph, m) for m in connected_subset_masks(graph)})


def _greedy_runs(graph):
    """Every member este runs, each prim and kruskal run unseeded, and the
    full ensemble, as greedy_search run lists."""
    members = [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL)
               for e in range(graph.n_edges)]
    return [[run] for run in members] + [[(formula.PRIM, None)],
                                         [(formula.KRUSKAL, None)], members]


def test_greedy_search_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(16, 6400) + irregular_instances(25, 6400):
        for source in (model, _catalog(graph, model)):
            ctx = CostContext(graph, source)
            for runs in _greedy_runs(graph):
                pure = _kernels.pure.greedy_search(ctx.instance, runs)
                assert pure == compiled.greedy_search(ctx.instance, runs), (kind, n, runs)
                assert len(pure[1]) == graph.n_vertices - 1
        assert not ctx.cards, "greedy_search must not fill the context's cardinalities"


def _word_edge_runs(graph):
    """prim and kruskal members unseeded and from the first and last edge of
    each 64-bit word of an edge bitset."""
    starts = sorted({e for lo in range(0, graph.n_edges, 64)
                     for e in (lo, min(lo + 63, graph.n_edges - 1))})
    return [(kind, e) for kind in (formula.PRIM, formula.KRUSKAL) for e in (None, *starts)]


@pytest.mark.parametrize("n", [20, 25])
def test_greedy_search_and_model_cards_equivalence_past_two_edge_words(n, compiled):
    # clique-20 has 190 edges (3 words), clique-25 has 300 (5 words).
    graph, model = sp.gen_topology("clique", n, seed=n)
    inst = CostContext(graph, model).instance
    runs = _word_edge_runs(graph)
    for run_list in [[run] for run in runs] + [runs]:
        assert _kernels.pure.greedy_search(inst, run_list) \
            == compiled.greedy_search(inst, run_list), run_list
    full, rng = graph.full_mask, random.Random(n)
    masks = [1 << e.v1 | 1 << e.v2 for e in graph.edges]
    masks += [full >> k for k in range(n)] + [full ^ ((1 << k) - 1) for k in range(n)]
    masks += [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(200)]
    assert _kernels.pure.model_cards(inst, masks) == compiled.model_cards(inst, masks)


def test_greedy_search_on_one_table(one_table, compiled):
    graph, catalog = one_table
    inst = CostContext(graph, catalog).instance
    runs = [(formula.PRIM, None), (formula.KRUSKAL, None)]
    assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs) \
        == (0.0, [], 0, 0, 0, 1)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 10), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_greedy_search_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    inst = CostContext(graph, _catalog(graph, model) if full_catalog else model).instance
    for runs in _greedy_runs(graph):
        assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs), runs


# kernels.c keeps a union's first TAGS = 3 split tags in its card-memo slot
# and the rest in an overflow set.
INLINE_TAGS = 3


@pytest.mark.parametrize("kind, n, seed", [("cycle", 20, 5), ("clique", 15, 3), ("chain", 20, 3)])
def test_greedy_search_equivalence_past_the_inline_split_tags(kind, n, seed, compiled):
    graph, model = sp.gen_topology(kind, n, seed=seed)
    inst = CostContext(graph, model).instance
    runs = _greedy_runs(graph)[-1]
    search = _kernels.pure._Greedy(inst, 0.0)
    for run in runs:
        search.member(*run)
    assert max(map(len, search.tags.values())) > INLINE_TAGS
    assert _kernels.pure.greedy_search(inst, runs) == compiled.greedy_search(inst, runs)


def test_greedy_members_record_the_join_a_fresh_merge_gives():
    # Each join a member records carries the operator and side, and adds up
    # to the total, that pricing its two sides afresh gives, whichever end
    # of the edge prim's component lies on.  The members share one search,
    # so later ones take stored choices too.
    for kind, n, graph, model in irregular_instances(15, base_seed=7300):
        inst = CostContext(graph, model).instance
        search = _kernels.pure._Greedy(inst, 0.0)
        for member in (formula.PRIM, formula.KRUSKAL):
            for start in (None, *range(graph.n_edges)):
                joins, total = search.member(member, start)
                cost_of = {1 << v: 0.0 for v in range(n)}
                for _eid, left, right, op, side in joins:
                    step, want_op, want_side, _out = _merge(inst, left, right)
                    assert (op, side) == (want_op, want_side), (kind, n, member, start)
                    cost_of[left | right] = step + cost_of[left] + cost_of[right]
                assert cost_of[graph.full_mask] == total, (kind, n, member, start)


@pytest.mark.parametrize("kind, n, seed", [("clique", 14, 1), ("chain", 20, 0), ("star", 12, 7)])
def test_greedy_search_prices_each_evaluation_once(kind, n, seed, monkeypatch):
    # A member records the join it chose as its candidate priced it, so one
    # este search calls formula.merge exactly once per evaluation.
    graph, model = sp.gen_topology(kind, n, seed=seed)
    inst = CostContext(graph, model).instance
    calls = []
    real = _kernels.pure._merge
    monkeypatch.setattr(_kernels.pure, "_merge",
                        lambda *args: calls.append(args) or real(*args))
    evals = _kernels.pure.greedy_search(inst, _greedy_runs(graph)[-1])[4]
    assert len(calls) == evals


@pytest.mark.parametrize("runs", [[], [(formula.KRUSKAL, 3)], [(formula.PRIM, 7)],
                                  [(formula.KRUSKAL, -2)], [(formula.PRIM, -1)], [(2, None)],
                                  [(formula.PRIM, 0), (formula.KRUSKAL, 3)],
                                  [(formula.PRIM, True)], [(formula.KRUSKAL, 1.0)],
                                  [(formula.PRIM, 1), (formula.PRIM, True)]])
def test_greedy_search_rejects_a_run_list_it_cannot_run_on_both_backends(runs, compiled):
    # chain-4 has edges 0..2; the C kernel would index its edge arrays by
    # the start, so a run list is checked before any C call.  A start that
    # only compares equal to an edge id (True, 1.0) would name edge 1 in
    # compiled's joins and itself in pure's.
    graph, model = sp.gen_topology("chain", 4, seed=0)
    inst = CostContext(graph, model).instance
    for backend in (_kernels.pure, compiled):
        with pytest.raises(ValueError, match="greedy_search"):
            backend.greedy_search(inst, runs)


class Raised(NamedTuple):
    """A SpanPlanError that a run raised.  A Plan is a tuple too, so errors
    are told apart by this type, not by being tuples."""

    type: type
    message: str


def _on_each_backend(compiled, monkeypatch, run):
    """What run() returns or raises on the pure and then the compiled backend."""
    outcomes = []
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        try:
            outcomes.append(run())
        except sp.SpanPlanError as exc:
            outcomes.append(Raised(type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("algo", ["prim", "kruskal", "este"])
def test_greedy_overflow_is_the_same_limit_error_on_both_backends(algo, compiled, monkeypatch):
    graph, model = sp.gen_topology("clique", 7, seed=1, base_range=(10**80, 10**81),
                                   sel_range=(0.5, 1.0))
    pure, fast = _on_each_backend(compiled, monkeypatch,
                                  lambda: sp.run_algorithm(algo, graph, model))
    assert pure == fast
    assert pure.type is sp.LimitExceededError and "overflows a float" in pure.message


@pytest.mark.parametrize("algo", ["prim", "kruskal", "este"])
def test_greedy_missing_entry_is_the_same_error_on_both_backends(algo, q2a, compiled,
                                                                  monkeypatch):
    # On 8 tables a member's components carry their cardinalities through
    # several joins before one of them is missed.
    irregular, model = irregular_graph("gnp", 8, 0)
    for graph, catalog in (q2a, (irregular, _catalog(irregular, model))):
        errors = 0
        for missing in (m for m in catalog.entries if m & (m - 1)):
            entries = {m: c for m, c in catalog.entries.items() if m != missing}
            source = sp.CardinalityCatalog(entries=entries)
            pure, fast = _on_each_backend(compiled, monkeypatch,
                                          lambda: sp.run_algorithm(algo, graph, source)[0])
            assert pure == fast
            if isinstance(pure, Raised):
                assert pure.type is sp.MissingCardinalityError
                assert graph.subset_key(missing) in pure.message
                errors += 1
        assert errors > 0, graph.n_vertices


def test_greedy_search_timeout_on_both_backends(compiled):
    graph, model = sp.gen_topology("clique", 6, seed=0)
    inst = CostContext(graph, model).instance
    runs = _greedy_runs(graph)[-1]
    for backend in (_kernels.pure, compiled):
        with pytest.raises(sp.OptimizeTimeout):
            backend.greedy_search(inst, runs, deadline=1e-9)


def test_dp_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(20, 6100) + irregular_instances(25, 6100):
        inst = _instance(graph, model)
        masks = connected_subset_masks(graph)
        for bound in (math.inf, sp.goo(graph, model)[0].internal_cost):
            assert _kernels.pure.dp_search(inst, masks, bound) == \
                compiled.dp_search(inst, masks, bound), (kind, n, bound)


def test_brute_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(16, 6200) + irregular_instances(25, 6200):
        inst = _instance(graph, model)
        pure = _kernels.pure.brute_search(inst)
        fast = compiled.brute_search(inst)
        assert pure == fast


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 10), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_dp_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    source = _catalog(graph, model) if full_catalog else model
    inst = _instance(graph, source)
    masks = connected_subset_masks(graph)
    goo = sp.goo(graph, source)[0]

    def lowest(s1, s2):
        return formula.lowest_edge(graph.edge_u, graph.edge_v, s1, s2)

    # Every join of exhaustive's kernel on either backend and of goo takes
    # the lowest edge between its sides.
    for bound in (math.inf, goo.internal_cost):
        pure = _kernels.pure.dp_search(inst, masks, bound)
        assert pure == compiled.dp_search(inst, masks, bound), bound
        assert all(edge == lowest(l, r) for edge, l, r, _out in pure[1]), bound
    assert all(step.edge == lowest(step.left_mask, step.right_mask) for step in goo.steps)
    # choose_operator refuses exactly the disjoint sides that no edge joins.
    small = [m for m in masks if bin(m).count("1") <= 2]
    for l_mask, r_mask in itertools.combinations(small, 2):
        if l_mask & r_mask:
            continue
        joined = any(l_mask >> u & r_mask >> v & 1 or l_mask >> v & r_mask >> u & 1
                     for u, v in zip(graph.edge_u, graph.edge_v))
        if joined:
            sp.choose_operator(graph, source, None, l_mask, r_mask)
        else:
            with pytest.raises(sp.GraphFormatError, match="cross-join"):
                sp.choose_operator(graph, source, None, l_mask, r_mask)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 7), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_brute_equivalence_on_any_irregular_graph(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    inst = _instance(graph, _catalog(graph, model) if full_catalog else model)
    assert _kernels.pure.brute_search(inst) == compiled.brute_search(inst)


@pytest.mark.parametrize("kind, n", [("clique", 6), ("clique", 7), ("cycle", 9), ("cycle", 10),
                                     ("chain", 11), ("star", 10), ("star", 11)])
def test_the_grouped_walk_counts_every_arrangement_and_finds_the_optimum(compiled, kind, n):
    # Walks too long for pure (clique-7: 13.8 million evaluations, star-11:
    # 10! arrangements): the compiled walk's valid and linear counts, of
    # which it walks only each group's lowest edge and each forest only when
    # it comes back cheaper, equal the closed form's, and its cost the DP's.
    graph, model = sp.gen_topology(kind, n, seed=1)
    inst = _instance(graph, model)
    cost, joins, valid, linear, *_ = compiled.brute_search(inst)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    assert (valid, linear) == compiled.count_trees(n, edge_u, edge_v)
    assert cost == sp.exhaustive(graph, model)[0].internal_cost == _joins_cost(inst, joins)


# Joins of two components whose edges run both ways, v1 in either, where
# the two orientations' costs differ in the last bit: chorded-4's last join
# ({0, 1} and {2, 3}: edge 1 from {2, 3}, edges 2 and 4 from {0, 1}) and
# clique-5's third ({0, 3} and {2, 4}: edge 1 from {0, 3}, edge 7 from
# {2, 4}).  A join adds its v1 side's cost first, so the cheaper arrangement
# takes the higher edge; a walk that took both orientations as one group
# would keep the lower edge's arrangement, which costs the blind cost.
ORIENTED = [
    (("chorded", 4, 6), [0, 3, 1], 1856043827.8000002,
     (1856043827.8, [(0, 4, 8, 71873346.0), (3, 1, 2, 136054282.0), (2, 3, 12, 1575312371.0)],
      48, 36, 10, 21, 73)),
    (("clique", 5, 2264), [2, 8, 1, 0], 1502869230.6000001,
     (1502869230.6, [(2, 1, 8, 488630840.0), (8, 4, 16, 356242072.0), (7, 20, 9, 290060267.0),
                     (0, 29, 2, 9278519.0)], 3000, 1440, 26, 90, 3760)),
]


@pytest.mark.parametrize("graph, blind_order, blind_cost, want", ORIENTED)
def test_a_group_keeps_the_orientation_of_its_edges(compiled, graph, blind_order, blind_cost,
                                                    want):
    kind, n, seed = graph
    graph, model = (sp.gen_topology(kind, n, seed=seed) if kind == "clique"
                    else irregular_graph(kind, n, seed))
    inst = _instance(graph, model)
    assert _kernels.pure.brute_search(inst) == compiled.brute_search(inst) == want
    assert _arrangement_cost(inst, blind_order) == blind_cost != want[0]


def _arrangement_cost(inst, order):
    """The cost of the arrangement of edge ids order, summed as
    brute_search sums it: each join's merge cost plus its two sides'."""
    parent, comp, cost = list(range(inst.n)), [1 << v for v in range(inst.n)], [0.0] * inst.n
    for e in order:
        ru, rv = inst.edge_u[e], inst.edge_v[e]
        while parent[ru] != ru:
            ru = parent[ru]
        while parent[rv] != rv:
            rv = parent[rv]
        lo, hi = sorted((comp[ru], comp[rv]))
        cost[rv] = _merge(inst, lo, hi)[0] + cost[ru] + cost[rv]
        comp[rv], parent[ru] = lo | hi, rv
    return cost[rv]


@pytest.mark.parametrize("kind, turn", [("cycle", 8), ("star", 7)])
def test_brute_search_keeps_the_first_of_equally_cheap_arrangements(kind, turn, compiled):
    # Equal tables and selectivities: turning the graph by one edge (edge e
    # to e + 1, mod turn) turns the optimal arrangement into another one of
    # equal cost, which pure's walk meets later.  The compiled walk, which
    # counts equivalent edges and forests that come back no cheaper without
    # walking them again, keeps the first.
    graph, model = sp.gen_topology(kind, 8, seed=0, base_range=(1000, 1000),
                                   sel_range=(0.01, 0.01))
    inst = CostContext(graph, model).instance
    pure = _kernels.pure.brute_search(inst)
    turned = [(eid + 1) % turn for eid, *_ in pure[1]]
    assert turned != [eid for eid, *_ in pure[1]]
    assert _arrangement_cost(inst, turned) == pure[0]
    assert compiled.brute_search(inst) == pure


def _without(graph, model, *missing):
    """The instance of the model's catalog of every connected subset, less
    the missing ones."""
    entries = {m: c for m, c in _catalog(graph, model).entries.items() if m not in missing}
    return CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance


# In a star the pair of the centre (0) and leaf e + 1 is a component only in
# the subtree of depth-0 edge e, the pair's own edge, and so is every
# component that holds leaf e + 1 and not leaf 1 (edge 0's).
STAR_PAIR = [0b11, 0b101, 0b1001]  # edges 0, 1, 2
STAR_LATE = 0b1011  # the centre, leaves 1 and 3: read after subtree (edge 0, edge 1)


@pytest.mark.parametrize("missing, named", [
    ((STAR_PAIR[0],), STAR_PAIR[0]),                # the first subtree
    ((STAR_PAIR[1],), STAR_PAIR[1]),                # the second
    ((STAR_PAIR[1], STAR_PAIR[2]), STAR_PAIR[1]),   # two subtrees would fail; the first does
    ((STAR_PAIR[0], STAR_PAIR[1]), STAR_PAIR[0]),
    ((STAR_LATE,), STAR_LATE),                      # late in the first subtree
])
def test_brute_search_names_the_missing_subset_the_sequential_walk_meets_first(missing, named,
                                                                               compiled):
    graph, model = sp.gen_topology("star", 8, seed=2)
    inst = _without(graph, model, *missing)
    for backend in (_kernels.pure, compiled):
        with pytest.raises(KeyError) as info:
            backend.brute_search(inst)
        assert info.value.args == (named,), backend.name


def test_brute_search_misses_what_pure_misses_for_every_subset_of_a_cycle(compiled):
    graph, model = sp.gen_topology("cycle", 8, seed=2)
    for missing in connected_subset_masks(graph):
        inst = _without(graph, model, missing)
        with pytest.raises(KeyError) as pure:
            _kernels.pure.brute_search(inst)
        with pytest.raises(KeyError) as fast:
            compiled.brute_search(inst)
        assert fast.value.args == pure.value.args == (missing,)


# A chain whose edges are listed so that the walk first reaches the forest
# {0, 1, 2, 3} by joining {0, 1} and {2, 3} (edges 0, 1, 2), a bushy order,
# and only later by a linear one (edges 0, 2, 1).  With equal tables and
# selectivities the linear order comes back at a cost no lower, so the
# forest's record holds counts but no linear count yet.
LATE_LINEAR = ((0, 1), (2, 3), (1, 2), (3, 4), (4, 5))


def _late_linear_chain():
    names = [f"t{v}" for v in range(6)]
    graph = sp.JoinGraph(tuple(TableInfo(name, 1000) for name in names),
                         tuple(JoinEdge(e, u, v, f"{names[u]}.a{e} = {names[v]}.a{e}")
                               for e, (u, v) in enumerate(LATE_LINEAR)))
    return graph, sp.SelectivityModel(graph, (0.01,) * len(LATE_LINEAR))


def _equalized(graph):
    """graph with every table of 1,000 rows, and a catalog that gives each
    connected subset of k tables 1,000 * 10 ** (k - 1) rows, so that forests
    of equal sizes come back at equal costs."""
    graph = sp.JoinGraph(tuple(v._replace(base_cardinality=1000) for v in graph.vertices),
                         graph.edges)
    return graph, sp.CardinalityCatalog(entries={
        m: 1000 * 10 ** (bin(m).count("1") - 1) for m in connected_subset_masks(graph)})


def _walk_case(shape, n, seed):
    """A chain's, a cycle's, a star's or an irregular shape's graph and
    model on n tables, or on the most tables below n that keep pure's walk
    short: at most 12 edges and 50,000 valid arrangements (chain-9,
    cycle-8, star-9); or, for "late-linear", the LATE_LINEAR chain."""
    if shape == "late-linear":
        return _late_linear_chain()
    for size in range(n, 3, -1):
        graph, model = (sp.gen_topology(shape, size, seed=seed)
                        if shape in ("chain", "cycle", "star")
                        else irregular_graph(shape, size, seed))
        if graph.n_edges <= 12 and \
                _kernels.count_trees(size, graph.edge_u, graph.edge_v)[0] <= 50_000:
            return graph, model
    raise AssertionError(f"no {shape} graph of 4 to {n} tables is short enough to walk")


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(("chain", "cycle", "star", "late-linear", *IRREGULAR_KINDS)),
       n=st.integers(5, 9), seed=st.integers(0, 10**6),
       source=st.sampled_from(("model", "catalog", "missing", "equal")),
       pick=st.integers(0, 10**6), past=st.booleans())
@example(shape="star", n=8, seed=1, source="model", pick=0, past=False)
@example(shape="cycle", n=8, seed=1, source="equal", pick=0, past=False)
@example(shape="late-linear", n=6, seed=0, source="model", pick=0, past=False)
def test_the_walk_that_expands_each_forest_once_equals_pure(compiled, shape, n, seed, source,
                                                            pick, past):
    # Chains, cycles, stars and the irregular shapes reach many forests by
    # more than one order of joins, at costs higher, lower or, with the
    # "equal" source's tables and counts, equal; the LATE_LINEAR chain
    # reaches one by a linear order only after a bushy one.  Under the model
    # (its cardinalities computed in the kernel), a catalog of every
    # connected subset, that catalog less one subset, or the equal catalog,
    # compiled returns pure's tuple or names pure's missing mask.  Past its
    # deadline, compiled stops at its first node; pure reads the clock every
    # 4096 nodes, so a short walk of pure's finishes.
    graph, model = _walk_case(shape, n, seed)
    if source == "equal":
        graph, model = _equalized(graph)
    masks = connected_subset_masks(graph)
    missing = (masks[pick % len(masks)],) if source == "missing" else ()
    inst = (CostContext(graph, model).instance if source in ("model", "equal")
            else _without(graph, model, *missing))

    def outcome(backend, deadline=0.0):
        try:
            return backend.brute_search(inst, deadline)
        except (KeyError, sp.OptimizeTimeout) as exc:
            return type(exc), exc.args

    want = outcome(_kernels.pure)
    assert outcome(compiled) == want
    if past:
        assert outcome(compiled, 1e-9)[0] is sp.OptimizeTimeout
        assert outcome(_kernels.pure, 1e-9) in (want, outcome(compiled, 1e-9))


def test_a_walk_whose_first_subtree_fails_raises_without_walking_the_rest(compiled):
    # star-12 has 11! (39.9 million) arrangements, seconds of walking.  Its
    # first subtree misses the pair of edge 0 at once, and no other subtree
    # ever reads it.
    graph, model = sp.gen_topology("star", 12, seed=1)
    inst = _without(graph, model, STAR_PAIR[0])
    for backend in (_kernels.pure, compiled):
        t0 = time.perf_counter()
        with pytest.raises(KeyError) as info:
            backend.brute_search(inst)
        assert info.value.args == (STAR_PAIR[0],)
        assert time.perf_counter() - t0 < 0.1, backend.name


def test_a_walk_that_fails_late_stops_where_it_fails(compiled):
    # star-13: the walk misses STAR_LATE after the subtree under edges 0
    # and 1 (10! arrangements, of the 12! or 479 million it would count).
    # It stops there, so the call takes about as long as star-11's whole
    # walk, whose 10! arrangements span the same forests of a centre and
    # ten leaves.
    graph, model = sp.gen_topology("star", 11, seed=1)
    inst = _without(graph, model)
    t0 = time.perf_counter()
    compiled.brute_search(inst)
    walk_11 = time.perf_counter() - t0
    graph, model = sp.gen_topology("star", 13, seed=1)
    inst = _without(graph, model, STAR_LATE)
    t0 = time.perf_counter()
    with pytest.raises(KeyError) as info:
        compiled.brute_search(inst)
    assert info.value.args == (STAR_LATE,)
    assert time.perf_counter() - t0 < 8 * walk_11


def _naive_greedy(inst, graph, kind, start):
    """prim's or kruskal's joins by the definition: at every step, price
    every pair of adjacent components anew over the lowest edge between
    them, and join the cheapest pair, ties going to the lowest edge.  prim
    only considers pairs that hold its component; kruskal joins a pair as
    its edge's (v1 side, v2 side).  Each join carries the out card a fresh
    merge of its two sides gives."""
    comp_of = [1 << v for v in range(graph.n_vertices)]
    joins = []

    def join(eid, left, right):
        joins.append((eid, left, right, _merge(inst, left, right)[3]))
        for v in iter_bits(left | right):
            comp_of[v] = left | right

    def candidates(holding):
        lowest = {}
        for e in graph.edges:
            a, b = comp_of[e.v1], comp_of[e.v2]
            if a != b and (a | b) & holding and (a | b) not in lowest:
                lowest[a | b] = e
        return [(_merge(inst, comp_of[e.v1], comp_of[e.v2])[0], e.id)
                for e in lowest.values()]

    component = 0  # prim's component, once it has one
    if start is not None:
        edge = graph.edges[start]
        join(start, 1 << edge.v1, 1 << edge.v2)
        component = comp_of[edge.v1]
    while comp_of[0] != graph.full_mask:
        prim = kind == formula.PRIM and component
        _cost, eid = min(candidates(component if prim else graph.full_mask))
        edge = graph.edges[eid]
        left, right = comp_of[edge.v1], comp_of[edge.v2]
        if prim and right == component:
            left, right = right, left  # prim joins (its component, the new table)
        join(eid, left, right)
        component = left | right
    return joins


def test_greedy_joins_match_a_reference_that_reprices_every_pair_at_every_step(compiled):
    cases = [irregular_graph(kind, n, seed) for kind in IRREGULAR_KINDS for n in (5, 9, 12)
             for seed in range(2)]
    cases += [(graph, model) for _kind, _n, graph, model in mixed_instances(12, base_seed=7100)]
    for graph, model in cases:
        inst = CostContext(graph, model).instance
        for kind in (formula.PRIM, formula.KRUSKAL):
            for start in (None, *range(graph.n_edges)):
                naive = _naive_greedy(inst, graph, kind, start)
                for backend in (_kernels.pure, compiled):
                    assert backend.greedy_search(inst, [(kind, start)])[1] == naive, \
                        (backend.name, kind, start)


def _searches(backend, graph, model):
    """Each search kernel's result on one instance, by the algorithm whose
    plan it finds."""
    inst = _instance(graph, model)
    greedy = CostContext(graph, model).instance
    return {"este": backend.greedy_search(greedy, _greedy_runs(graph)[-1]),
            "exhaustive": backend.dp_search(inst, connected_subset_masks(graph)),
            "brute_force": backend.brute_search(inst)}


def test_search_kernels_return_cost_then_joins_of_their_two_sides(compiled):
    for kind, n, graph, model in mixed_instances(16, base_seed=6500):
        for backend in (_kernels.pure, compiled):
            for algorithm, (cost, joins, *_counters) in _searches(backend, graph, model).items():
                assert len(joins) == n - 1, (backend.name, algorithm)
                components = {1 << v for v in range(n)}
                for edge, left, right, out in joins:
                    ends = 1 << graph.edges[edge].v1 | 1 << graph.edges[edge].v2
                    assert left in components and right in components and left != right
                    assert ends & left and ends & right
                    assert out == float(model.lookup(graph, left | right))
                    components -= {left, right}
                    components.add(left | right)
                assert components == {graph.full_mask}
                plan = replay(graph, CostContext(graph, model), algorithm, joins, cost)
                assert plan.internal_cost == cost
                with pytest.raises(sp.SpanPlanError):
                    replay(graph, CostContext(graph, model), algorithm, joins, 2 * cost)


def test_search_kernels_keep_the_result_positions_perfbench_reads(q2a, compiled):
    # The perfbench tracer reads dp_search's root cost at [0], subplans at
    # [2] and splits at [3], and the valid arrangements at brute_search's [2]
    # and count_trees' [0].
    cases = [q2a] + [(graph, model) for _k, _n, graph, model in mixed_instances(8, 6600)]
    for graph, source in cases:
        exhaustive, ex_stats = sp.exhaustive(graph, source, prune=False)
        brute, brute_stats = sp.brute_force_optimal(graph, source)
        trees = sp.enumerate_ordered_trees(graph)
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        for backend in (_kernels.pure, compiled):
            inst = _instance(graph, source)
            dp = backend.dp_search(inst, connected_subset_masks(graph))
            assert (dp[0], dp[2], dp[3]) == (exhaustive.internal_cost, ex_stats.subplans_reached,
                                             ex_stats.join_costs_computed)
            walk = backend.brute_search(inst)
            assert walk[0] == brute.internal_cost == exhaustive.internal_cost
            assert walk[2] == brute_stats.plans_enumerated == trees.valid
            assert backend.count_trees(graph.n_vertices, edge_u, edge_v)[0] == trees.valid
    graph, catalog = q2a
    dp = compiled.dp_search(_instance(graph, catalog), connected_subset_masks(graph))
    assert (dp[0], dp[2], dp[3]) == (1_617_001, 14, 32)
    assert [edge for edge, _left, _right, _out in dp[1]] == [0, 3, 4, 1]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(IRREGULAR_KINDS), n=st.integers(3, 7), seed=st.integers(0, 10**6),
       full_catalog=st.booleans())
def test_each_join_carries_the_out_card_its_source_gives(compiled, kind, n, seed, full_catalog):
    graph, model = irregular_graph(kind, n, seed)
    source = _catalog(graph, model) if full_catalog else model
    for backend in (_kernels.pure, compiled):
        for algorithm, (_cost, joins, *_counters) in _searches(backend, graph, source).items():
            assert len(joins) == n - 1, (backend.name, algorithm)
            for _edge, left, right, out in joins:
                assert type(out) is float
                assert out == float(source.lookup(graph, left | right)), (backend.name, algorithm)


def _corrupting(backend, kernel: str, index: int):
    """backend's kernel, with the join it returns at index (merge_pairs: the
    pair at index of each call that prices that many) given twice its out
    card, and backend's merge_pairs, which goo runs on."""
    def run(*args, **kwargs):
        if kernel == "merge_pairs":
            priced = backend.merge_pairs(*args, **kwargs)
            if index < len(priced):
                cost, op, side, out = priced[index]
                priced[index] = (cost, op, side, 2 * out)
            return priced
        cost, joins, *counters = getattr(backend, kernel)(*args, **kwargs)
        edge, left, right, out = joins[index]
        joins[index] = (edge, left, right, 2 * out)
        return (cost, joins, *counters)

    return types.SimpleNamespace(**{"merge_pairs": backend.merge_pairs, kernel: run})


def test_replay_refuses_a_kernel_cardinality_the_context_holds_otherwise(q2a, compiled,
                                                                         monkeypatch):
    # exhaustive and the oracle fill the context with every connected
    # subset's cardinality before their kernel runs, so replay checks each
    # join's out card against it.
    graph, catalog = q2a
    masks = connected_subset_masks(graph)
    for backend in (_kernels.pure, compiled):
        for kernel, search in (("dp_search", lambda: sp.exhaustive(graph, catalog)),
                               ("brute_search", lambda: sp.brute_force_optimal(graph, catalog))):
            monkeypatch.setattr(_kernels, "get_backend",
                                lambda name="auto": _corrupting(backend, kernel, 1))
            ctx = CostContext(graph, catalog)
            ctx.ensure_cards(masks)
            _cost, joins, *_ = getattr(backend, kernel)(ctx.instance, *(
                (masks,) if kernel == "dp_search" else ()))
            _edge, left, right, out = joins[1]
            want = (f"kernel cardinality {2 * out!r} of {{{graph.subset_key(left | right)}}}"
                    f" does not match the context's {out!r}")
            with pytest.raises(sp.SpanPlanError) as info:
                search()
            assert str(info.value) == want, (backend.name, kernel)


def test_bench_replay_checks_a_kernel_cardinality_against_its_shared_context(q2a, compiled,
                                                                             monkeypatch):
    # bench prices every algorithm in one context: exhaustive fills it
    # first, so a greedy kernel's corrupted out card is refused.
    graph, catalog = q2a
    monkeypatch.setattr(_kernels, "get_backend",
                        lambda name="auto": types.SimpleNamespace(
                            dp_search=compiled.dp_search, model_cards=compiled.model_cards,
                            merge_pairs=compiled.merge_pairs,
                            greedy_search=_corrupting(compiled, "greedy_search", 2).greedy_search))
    ctx = CostContext(graph, catalog)
    sp.exhaustive(graph, ctx)
    with pytest.raises(sp.SpanPlanError, match="^kernel cardinality .* does not match"):
        sp.prim(graph, ctx)


def test_goo_checks_a_kernel_cardinality_against_its_shared_context(q2a, compiled,
                                                                    monkeypatch):
    # exhaustive fills the context with every connected subset before its
    # bound, goo, prices: a merge_pairs out card that differs is refused.
    # goo seeds only the unions it prices, and a context never prices a
    # pair twice, so goo after exhaustive on one context calls no kernel.
    graph, catalog = q2a
    for backend in (_kernels.pure, compiled):
        calls = []
        corrupt = _corrupting(backend, "merge_pairs", 1).merge_pairs
        recording = types.SimpleNamespace(
            merge_pairs=lambda inst, pairs: calls.append(pairs) or corrupt(inst, pairs))
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": recording)
        ctx = CostContext(graph, catalog)
        with pytest.raises(sp.SpanPlanError) as info:
            sp.exhaustive(graph, ctx)
        left, right = calls[0][1]
        out = ctx.cards[left | right]
        assert str(info.value) == (f"kernel cardinality {2 * out!r} of"
                                   f" {{{graph.subset_key(left | right)}}} does not match"
                                   f" the context's {out!r}"), backend.name

        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        want = sp.goo(graph, catalog)[0]
        shared = CostContext(graph, catalog)
        sp.exhaustive(graph, shared)
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": recording)
        calls.clear()
        assert sp.goo(graph, shared)[0] == want and calls == [], backend.name
        # A fresh context takes each union's out card, the corrupted one too.
        priced = CostContext(graph, catalog)
        sp.goo(graph, priced)
        unions = [left | right for pairs in calls for left, right in pairs]
        assert set(priced.cards) == set(unions), backend.name
        assert priced.cards[unions[1]] == 2 * catalog.entries[unions[1]], backend.name


# The subset each search names when clique-7's estimates overflow a float
# (pinned): the kernels stop at the first one they read, as the context does.
OVERFLOW_NAMED = {"exhaustive": "t00,t01,t02,t03", "prim": "t00,t01,t05,t06",
                  "kruskal": "t00,t02,t04,t06", "goo": "t00,t02,t04,t06",
                  "este": "t00,t01,t02,t06"}


def test_a_missing_or_overflowing_cardinality_names_the_same_subset(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        # q2a: each search that reads a missing subset names it.
        errors = 0
        for missing in (m for m in catalog.entries if m & (m - 1)):
            source = sp.CardinalityCatalog(
                entries={m: c for m, c in catalog.entries.items() if m != missing})
            for algorithm in sp.ALGORITHMS:
                try:
                    sp.run_algorithm(algorithm, graph, source)
                except sp.MissingCardinalityError as exc:
                    assert str(exc) == f"no cardinality for table subset" \
                                       f" {{{graph.subset_key(missing)}}}", algorithm
                    errors += 1
        assert errors == 55, backend.name
        # The oracle reads every connected subset, so it names each one missing.
        for missing in (m for m in catalog.entries if m & (m - 1)):
            source = sp.CardinalityCatalog(
                entries={m: c for m, c in catalog.entries.items() if m != missing})
            with pytest.raises(sp.MissingCardinalityError) as info:
                sp.brute_force_optimal(graph, source)
            assert str(info.value) == f"no cardinality for table subset" \
                                      f" {{{graph.subset_key(missing)}}}", backend.name
        big, model = sp.gen_topology("clique", 7, seed=1, base_range=(10**80, 10**81),
                                     sel_range=(0.5, 1.0))
        for algorithm, subset in OVERFLOW_NAMED.items():
            with pytest.raises(sp.LimitExceededError) as info:
                sp.run_algorithm(algorithm, big, model)
            assert str(info.value) == f"cardinality of {{{subset}}} overflows a float", \
                (backend.name, algorithm)


def test_run_kernel_names_a_kernel_s_missing_mask_as_the_source_does(q2a, compiled,
                                                                     monkeypatch):
    # Every kernel that reads q2a's full set, run through the context
    # without it, raises the catalog's own error for it on both backends.
    graph, catalog = q2a
    full = graph.full_mask
    source = sp.CardinalityCatalog({m: c for m, c in catalog.entries.items() if m != full})
    masks = connected_subset_masks(graph)
    last = 1 << graph.edge_u[0]
    calls = [("model_cards", [full]), ("merge_pairs", [(last, full ^ last)]),
             ("greedy_search", [(formula.PRIM, None)], 0.0),
             ("dp_search", masks, math.inf, 0.0), ("brute_search", 0.0)]
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        for name, *args in calls:
            with pytest.raises(sp.MissingCardinalityError) as info:
                CostContext(graph, source).run_kernel(name, *args)
            assert str(info.value) == f"no cardinality for table subset" \
                                      f" {{{graph.subset_key(full)}}}", (backend.name, name)


def test_count_trees_equals_the_counts_of_the_brute_walk(compiled):
    # count_trees counts in closed form; brute_search walks every
    # arrangement and returns (valid, linear) at [2:4].
    cases = mixed_instances(16, base_seed=6300) + irregular_instances(25, base_seed=6350)
    for kind, n, graph, model in cases:
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        inst = _instance(graph, model)
        for backend in (_kernels.pure, compiled):
            assert backend.count_trees(n, edge_u, edge_v) == backend.brute_search(inst)[2:4], \
                (backend.name, kind, n)


def test_count_trees_stops_at_its_deadline_on_both_backends(compiled):
    # The linear-order DP reaches 65,519 vertex sets of clique-16, far more
    # than it visits in 20 ms, and reads the clock every 4096 of them.
    graph, _ = sp.gen_topology("clique", 16, seed=0)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    for backend in (_kernels.pure, compiled):
        t0 = time.perf_counter()
        with pytest.raises(sp.OptimizeTimeout):
            backend.count_trees(16, edge_u, edge_v, deadline=t0 + 0.02)
        assert time.perf_counter() - t0 < 1.0, backend.name


def test_full_pipeline_equivalence(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    results = {}
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        results[backend.name] = (sp.exhaustive(graph, catalog)[0],
                                 sp.brute_force_optimal(graph, catalog)[0])
    assert results["pure"] == results["compiled"]


def test_missing_cardinality_raises_key_error_on_both_backends(compiled):
    # A catalog is read as it is: a mask absent from it is missing, even
    # when the context holds it.
    graph, model = sp.gen_topology("cycle", 6, seed=3)
    missing = 0b000111
    entries = {m: c for m, c in _catalog(graph, model).entries.items() if m != missing}
    ctx = CostContext(graph, sp.CardinalityCatalog(entries=entries))
    ctx.cards[missing] = float(model.lookup(graph, missing))
    inst = ctx.instance
    masks = connected_subset_masks(graph)
    for kernel, args in (("dp_search", (inst, masks)), ("brute_search", (inst,)),
                         ("model_cards", (inst, masks))):
        for backend in (_kernels.pure, compiled):
            with pytest.raises(KeyError) as info:
                getattr(backend, kernel)(*args)
            assert info.value.args == (missing,), (kernel, backend.name)


def test_a_missing_join_result_is_named_before_its_missing_side_on_both_backends(q2a, compiled):
    # Without {mk} and {mk,k}, the join of mk and k misses both: every
    # kernel reads the result's cardinality first, as CostContext.merge does.
    graph, catalog = q2a
    entries = {m: c for m, c in catalog.entries.items() if m not in (0b01, 0b11)}
    inst = CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance
    runs = _greedy_runs(graph)[-1]
    for kernel, args in (("brute_search", (inst,)), ("greedy_search", (inst, runs)),
                         ("merge_pairs", (inst, [(0b01, 0b10)]))):
        for backend in (_kernels.pure, compiled):
            with pytest.raises(KeyError) as info:
                getattr(backend, kernel)(*args)
            assert info.value.args == (0b11,), (kernel, backend.name)


def _card_reads(backend, graph, inst, masks):
    """What each kernel that reads cardinalities returns on inst."""
    return (backend.dp_search(inst, masks), backend.brute_search(inst),
            backend.model_cards(inst, masks), backend.greedy_search(inst, _greedy_runs(graph)[-1]))


def test_kernels_compute_model_masks_the_context_lacks_and_leave_it_as_it_was(compiled):
    for kind, n, graph, model in mixed_instances(8, base_seed=6700):
        masks = connected_subset_masks(graph)
        full = _context(graph, model)
        lacking = _context(graph, model)
        del lacking.cards[graph.full_mask]
        contexts = (full, lacking, CostContext(graph, model))
        before = [dict(ctx.cards) for ctx in contexts]
        # A model's kernels are shipped none of the context's cardinalities.
        assert full.instance.known_cards() == {} and _problem(full.instance).n_cards == 0
        want = _card_reads(_kernels.pure, graph, full.instance, masks)
        for backend in (_kernels.pure, compiled):
            for ctx in contexts:
                assert _card_reads(backend, graph, ctx.instance, masks) == want, \
                    (kind, n, backend.name)
        assert [ctx.cards for ctx in contexts] == before, \
            "a kernel must not fill the context's cardinalities"


def test_a_model_or_catalog_instance_is_flattened_once(q2a):
    # Their shipped cardinalities cannot change, so every call shares one
    # _Problem, which no kernel writes.
    graph, catalog = q2a
    for inst in (CostContext(graph, catalog).instance,
                 CostContext(*sp.gen_topology("chain", 5, seed=1)).instance):
        assert _problem(inst) is _problem(inst)


def test_dp_search_reads_a_subset_cardinality_only_to_price_a_split(compiled):
    # Under a bound of 0.0 only the two-table subsets are priced: every split
    # of a larger subset has a side that costs more.  So a three-table
    # subset's missing cardinality is never read, and a pair's is.
    graph, model = sp.gen_topology("cycle", 6, seed=3)
    masks = connected_subset_masks(graph)
    for missing, want in ((0b000111, (math.inf, [], 6, 6)), (0b000011, Raised(KeyError, "3"))):
        entries = {m: c for m, c in _catalog(graph, model).entries.items() if m != missing}
        inst = CostContext(graph, sp.CardinalityCatalog(entries=entries)).instance
        for backend in (_kernels.pure, compiled):
            try:
                got = backend.dp_search(inst, masks, prune_bound=0.0)
            except KeyError as exc:
                got = Raised(KeyError, str(exc))
            assert got == want, (missing, backend.name)


def test_dp_search_breaks_equal_totals_toward_the_largest_left_side_holding_the_lowest_table(
        compiled):
    # A triangle with every cardinality equal: the three splits of the root
    # into a pair and a table all total 43.0.  DPsub's rule keeps the first
    # of them in descending order of the left side, {0, 2} | {1}.
    inst = formula.Instance(
        n=3, edge_u=(0, 0, 1), edge_v=(1, 2, 2), scan=(1.0, 1.0, 1.0), indexed=(False,) * 3,
        lam=2.0, edge_of={3: 0, 5: 1, 6: 2}, catalog={m: 10 for m in range(1, 8)})
    step = _merge
    assert {step(inst, l, r)[0] for l, r in ((0b001, 0b010), (0b001, 0b100), (0b010, 0b100))} \
        == {22.0}
    assert {step(inst, s1, 0b111 ^ s1)[0] for s1 in (0b101, 0b011, 0b001)} == {21.0}
    for backend in (_kernels.pure, compiled):
        assert backend.dp_search(inst, range(1, 8)) == (
            43.0, [(1, 0b001, 0b100, 10.0), (0, 0b101, 0b010, 10.0)], 4, 6)


def test_timeouts_raise_optimize_timeout_on_both_backends(compiled):
    graph, model = sp.gen_topology("clique", 11, seed=0)  # over 1024 subsets, 4096 nodes
    inst = _instance(graph, model)
    masks = connected_subset_masks(graph)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    for backend in (_kernels.pure, compiled):
        with pytest.raises(sp.OptimizeTimeout):
            backend.dp_search(inst, masks, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.brute_search(inst, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.count_trees(graph.n_vertices, edge_u, edge_v, deadline=1e-9)


# Calls of the kernels that take masks with masks formula.check_masks refuses:
# past the instance's tables, or zero.  The C
# kernels index per-table arrays by masks and their memo keeps mask 0 for a
# free slot, so without the check they read past the model's bases, or a
# free slot's value.
BAD_MASKS = {
    "model_cards": [([1 << 20],), ([0],), ([1, 2, 1 << 5],)],
    "merge_pairs": [([(1, 1 << 20)],), ([(0, 1)],), ([(1, 2), (4, 1 << 5)],)],
    "dp_search": [([1, 2, 3, 1 << 20],), ([0, 1, 2, 3],), ([1, 2, 3, 1 << 5],)],
}


@pytest.mark.parametrize("kernel", BAD_MASKS)
@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_reject_masks_outside_the_instance(backend, kernel, request):
    graph, model = sp.gen_topology("chain", 5, seed=1)
    inst = _instance(graph, model)
    run = getattr(request.getfixturevalue("compiled") if backend == "compiled"
                  else _kernels.pure, kernel)
    for args in BAD_MASKS[kernel]:
        with pytest.raises(ValueError, match="subsets of the instance's 5 tables"):
            run(inst, *args)


def test_backend_selection():
    assert _kernels.get_backend("pure") is _kernels.pure
    auto = _kernels.get_backend("auto")
    assert auto.name == _kernels.DEFAULT_BACKEND
    assert auto is _kernels.get_backend(_kernels.DEFAULT_BACKEND)
    with pytest.raises(ValueError):
        _kernels.get_backend("nope")



# Ways a built library can fail to match the loader, as edits to kernels.c.
_VERSION_LINE = f"const int sp_version = {VERSION};"
STALE_EDITS = {
    "built before it had a version": (_VERSION_LINE + "\n", ""),
    "another version": (_VERSION_LINE, f"const int sp_version = {VERSION - 1};"),
    "another problem struct": ("    const double *bases, *sels;",
                               "    double extra;\n    const double *bases, *sels;"),
}


@pytest.fixture(scope="module")
def stale_libraries(tmp_path_factory):
    """A library built in a temporary directory from each of STALE_EDITS."""
    source = SOURCE.read_text()
    out = tmp_path_factory.mktemp("stale")
    paths = {}
    for i, (edit, (old, new)) in enumerate(STALE_EDITS.items()):
        assert source.count(old) == 1, edit
        c_file, paths[edit] = out / f"stale{i}.c", out / f"stale{i}.so"
        c_file.write_text(source.replace(old, new))
        subprocess.run([*_compiler(), "-shared", "-fPIC", "-ffp-contract=off", str(c_file),
                        "-o", str(paths[edit]), "-lm"], check=True)
    return paths


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_a_stale_library_is_refused_at_open_with_one_line_naming_the_rebuild(edit,
                                                                             stale_libraries):
    with pytest.raises(_kernels.StaleLibraryError) as info:
        open_library(stale_libraries[edit])
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"kernel library {stale_libraries[edit]} ")
    assert message.endswith("; rebuild it with: python3 setup.py build_ext --inplace")


@pytest.mark.parametrize("edit", STALE_EDITS)
def test_auto_falls_back_to_pure_on_a_stale_library_and_compiled_refuses_it(edit,
                                                                            stale_libraries,
                                                                            monkeypatch):
    monkeypatch.setattr(_kernels, "_LIBRARY", str(stale_libraries[edit]))
    monkeypatch.setattr(_kernels, "HAVE_COMPILED", True)
    monkeypatch.setattr(_kernels, "_compiled", None)
    monkeypatch.setattr(_kernels, "_auto", None)
    assert _kernels.get_backend("auto") is _kernels.pure
    assert _kernels.DEFAULT_BACKEND == sp.DEFAULT_BACKEND == "pure"
    with pytest.raises(_kernels.StaleLibraryError, match="rebuild it with"):
        _kernels.get_backend("compiled")


def test_import_defers_ctypes_until_a_kernel_runs():
    code = ("import sys, spanplan; before = 'ctypes' in sys.modules; "
            "spanplan.brute_force_optimal(*spanplan.gen_topology('chain', 3, 0)); "
            "print(before, 'ctypes' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout == f"False {_kernels.HAVE_COMPILED}\n"


@pytest.mark.parametrize("kind,n,seed,base_range,sel_range,top", [
    ("chain", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("cycle", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("star", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    ("clique", 7, 5, (1_000, 1_000_000), (1e-5, 1e-1), 0.0),
    # Near the float limit: the largest finite products reach top (past
    # 1e303 on the cycle and the star), and the largest subsets overflow.
    ("chain", 16, 3, (10**19, 10**20), (0.5, 1.0), 1e293),
    ("cycle", 16, 3, (10**19, 10**21), (0.5, 1.0), 1e303),
    ("star", 14, 5, (10**22, 10**24), (0.5, 1.0), 1e303),
    ("clique", 12, 3, (10**24, 10**27), (0.2, 1.0), 1e274),
])
def test_model_cards_equivalence(kind, n, seed, base_range, sel_range, top, compiled):
    graph, model = sp.gen_topology(kind, n, seed=seed, base_range=base_range, sel_range=sel_range)
    inst = CostContext(graph, model).instance
    masks = connected_subset_masks(graph)
    finite, want, overflowed = [], [], []
    for mask in masks:
        try:
            want.append(float(model.lookup(graph, mask)))
            finite.append(mask)
        except sp.LimitExceededError:
            overflowed.append(mask)
    assert _kernels.pure.model_cards(inst, finite) == compiled.model_cards(inst, finite) == want
    assert max(want) > top
    assert bool(overflowed) == (top > 0)
    for backend in (_kernels.pure, compiled):
        if overflowed:
            with pytest.raises(KeyError) as info:
                backend.model_cards(inst, masks)
            assert info.value.args == (overflowed[0],)
        assert backend.model_cards(inst, []) == []


@pytest.mark.parametrize("search", ["exhaustive", "brute_force_optimal"])
def test_overflowing_model_is_the_per_mask_limit_error_on_both_backends(search, compiled,
                                                                        monkeypatch):
    # The first connected subset, in ascending mask order, whose estimate
    # overflows names the error, as when each mask was looked up in turn.
    graph, model = sp.gen_topology("cycle", 8, seed=2, base_range=(10**80, 10**81),
                                   sel_range=(0.5, 1.0))
    want = None
    for mask in connected_subset_masks(graph):
        try:
            model.lookup(graph, mask)
        except sp.LimitExceededError as exc:
            want = Raised(sp.LimitExceededError, str(exc))
            break
    assert want is not None
    outcomes = _on_each_backend(compiled, monkeypatch,
                                lambda: getattr(sp, search)(graph, model)[0])
    assert outcomes == [want, want]


def test_ensure_cards_calls_model_cards_once_and_never_for_a_catalog(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    model_graph, model = sp.gen_topology("clique", 6, seed=4)
    for backend in (_kernels.pure, compiled):
        calls = []
        real = backend.model_cards
        monkeypatch.setattr(backend, "model_cards",
                            lambda inst, masks: calls.append(len(masks)) or real(inst, masks))
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        ctx = CostContext(model_graph, model)
        masks = connected_subset_masks(model_graph)
        ctx.ensure_cards(iter(masks))
        assert calls == [len(masks)]
        assert ctx.cards == {m: float(model.lookup(model_graph, m)) for m in masks}
        del calls[:]
        assert sp.exhaustive(graph, catalog)[0].internal_cost == 1_617_001
        sp.brute_force_optimal(graph, catalog)
        assert calls == []
