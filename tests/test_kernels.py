"""Equivalence of the pure-Python and compiled kernels.

The two backends must agree bit-for-bit: same costs, same reconstruction
choices, same counters.  When kernels.c is not built in place, the
compiled backend is built into a temporary directory with setup.py and
opened from there; the tests skip only when no C compiler is found.
"""
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import spanplan as sp
from spanplan import _kernels
from spanplan.cost import CostContext
from spanplan._kernels.loader import open_library
from spanplan.graph import connected_subset_masks

from .conftest import mixed_instances

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled backend: the in-place build, or a fresh one."""
    if _kernels.HAVE_COMPILED:
        return _kernels.get_backend("compiled")
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build kernels.c")
    out = tmp_path_factory.mktemp("ckernels")
    subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"),
                    "--build-temp", str(out / "temp")],
                   cwd=ROOT, check=True, capture_output=True)
    built = list((out / "lib" / "spanplan" / "_kernels").glob("_ckernels*"))
    assert built, "setup.py build_ext did not build kernels.c"
    return open_library(built[0])


def _instance(graph, model):
    ctx = CostContext(graph, model)
    ctx.ensure_cards(connected_subset_masks(graph))
    return ctx.instance


def test_merge_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(12, base_seed=6000):
        inst = _instance(graph, model)
        masks = connected_subset_masks(graph)
        for l in masks:
            for r in masks:
                if l & r:
                    continue
                if not graph.crossing_edges(l, r):
                    continue
                if not graph.is_connected_mask(l | r):
                    continue
                assert _kernels.pure.merge(inst, l, r) == compiled.merge(inst, l, r)


def test_merge_equivalence_on_equal_cardinalities(compiled):
    # Seeded models rarely tie; the hash-build side must break ties alike.
    inst = _kernels.pure.Instance(
        n=3, edge_u=(0, 1), edge_v=(1, 2), scan=(2.0, 2.0, 2.0), indexed=(False,) * 3,
        lam=2.0, cards={1: 10.0, 2: 10.0, 4: 10.0, 3: 10.0, 6: 10.0, 7: 5.0},
        pair_inner={3: 1, 6: 2})
    for l, r in ((1, 2), (2, 1), (3, 4), (4, 3), (1, 6), (6, 1)):
        assert _kernels.pure.merge(inst, l, r) == compiled.merge(inst, l, r)


def test_dp_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(20, base_seed=6100):
        inst = _instance(graph, model)
        pure = _kernels.pure.dp_search(inst)
        fast = compiled.dp_search(inst)
        assert pure == fast


def test_brute_equivalence(compiled):
    for kind, n, graph, model in mixed_instances(16, base_seed=6200):
        inst = _instance(graph, model)
        pure = _kernels.pure.brute_search(inst)
        fast = compiled.brute_search(inst)
        assert pure == fast


def test_count_equivalence(compiled):
    for kind, n, graph, _model in mixed_instances(16, base_seed=6300):
        edge_u = [e.v1 for e in graph.edges]
        edge_v = [e.v2 for e in graph.edges]
        assert _kernels.pure.count_trees(graph.n_vertices, edge_u, edge_v) == \
            compiled.count_trees(graph.n_vertices, edge_u, edge_v)


def test_full_pipeline_equivalence(q2a, compiled, monkeypatch):
    graph, catalog = q2a
    results = {}
    for backend in (_kernels.pure, compiled):
        monkeypatch.setattr(_kernels, "get_backend", lambda name="auto": backend)
        results[backend.name] = (sp.exhaustive(graph, catalog)[0],
                                 sp.brute_force_optimal(graph, catalog)[0])
    assert results["pure"] == results["compiled"]


def test_missing_cardinality_raises_key_error_on_both_backends(compiled):
    graph, model = sp.gen_topology("cycle", 6, seed=3)
    inst = _instance(graph, model)
    missing = 0b000111
    del inst.cards[missing]
    for kernel in ("dp_search", "brute_search"):
        for backend in (_kernels.pure, compiled):
            with pytest.raises(KeyError) as info:
                getattr(backend, kernel)(inst)
            assert info.value.args == (missing,)


def test_timeouts_raise_optimize_timeout_on_both_backends(compiled):
    graph, model = sp.gen_topology("clique", 11, seed=0)  # over 1024 subsets, 4096 nodes
    inst = _instance(graph, model)
    edge_u = [e.v1 for e in graph.edges]
    edge_v = [e.v2 for e in graph.edges]
    for backend in (_kernels.pure, compiled):
        with pytest.raises(sp.OptimizeTimeout):
            backend.dp_search(inst, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.brute_search(inst, deadline=1e-9)
        with pytest.raises(sp.OptimizeTimeout):
            backend.count_trees(graph.n_vertices, edge_u, edge_v, deadline=1e-9)


def test_backend_selection():
    assert _kernels.get_backend("pure") is _kernels.pure
    auto = _kernels.get_backend("auto")
    assert auto.name == _kernels.DEFAULT_BACKEND
    assert auto is _kernels.get_backend(_kernels.DEFAULT_BACKEND)
    with pytest.raises(ValueError):
        _kernels.get_backend("nope")


def test_import_defers_ctypes_until_a_kernel_runs():
    code = ("import sys, spanplan; before = 'ctypes' in sys.modules; "
            "spanplan.enumerate_ordered_trees(spanplan.gen_topology('chain', 3, 0)[0]); "
            "print(before, 'ctypes' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout == f"False {_kernels.HAVE_COMPILED}\n"
