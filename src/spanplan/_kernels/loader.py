"""ctypes front end of the compiled kernels in ``kernels.c``.

``open_library(path)`` opens a built copy of ``kernels.c`` and returns the
``compiled`` backend: a module with ``pure``'s five kernels, taking the same
arguments and returning the same tuples.  Its ``merge`` is the C mirror of
``formula.merge``, the one Python cost formula.  Instances
(``formula.Instance``) and results cross the boundary as flat ``array``
buffers.  Nothing here imports ``pure``.
"""
from __future__ import annotations

import ctypes
import math
import os
import types
from array import array
from ctypes import POINTER, byref, c_double, c_int, c_uint64, c_void_p
from functools import partial

from ..errors import OptimizeTimeout

_TIMEOUT, _MISSING = 1, 2


class _Problem(ctypes.Structure):
    """kernels.c's ``problem``: a formula.Instance flattened into buffers."""

    _fields_ = [("n", c_int), ("n_edges", c_int), ("n_cards", c_int), ("n_pairs", c_int),
                ("lam", c_double),
                ("edge_u", c_void_p), ("edge_v", c_void_p), ("scan", c_void_p),
                ("indexed", c_void_p), ("card_mask", c_void_p), ("card_val", c_void_p),
                ("pair_mask", c_void_p), ("pair_inner", c_void_p),
                ("bases", c_void_p), ("sels", c_void_p),
                ("cards", c_void_p), ("memo", c_void_p), ("missing", c_uint64)]


class _Join(ctypes.Structure):
    _fields_ = [("cost", c_double), ("out", c_double), ("op", c_int), ("side", c_int)]


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _problem(inst, cards=None) -> _Problem:
    """Flatten inst, with cards (default inst.cards) as its cardinalities."""
    cards = inst.cards if cards is None else cards
    buffers = (array("i", inst.edge_u), array("i", inst.edge_v), array("d", inst.scan),
               array("b", inst.indexed), array("Q", cards), array("d", cards.values()),
               array("Q", inst.pair_inner), array("i", inst.pair_inner.values()))
    if inst.model is not None:
        bases, edge_sels = inst.model
        buffers += (array("d", bases), array("d", (sel for _mask, sel in edge_sels)))
    prob = _Problem(inst.n, len(inst.edge_u), len(cards), len(inst.pair_inner), inst.lam,
                    *map(_addr, buffers))
    prob.buffers = buffers  # the kernel reads them; keep them alive with prob
    return prob


def _check(status: int, prob: _Problem | None, search: str) -> None:
    """Raise what pure raises for a kernel's non-zero status."""
    if status == _TIMEOUT:
        raise OptimizeTimeout(f"{search} ran past its deadline")
    if status == _MISSING:
        raise KeyError(prob.missing)
    if status:
        raise MemoryError(f"{search} ran out of memory")


def _merge(lib, inst, l_mask: int, r_mask: int):
    prob, join = _problem(inst), _Join()
    _check(lib.sp_merge(prob, l_mask, r_mask, join), prob, "merge")
    return join.cost, join.op, join.side, join.out


def _greedy_search(lib, inst, runs, deadline: float = 0.0):
    prob = _problem(inst, {} if inst.model is not None else inst.catalog or {})
    flat = array("i", (-1 if x is None else x for run in runs for x in run))
    cost, counts = c_double(), array("q", bytes(32))
    joins = array("Q", bytes(24 * max(inst.n - 1, 0)))
    _check(lib.sp_greedy_search(prob, _addr(flat), len(runs), deadline, byref(cost), _addr(joins),
                                _addr(counts)), prob, "greedy search")
    it = iter(joins)
    return ([(eid, l_mask, r_mask) for eid, l_mask, r_mask in zip(it, it, it)], cost.value,
            *counts)


def _dp_search(lib, inst, prune_bound: float = math.inf, deadline: float = 0.0):
    prob, root, counts = _problem(inst), c_double(), array("q", bytes(24))
    flat = array("Q", bytes(32 * len(inst.cards)))
    _check(lib.sp_dp_search(prob, prune_bound, deadline, byref(root), _addr(counts), _addr(flat)),
           prob, "exhaustive enumeration")
    subplans, splits, n_choices = counts
    it = iter(flat[:4 * n_choices])
    choices = {mask: (s1, op, side) for mask, s1, op, side in zip(it, it, it, it)}
    return root.value, choices, subplans, splits


def _count_trees(lib, n: int, edge_u, edge_v, deadline: float = 0.0):
    eu, ev, counts = array("i", edge_u), array("i", edge_v), array("q", bytes(32))
    _check(lib.sp_count_trees(n, len(eu), _addr(eu), _addr(ev), deadline, _addr(counts)),
           None, "tree enumeration")
    return tuple(counts)


def _brute_search(lib, inst, deadline: float = 0.0):
    prob, best, counts = _problem(inst), c_double(), array("q", bytes(56))
    seq = array("i", bytes(4 * max(inst.n - 1, 0)))
    _check(lib.sp_brute_search(prob, deadline, byref(best), _addr(seq), _addr(counts)),
           prob, "oracle enumeration")
    return (best.value, list(seq) if best.value < math.inf else [], *counts)


def open_library(path) -> types.ModuleType:
    """Open the kernel library at path as the ``compiled`` backend."""
    lib = ctypes.CDLL(os.fspath(path))
    problem = POINTER(_Problem)
    lib.sp_merge.argtypes = [problem, c_uint64, c_uint64, POINTER(_Join)]
    lib.sp_greedy_search.argtypes = [problem, c_void_p, c_int, c_double, c_void_p, c_void_p,
                                     c_void_p]
    lib.sp_dp_search.argtypes = [problem, c_double, c_double, c_void_p, c_void_p, c_void_p]
    lib.sp_count_trees.argtypes = [c_int, c_int, c_void_p, c_void_p, c_double, c_void_p]
    lib.sp_brute_search.argtypes = [problem, c_double, c_void_p, c_void_p, c_void_p]
    backend = types.ModuleType("compiled", __doc__)
    backend.name = "compiled"
    for kernel in (_merge, _greedy_search, _dp_search, _count_trees, _brute_search):
        setattr(backend, kernel.__name__[1:], partial(kernel, lib))
    return backend
