"""ctypes front end of the compiled kernels in ``kernels.c``.

``open_library(path)`` opens a built copy of ``kernels.c`` and returns the
``compiled`` backend: a module with ``pure``'s six kernels, taking the same
arguments and returning the same values.  Five of them run in C, and
``count_trees`` is the closed form every backend shares.  It refuses, with
``StaleLibraryError``, a library that lacks a kernel, was built from
another ``VERSION`` of ``kernels.c``, or lays out ``problem`` unlike
``_Problem``.  Its ``merge`` is the C mirror of
``formula.merge``, the one Python cost formula.  Instances
(``formula.Instance``) and results cross the boundary as flat ``array``
buffers, without what C derives (``Instance.pair_inner``, from the edges),
and each mask and run list is checked first (``formula.check_masks``,
``check_runs``).  Nothing here imports ``pure``.
"""
from __future__ import annotations

import ctypes
import math
import os
import types
from array import array
from ctypes import POINTER, byref, c_double, c_int, c_int64, c_uint64, c_void_p
from functools import partial

from ..errors import OptimizeTimeout
from . import StaleLibraryError, count_trees
from .formula import check_masks, check_runs

_TIMEOUT, _MISSING = 1, 2
# kernels.c's sp_version; the two are raised together.
VERSION = 2
_SYMBOLS = ("sp_merge", "sp_model_cards", "sp_greedy_search", "sp_dp_search", "sp_brute_search",
            "sp_problem_size", "sp_version")


class _Problem(ctypes.Structure):
    """kernels.c's ``problem``: a formula.Instance flattened into buffers."""

    _fields_ = [("n", c_int), ("n_edges", c_int), ("n_cards", c_int), ("lam", c_double),
                ("edge_u", c_void_p), ("edge_v", c_void_p), ("scan", c_void_p),
                ("indexed", c_void_p), ("card_mask", c_void_p), ("card_val", c_void_p),
                ("bases", c_void_p), ("sels", c_void_p),
                # Set by the kernels:
                ("memo", c_void_p), ("incident", c_void_p), ("missing", c_uint64),
                ("words", c_int)]


class _Join(ctypes.Structure):
    _fields_ = [("cost", c_double), ("out", c_double), ("op", c_int), ("side", c_int)]


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _problem(inst) -> _Problem:
    """Flatten inst, shipping the cardinalities pure._Cards seeds from
    (``inst.known_cards()``)."""
    cards = inst.known_cards()
    buffers = (array("i", inst.edge_u), array("i", inst.edge_v), array("d", inst.scan),
               array("b", inst.indexed), array("Q", cards), array("d", cards.values()))
    if inst.model is not None:
        bases, edge_sels = inst.model
        buffers += (array("d", bases), array("d", (sel for _mask, sel in edge_sels)))
    prob = _Problem(inst.n, len(inst.edge_u), len(cards), inst.lam, *map(_addr, buffers))
    prob.buffers = buffers  # the kernel reads them; keep them alive with prob
    return prob


def _check(status: int, prob: _Problem, search: str) -> None:
    """Raise what pure raises for a kernel's non-zero status."""
    if status == _TIMEOUT:
        raise OptimizeTimeout(f"{search} ran past its deadline")
    if status == _MISSING:
        raise KeyError(prob.missing)
    if status:
        raise MemoryError(f"{search} ran out of memory")


def _merge(lib, inst, l_mask: int, r_mask: int):
    check_masks(inst, (l_mask, r_mask), disjoint=True)
    prob, join = _problem(inst), _Join()
    _check(lib.sp_merge(prob, l_mask, r_mask, join), prob, "merge")
    return join.cost, join.op, join.side, join.out


def _model_cards(lib, inst, masks) -> list[float]:
    check_masks(inst, masks)
    prob, flat = _problem(inst), array("Q", masks)
    cards = array("d", bytes(8 * len(flat)))
    _check(lib.sp_model_cards(prob, _addr(flat), len(flat), _addr(cards)), prob, "model_cards")
    return cards.tolist()


def _join_buffer(inst) -> array:
    """Room for a plan's (edge, left mask, right mask) joins."""
    return array("Q", bytes(24 * max(inst.n - 1, 0)))


def _joins(buf: array) -> list:
    it = iter(buf)
    return list(zip(it, it, it))


def _greedy_search(lib, inst, runs, deadline: float = 0.0):
    check_runs(inst, runs)
    prob = _problem(inst)
    flat = array("i", [-1 if x is None else x for run in runs for x in run])
    cost, joins, counts = c_double(), _join_buffer(inst), array("q", bytes(32))
    _check(lib.sp_greedy_search(prob, _addr(flat), len(runs), deadline, byref(cost), _addr(joins),
                                _addr(counts)), prob, "greedy search")
    return (cost.value, _joins(joins), *counts)


def _dp_search(lib, inst, masks, prune_bound: float = math.inf, deadline: float = 0.0):
    check_masks(inst, masks)
    prob, flat, root = _problem(inst), array("Q", masks), c_double()
    joins, counts = _join_buffer(inst), array("q", bytes(16))
    _check(lib.sp_dp_search(prob, _addr(flat), len(flat), prune_bound, deadline, byref(root),
                            _addr(counts), _addr(joins)), prob, "exhaustive enumeration")
    return (root.value, _joins(joins) if root.value < math.inf else [], *counts)


def _brute_search(lib, inst, deadline: float = 0.0):
    prob, best, joins, counts = _problem(inst), c_double(), _join_buffer(inst), array("q", bytes(40))
    _check(lib.sp_brute_search(prob, deadline, byref(best), _addr(joins), _addr(counts)),
           prob, "oracle enumeration")
    return (best.value, _joins(joins) if best.value < math.inf else [], *counts)


def open_library(path) -> types.ModuleType:
    """Open the kernel library at path as the ``compiled`` backend; raises
    StaleLibraryError, naming the rebuild command, when it does not match
    this loader."""
    def refuse(why: str):
        return StaleLibraryError(f"kernel library {os.fspath(path)} {why};"
                                 " rebuild it with: python3 setup.py build_ext --inplace")

    try:
        lib = ctypes.CDLL(os.fspath(path))
    except OSError as exc:
        raise refuse(f"cannot be opened ({exc})") from None
    missing = [name for name in _SYMBOLS if not hasattr(lib, name)]
    if missing:
        raise refuse(f"lacks {', '.join(missing)}")
    version = c_int.in_dll(lib, "sp_version").value
    if version != VERSION:
        raise refuse(f"is kernel version {version}, not {VERSION}")
    lib.sp_problem_size.restype = ctypes.c_size_t
    size = lib.sp_problem_size()
    if size != ctypes.sizeof(_Problem):
        # A kernel would write the fields it sets past the ctypes struct.
        raise refuse(f"has a {size}-byte problem struct, not {ctypes.sizeof(_Problem)}")
    problem = POINTER(_Problem)
    lib.sp_merge.argtypes = [problem, c_uint64, c_uint64, POINTER(_Join)]
    lib.sp_model_cards.argtypes = [problem, c_void_p, c_int64, c_void_p]
    lib.sp_greedy_search.argtypes = [problem, c_void_p, c_int, c_double, c_void_p, c_void_p,
                                     c_void_p]
    lib.sp_dp_search.argtypes = [problem, c_void_p, c_int64, c_double, c_double, c_void_p,
                                 c_void_p, c_void_p]
    lib.sp_brute_search.argtypes = [problem, c_double, c_void_p, c_void_p, c_void_p]
    backend = types.ModuleType("compiled", __doc__)
    backend.name = "compiled"
    backend.problem_size = size
    for kernel in (_merge, _model_cards, _greedy_search, _dp_search, _brute_search):
        setattr(backend, kernel.__name__[1:], partial(kernel, lib))
    backend.count_trees = count_trees
    return backend
