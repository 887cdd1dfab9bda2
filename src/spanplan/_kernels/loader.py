"""ctypes front end of the compiled kernels in ``kernels.c``.

``open_library(path)`` opens a built copy of ``kernels.c`` and returns the
``compiled`` backend: a module with ``pure``'s six kernels, taking the same
arguments and returning the same values.  Five of them run in C, and
``count_trees`` is the closed form every backend shares.  It refuses, with
``StaleLibraryError``, a library that lacks a kernel, was built from
another ``VERSION`` of ``kernels.c``, or lays out ``problem`` unlike
``_Problem``.  The C searches price joins with the mirror of
``formula.merge``, the one Python cost formula.  An instance
(``formula.Instance``) crosses the boundary as C arrays packed by one
``struct`` call into one bytes buffer behind one ``_Problem``, without what
C derives (the inner table of a two-table join, from the edges).
``_problem`` packs them from the instance's tuples on its first call, once
per cost context and so once per request, and the ``_Problem`` serves every
later one (``Instance.problem``).  No kernel writes it:
each call keeps its cardinalities in its own state and returns the mask it
misses through an argument, so calls on one instance may overlap (ctypes
lets other threads run during a call).
Results come back in flat buffers too, and each mask and run list is
checked first (``formula.check_masks``, ``check_runs``, ``check_walk``).  Nothing here
imports ``pure``.
"""
from __future__ import annotations

import ctypes
import math
import os
import struct
import types
from array import array
from ctypes import POINTER, byref, c_double, c_int, c_int64, c_uint64, c_void_p
from functools import lru_cache, partial

from ..errors import OptimizeTimeout
from . import StaleLibraryError, count_trees
from .formula import check_masks, check_runs, check_walk

_TIMEOUT, _MISSING = 1, 2
# kernels.c's sp_version; the two are raised together.
VERSION = 5
_SYMBOLS = ("sp_model_cards", "sp_merge_pairs", "sp_greedy_search", "sp_dp_search",
            "sp_brute_search", "sp_problem_size", "sp_version")


class _Problem(ctypes.Structure):
    """kernels.c's ``problem``: a formula.Instance flattened into packed
    arrays.  Each array field points into ``buffer``, the bytes that
    ``_problem`` packs and keeps on the instance; bytes cannot be written,
    and CPython starts their data 16-byte aligned, as a double needs."""

    _fields_ = [("n", c_int), ("n_edges", c_int), ("n_cards", c_int), ("lam", c_double),
                ("edge_u", c_void_p), ("edge_v", c_void_p), ("scan", c_void_p),
                ("indexed", c_void_p), ("card_mask", c_void_p), ("card_val", c_void_p),
                ("bases", c_void_p), ("sels", c_void_p)]


# The struct code of each array field of _Problem, in field order, and the
# order _problem's pack call lists them in: 8-byte items first, then the
# ints, then the flags, so that every field starts aligned for its type.
_CODES = "iidbQddd"
_PACKED = (4, 5, 2, 6, 7, 0, 1, 3)


@lru_cache(maxsize=64)
def _layout(lengths: tuple) -> tuple:
    """The Struct that packs arrays of these lengths (in field order) in
    _PACKED order, and each field's offset in it, None for an empty one."""
    fmt, offsets, at = "=", [None] * len(_CODES), 0
    for i in _PACKED:
        if lengths[i]:
            fmt += f"{lengths[i]}{_CODES[i]}"
            offsets[i] = at
            at += lengths[i] * struct.calcsize(_CODES[i])
    return struct.Struct(fmt), tuple(offsets)


def _addr(buf: array | None) -> int:
    return 0 if buf is None else buf.buffer_info()[0]


def check_sizes(inst) -> None:
    """Raise ValueError unless inst's arrays cover its tables and edges as
    the kernels read them."""
    n, m = inst.n, len(inst.edge_u)
    bases, _masks, sels = inst.model or (inst.scan, (), inst.edge_v)
    if min(len(inst.scan), len(inst.indexed), len(bases)) < n or min(len(inst.edge_v),
                                                                    len(sels)) < m:
        raise ValueError(f"kernel instance arrays must cover its {n} tables and {m} edges")


def _problem(inst) -> _Problem:
    """inst's inputs and known cards packed as C arrays into one bytes
    ``buffer`` behind one ``_Problem``, kept as ``inst.problem`` for later
    calls; an empty array's field is NULL."""
    if inst.problem is None:
        check_sizes(inst)
        cards = inst.known_cards()
        bases, _masks, sels = inst.model or ((), (), ())
        packer, offsets = _layout((len(inst.edge_u), len(inst.edge_v), len(inst.scan),
                                   len(inst.indexed), len(cards), len(cards), len(bases),
                                   len(sels)))
        buffer = packer.pack(*cards, *cards.values(), *inst.scan, *bases, *sels, *inst.edge_u,
                             *inst.edge_v, *inst.indexed)
        at = ctypes.cast(buffer, c_void_p).value
        prob = _Problem(inst.n, len(inst.edge_u), len(cards), inst.lam,
                        *[None if offset is None else at + offset for offset in offsets])
        prob.buffer = buffer
        inst.problem = prob
    return inst.problem


def _call(kernel, search: str, inst, *args) -> None:
    """kernel run on inst's problem, args and the mask it names when it
    misses one; raises what pure raises for a non-zero status."""
    missing = c_uint64()
    status = kernel(_problem(inst), *args, missing)  # passed by reference (argtypes)
    if status == _TIMEOUT:
        raise OptimizeTimeout(f"{search} ran past its deadline")
    if status == _MISSING:
        raise KeyError(missing.value)
    if status:
        raise MemoryError(f"{search} ran out of memory")


def _model_cards(lib, inst, masks) -> list[float]:
    check_masks(inst, masks)
    flat = array("Q", masks)
    cards = array("d", bytes(8 * len(flat)))
    _call(lib.sp_model_cards, "model_cards", inst, _addr(flat), len(flat), _addr(cards))
    return cards.tolist()


def _merge_pairs(lib, inst, pairs) -> list[tuple]:
    masks = [m for pair in pairs for m in pair]
    check_masks(inst, masks)
    flat = array("Q", masks)
    joins = array("d", bytes(24 * len(pairs)))  # kernels.c's join: (cost, op, side, out)
    _call(lib.sp_merge_pairs, "merge_pairs", inst, _addr(flat), len(pairs), _addr(joins))
    return list(struct.iter_unpack("diid", joins))


def _join_buffer(inst) -> array:
    """Room for a plan's (edge, left mask, right mask, out card) joins, 32
    bytes each: three 64-bit words and a double."""
    return array("Q", bytes(32 * max(inst.n - 1, 0)))


def _joins(buf: array) -> list:
    return list(struct.iter_unpack("QQQd", buf))


def _greedy_search(lib, inst, runs, deadline: float = 0.0):
    check_runs(inst, runs)
    flat = array("i", [-1 if x is None else x for run in runs for x in run])
    cost, joins, counts = c_double(), _join_buffer(inst), array("q", bytes(32))
    _call(lib.sp_greedy_search, "greedy search", inst, _addr(flat), len(runs), deadline,
          byref(cost), _addr(joins), _addr(counts))
    return (cost.value, _joins(joins), *counts)


def _dp_search(lib, inst, masks, prune_bound: float = math.inf, deadline: float = 0.0):
    check_masks(inst, masks)
    flat, root = array("Q", masks), c_double()
    joins, counts = _join_buffer(inst), array("q", bytes(16))
    _call(lib.sp_dp_search, "exhaustive enumeration", inst, _addr(flat), len(flat), prune_bound,
          deadline, byref(root), _addr(counts), _addr(joins))
    return (root.value, _joins(joins) if root.value < math.inf else [], *counts)


def _brute_search(lib, inst, deadline: float = 0.0):
    check_walk(inst)
    best, joins, counts = c_double(), _join_buffer(inst), array("q", bytes(40))
    _call(lib.sp_brute_search, "oracle enumeration", inst, deadline, byref(best), _addr(joins),
          _addr(counts))
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
        # The kernels would read fields laid out unlike the ctypes struct's.
        raise refuse(f"has a {size}-byte problem struct, not {ctypes.sizeof(_Problem)}")
    problem, missing = POINTER(_Problem), POINTER(c_uint64)
    lib.sp_model_cards.argtypes = [problem, c_void_p, c_int64, c_void_p, missing]
    lib.sp_merge_pairs.argtypes = [problem, c_void_p, c_int64, c_void_p, missing]
    lib.sp_greedy_search.argtypes = [problem, c_void_p, c_int, c_double, c_void_p, c_void_p,
                                     c_void_p, missing]
    lib.sp_dp_search.argtypes = [problem, c_void_p, c_int64, c_double, c_double, c_void_p,
                                 c_void_p, c_void_p, missing]
    lib.sp_brute_search.argtypes = [problem, c_double, c_void_p, c_void_p, c_void_p, missing]
    backend = types.ModuleType("compiled", __doc__)
    backend.name = "compiled"
    backend.problem_size = size
    for kernel in (_model_cards, _merge_pairs, _greedy_search, _dp_search, _brute_search):
        setattr(backend, kernel.__name__[1:], partial(kernel, lib))
    backend.count_trees = count_trees  # read outside tests only by perfbench's tracer
    return backend
