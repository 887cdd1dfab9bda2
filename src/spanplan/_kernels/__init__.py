"""Search-kernel backends.

``formula`` holds the one Python cost formula (``join_cost``, ``merge``,
``model_product``) and ``Instance``, which every backend takes.  ``pure``
is the reference implementation of five kernels (``merge``,
``model_cards``, ``greedy_search``, ``dp_search`` and ``brute_search``).
``compiled`` runs the same five from ``kernels.c``, built next to this
file as ``_ckernels`` by ``python3 setup.py build_ext`` and opened through
ctypes by ``loader``; it is preferred whenever the build produced a library
that matches ``loader`` (``DEFAULT_BACKEND`` names the backend chosen).
Both backends share the sixth kernel, ``count_trees``, which counts the
valid and the linear ordered spanning-tree arrangements in closed form
(``trees``).  The three
searches return ``(cost, joins, counters...)``, with ``joins`` the
winner's ``(edge, left mask, right mask)`` list in the order
``plan.replay`` builds it.  A backend is loaded on the first
``get_backend`` call that names it, so ``import spanplan`` pays neither
for ctypes nor for compiling ``pure``, and a process that runs the
compiled searches never loads ``pure`` at all; ``trees`` is compiled by
the first ``count_trees`` call.

A kernel's ``deadline`` is a ``time.perf_counter`` time; 0.0 means none.
"""
import importlib
import math
import os
from importlib.machinery import EXTENSION_SUFFIXES


def _built_library():
    here = os.path.dirname(__file__)
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_ckernels" + suffix)
        if os.path.exists(path):
            return path
    return None


class StaleLibraryError(RuntimeError):
    """The built kernel library does not match this source."""


_LIBRARY = _built_library()
HAVE_COMPILED = _LIBRARY is not None  # built, though possibly stale
_compiled = None
_auto = None


def get_backend(name: str = "auto"):
    """Resolve a backend module by name: auto, pure, or compiled.  auto is
    compiled unless the library is missing or stale, and pure then."""
    global _compiled, _auto
    if name == "auto":
        if _auto is None:
            try:
                _auto = get_backend("compiled" if HAVE_COMPILED else "pure")
            except StaleLibraryError:
                _auto = get_backend("pure")
        return _auto
    if name == "pure":
        return importlib.import_module(".pure", __name__)
    if name != "compiled":
        raise ValueError(f"unknown kernel backend {name!r}")
    if not HAVE_COMPILED:
        raise RuntimeError("compiled kernels are not built in this install")
    if _compiled is None:
        from .loader import open_library

        _compiled = open_library(_LIBRARY)
    return _compiled


def __getattr__(name: str):
    # ``_kernels.pure`` imports the reference backend on first access, and
    # ``DEFAULT_BACKEND`` opens the library to see whether it is stale.
    if name == "pure":
        return get_backend("pure")
    if name == "DEFAULT_BACKEND":
        return get_backend("auto").name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def count_trees(n: int, edge_u, edge_v, deadline: float = 0.0):
    """Every backend's ``count_trees``: ``trees.count_trees``, imported on
    the first call so that only a process that counts compiles it."""
    from .trees import count_trees

    return count_trees(n, edge_u, edge_v, deadline)


def deadline(t0: float, timeout: float | None) -> float:
    """The deadline of a search started at t0 and given timeout seconds:
    0.0 (none) for None, already past for 0 or less, never reached for inf.
    Raises ValueError for NaN, which no clock time exceeds."""
    if timeout is None:
        return 0.0
    if math.isnan(timeout):
        raise ValueError("timeout must not be NaN")
    return t0 + timeout
