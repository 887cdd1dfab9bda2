"""Search-kernel backends.

``formula`` holds the one Python cost formula (``join_cost``, ``merge``,
``model_product``) and ``Instance``, which every backend takes.  ``pure``
is the reference implementation of the five kernels.  ``compiled`` runs the
same five kernels from ``kernels.c``, built next to this file as
``_ckernels`` by ``python3 setup.py build_ext`` and opened through ctypes by
``loader``; it is preferred whenever the build produced it.  A backend is
loaded on the first ``get_backend`` call that names it, so ``import
spanplan`` pays neither for ctypes nor for compiling ``pure``, and a process
that runs the compiled searches never loads ``pure`` at all.

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


_LIBRARY = _built_library()
HAVE_COMPILED = _LIBRARY is not None
DEFAULT_BACKEND = "compiled" if HAVE_COMPILED else "pure"
_compiled = None


def get_backend(name: str = "auto"):
    """Resolve a backend module by name: auto, pure, or compiled."""
    global _compiled
    if name == "auto":
        name = DEFAULT_BACKEND
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
    # ``_kernels.pure`` imports the reference backend on first access.
    if name == "pure":
        return get_backend("pure")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def deadline(t0: float, timeout: float | None) -> float:
    """The deadline of a search started at t0 and given timeout seconds:
    0.0 (none) for None, already past for 0 or less, never reached for inf.
    Raises ValueError for NaN, which no clock time exceeds."""
    if timeout is None:
        return 0.0
    if math.isnan(timeout):
        raise ValueError("timeout must not be NaN")
    return t0 + timeout
