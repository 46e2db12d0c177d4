"""OpenBLAS's own functions, found in the library numpy loaded into this
process, and a pin of its thread count to one.

A run's bits rest on its matrix products, and under some OpenBLAS kernels
(Haswell, for one) a float32 product with a 300-wide side sums differently
on two threads than on one. One thread per run also keeps `--jobs` workers
from each starting BLAS threads of their own.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager


@functools.cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries mapped into this process, read once from
    /proc/self/maps; none where that file is missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in paths)


@functools.cache
def openblas(name: str, restype, *argtypes):
    """OpenBLAS's function `name` (such as "get_num_threads") under the
    symbol names numpy's builds export, typed; None without OpenBLAS."""
    for lib in _libraries():
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


@contextmanager
def one_thread():
    """BLAS on one thread for the body, and the caller's count again after
    it; without OpenBLAS the body runs as it is."""
    get = openblas("get_num_threads", ctypes.c_int)
    set_threads = openblas("set_num_threads", None, ctypes.c_int)
    if get is None or set_threads is None:
        yield
        return
    threads = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)
