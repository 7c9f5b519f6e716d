"""The thread count of the OpenBLAS library numpy loaded, read and set
through its C API.

The library is found among the files mapped into the process (Linux), and
its functions under the names OpenBLAS builds export. Any other BLAS is
unknown: get_threads reports None and set_threads changes nothing.
"""

import ctypes
import functools
from pathlib import Path


@functools.cache
def _api():
    """(get, set) num_threads of the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def get_threads():
    """The loaded OpenBLAS's thread count, or None for an unknown BLAS."""
    api = _api()
    return None if api is None else api[0]()


def set_threads(n: int):
    """Give the loaded OpenBLAS n threads; returns the count it had, or None
    (changing nothing) for an unknown BLAS."""
    api = _api()
    if api is None:
        return None
    old = api[0]()
    api[1](n)
    return old
