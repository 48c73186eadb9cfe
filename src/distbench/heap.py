"""Keep freed heap memory in the process instead of returning it to the OS.

The kernel engine allocates and frees its query-block temporaries
(``BLOCK_ELEMENTS`` doubles, 256 KiB) once per block. Under glibc's
default thresholds, a free of that size gives the pages back to the
kernel (an unmapped chunk, or a trimmed heap top), and the next block
faults them in again. Fixing both thresholds above the engine's working
set keeps those pages mapped. Fixing ``M_MMAP_THRESHOLD`` also turns off
glibc's dynamic threshold, which otherwise depends on the largest block
the process happened to free so far.

Importing this module changes nothing: the process owner opts in by
calling ``keep_freed_heap``. The ``bench`` command and its worker
processes do; a library caller may do the same in its own process.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 64 * 2 ** 20
MMAP_THRESHOLD = 32 * 2 ** 20   # glibc's maximum on 64-bit platforms


def keep_freed_heap() -> bool:
    """Raise the C allocator's trim and mmap thresholds; True if both took.

    A silent no-op returning False where the C library has no
    ``mallopt`` (Windows, macOS) or rejects a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = [mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD),
               mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)]
    return applied == [1, 1]
