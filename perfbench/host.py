"""Host fingerprint, reference copy bandwidth and peak memory."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import time

import numpy as np

#: glibc ``sysconf`` names of the L2 and L3 cache sizes (x86 reads them
#: from cpuid, so no file outside the checkout is opened).
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194

#: Copy-bandwidth source size: well past any per-core L2.
COPY_BYTES = 32 << 20


def cache_bytes(name: int) -> int:
    """One ``sysconf`` cache size in bytes, or -1 when unknown."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        return int(libc.sysconf(name))
    except (OSError, AttributeError):
        return -1


def copy_gbps(reps: int = 15) -> float:
    """Median numpy copy bandwidth (read + write bytes per second).

    The source is :data:`COPY_BYTES`, at least 4x the L2 of the hosts
    this benchmark targets, so the figure is a memory-side reference
    for the kernel's computed bytes, measured in the same process.
    """
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(copy_bw: float) -> dict:
    """What a reader needs to compare numbers across hosts."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": cache_bytes(_SC_LEVEL3_CACHE_SIZE),
        "copy_gbps": round(copy_bw, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
