"""CPU budget for forked workers: usable CPUs and OpenBLAS pool caps.

numpy and scipy wheels each bundle their own pthread OpenBLAS
(``libscipy_openblas64_`` and ``libscipy_openblas``), and each sizes
its thread pool to every CPU when it is imported.  ``jobs`` forked
workers that all inherit those sizes oversubscribe the host: every
level-1 call on a long vector (CG's dot products and norms) wakes
threads that spin while the other workers need the CPU.
:func:`cap_blas_threads` lowers each pool by writing the library's
exported ``blas_cpu_number``.  The public ``openblas_set_num_threads``
setters are not used on purpose: after a fork they restart the pool's
threads, whereas the direct write leaves a worker that makes no
threaded BLAS call with no BLAS thread.

:func:`openblas_pools` finds the pools in the parent: a forked child
inherits the libraries and the cells at the same addresses, so each
worker only writes, and the scan (about 1 ms of CPU) runs once per
sweep rather than once per fork.  The cap never raises a pool (so
``OPENBLAS_NUM_THREADS=1`` set
by an operator still wins) and never loads a library.  It targets
pthread OpenBLAS builds found through ``/proc/self/maps``; elsewhere
nothing is found and nothing is written.
"""

from __future__ import annotations

import ctypes
import os
from typing import Sequence

#: (library file name, its ``blas_cpu_number`` cell)
BlasPool = tuple[str, ctypes.c_int]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the count.

    ``taskset`` and cgroup cpusets narrow the mask; ``os.cpu_count()``
    ignores them.  Platforms without ``sched_getaffinity`` (macOS) fall
    back to the count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas_paths() -> list[str]:
    """Paths of the OpenBLAS builds mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="replace") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: dict[str, None] = {}
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in os.path.basename(path):
                paths[path] = None
    return list(paths)


def openblas_pools() -> list[BlasPool]:
    """Every OpenBLAS build mapped into this process, with its cell.

    A library that cannot be opened without loading it, or that does
    not export ``blas_cpu_number``, is skipped.
    """
    pools = []
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            size = ctypes.c_int.in_dll(library, "blas_cpu_number")
        except (OSError, ValueError):
            continue
        pools.append((os.path.basename(path), size))
    return pools


def cap_blas_threads(pools: Sequence[BlasPool],
                     limit: int) -> dict[str, int]:
    """Lower each pool to at most ``limit`` threads.

    Returns each pool's thread count after the cap, by file name.
    """
    for _, size in pools:
        if limit < size.value:
            size.value = limit
    return {name: size.value for name, size in pools}
