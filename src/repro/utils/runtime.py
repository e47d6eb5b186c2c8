"""Process-wide runtime policies, applied once where a training process starts.

:func:`configure` runs from ``FederatedTrainer.__init__`` and from
``serve.worker.run_worker``; forked socket workers inherit the policies of
the process that forked them.  It sets two things no Python object owns:

* **Allocator** (glibc only).  A tape replay frees its activations and conv
  column buffers (several MB each) and the next replay allocates them again.
  With glibc's defaults the freed pages go back to the kernel and come back
  as minor page faults.  The mmap threshold is fixed at 32 MB and the trim
  threshold at 64 MB, so those buffers stay in the heap.  glibc's own
  dynamic rule raises the mmap threshold to the largest freed mmapped chunk,
  up to the same 32 MB ceiling on 64-bit, and the trim threshold to twice
  that; the policy starts at the ceiling instead of climbing to it, so it
  retains no more per arena than glibc may.  The policy runs after a run's
  data and models are built, so the heap set-up left free is released once
  (``malloc_trim(0)``).  A user who set glibc's malloc env vars
  (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``,
  ``MALLOC_TOP_PAD_`` or ``glibc.malloc.`` tunables) keeps them.
* **BLAS threads.**  numpy's bundled OpenBLAS starts a pool as wide as the
  host.  On this program's small GEMMs the extra threads mostly spin (on a
  2-vCPU host they doubled a FedKNOW run's CPU time and did not shorten its
  wall time), and the round engines bring their own parallelism.  OpenBLAS
  gets one thread, unless the user set ``OPENBLAS_NUM_THREADS`` or
  ``OMP_NUM_THREADS``.  OpenBLAS reads those only when numpy loads, so the
  count is set by a call into the library.

Neither policy changes a computed bit.  What was applied is recorded as the
gauges ``runtime.blas_threads``, ``runtime.malloc_mmap_threshold_mb`` and
``runtime.malloc_trim_threshold_mb`` (0 where nothing was applied).
"""

from __future__ import annotations

import ctypes
import glob
import os

from ..obs.metrics import METRICS

__all__ = ["bundled_openblas", "configure"]

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "MALLOC_TOP_PAD_")
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: Both policies are process-wide and cannot be undone, so they are applied
#: once per process (a forked child inherits this flag with the policies).
_configured = False


def configure() -> None:
    """Apply the allocator and BLAS policies to this process, once."""
    global _configured
    if _configured:
        return
    _configured = True
    mmap, trim = _tune_allocator()
    METRICS.gauge("runtime.malloc_mmap_threshold_mb").set(mmap >> 20)
    METRICS.gauge("runtime.malloc_trim_threshold_mb").set(trim >> 20)
    METRICS.gauge("runtime.blas_threads").set(_pin_blas())


def _tune_allocator() -> tuple[int, int]:
    """The (mmap, trim) thresholds set in bytes; 0 for one not set."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr / not glibc
        glibc = None
    env = os.environ
    if (not glibc or any(env.get(name) for name in _MALLOC_ENV)
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return 0, 0
    libc = ctypes.CDLL(None)
    mallopt = libc.mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # a fixed trim threshold also switches off glibc's dynamic mmap
    # threshold, so it is set only once the mmap threshold has taken
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return 0, 0
    if mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        return MMAP_THRESHOLD, 0
    # the pages set-up freed under glibc's defaults would now stay beside
    # the training heap: hand them back once
    malloc_trim = libc.malloc_trim
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)
    return MMAP_THRESHOLD, TRIM_THRESHOLD


def _pin_blas() -> int:
    """One thread for the bundled OpenBLAS unless the user chose a count;
    returns the count in effect (0 with no bundled OpenBLAS)."""
    library = bundled_openblas()
    if library is None:
        return 0
    try:
        set_threads = library.scipy_openblas_set_num_threads64_
        get_threads = library.scipy_openblas_get_num_threads64_
    except AttributeError:  # an OpenBLAS built with other symbol names
        return 0
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    if not any(os.environ.get(name) for name in _BLAS_ENV):
        set_threads(1)
    return get_threads()


def bundled_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library numpy's wheel bundles (``numpy.libs``), or
    None when numpy carries none."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None
