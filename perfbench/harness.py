"""Environment pinning, correctness checks, leak checks and statistics.

Everything here runs in the benchmark process and talks to the program
only through its public API.  ``pin_environment`` must run before numpy
is imported anywhere: OpenBLAS reads its thread count once, at load.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

#: Thread-count variables fixed at 1 for the whole process tree (forked
#: shards and mp workers inherit the environment and the loaded BLAS).
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> list[str]:
    """Clear ``REPRO_*`` overrides and pin BLAS/OpenMP threads to 1.

    Returns the names of the ``REPRO_*`` variables that were cleared, so
    library defaults (compression, engine, workers) are what is measured.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in cleared:
        del os.environ[k]
    for k in THREAD_VARS:
        os.environ[k] = "1"
    return cleared


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy actually loaded."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record(cleared: list[str]) -> dict:
    """Hardware and library facts every result is recorded with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "repro_env_cleared": cleared,
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and its waited-for
    children.  Forked children map the parent's pages, so a sum would
    count the same memory twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def dense_operator(spec):
    """The uncompressed RBF matrix of ``spec`` (the independent reference)."""
    from repro import dense_rbf_matrix
    from repro.service import KERNELS

    return dense_rbf_matrix(
        spec.points, spec.shape_parameter, KERNELS[spec.kernel](), spec.nugget
    )


def backward_error(ax, x, b, a_norm: float) -> float:
    """Normwise backward error ``||A x - b|| / (||A|| ||x|| + ||b||)``."""
    import numpy as np

    return float(
        np.linalg.norm(ax - b) / (a_norm * np.linalg.norm(x) + np.linalg.norm(b))
    )


# ----------------------------------------------------------------------
# leak checks
# ----------------------------------------------------------------------

#: Process names (``comm``) the program gives its helper processes.
_HELPER_PREFIXES = ("tlr-shard", "tlr-mp-worker")


def _helper_pids() -> set[int]:
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm.startswith(_HELPER_PREFIXES):
            pids.add(int(entry))
    return pids


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts to track
    shared-memory segments (the mp engine's arenas create one)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class LeakCheck:
    """Snapshot helper processes and ``/dev/shm`` before a workload and
    report what is left over after it (with a grace period for exits)."""

    def __init__(self) -> None:
        self._pids = _helper_pids()
        self._shm = _shm_entries()

    def leaks(self, grace: float = 5.0) -> list[str]:
        give_up = time.monotonic() + grace
        while True:
            found = [
                f"child process {p.name} (pid {p.pid})"
                for p in multiprocessing.active_children()
            ]
            found += [
                f"helper process pid {pid}" for pid in _helper_pids() - self._pids
            ]
            found += [
                f"/dev/shm/{name}" for name in sorted(_shm_entries() - self._shm)
            ]
            if not found or time.monotonic() >= give_up:
                return found
            time.sleep(0.1)
