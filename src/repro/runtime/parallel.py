"""Multi-worker parallel execution of a task graph.

The paper's runtime (PaRSEC) extracts the concurrency of the tile
Cholesky DAG across worker threads; this module is the in-process
analogue.  ``ParallelExecutionEngine`` plugs a pool of N lane threads
into the scheduling core of
:class:`~repro.runtime.engine.ExecutionEngine`: the core (running in
the calling thread) pops the ready pool, hands each idle lane one task
as a future, and retires the futures as they complete.  Fail-fast,
starvation diagnosis, the stall timeout, checkpoint capture and the
integrity checks are all the core's, exactly as for the serial
engine.

Correctness leans on :func:`~repro.runtime.dag.build_graph`'s
RAW/WAR/WAW edges: two concurrently running tasks never touch the same
tile, so kernels need no per-tile locks.  ``debug=True`` *asserts*
that invariant at runtime, checking every dispatched task against the
running ones, instead of trusting it silently.

The NumPy/SciPy tile kernels release the GIL inside BLAS/LAPACK, so
lane threads genuinely overlap on multicore hardware with no pickling
or shared-memory machinery.  This is the default multi-worker backend,
and the only one where ``fork`` is unavailable.
"""

from __future__ import annotations

import os
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor

from repro.runtime.engine import (
    ExecutionEngine,
    InlineExecutor,
    Outcome,
    RunContext,
    scaled_stall_timeout,
)
from repro.runtime.faults import FaultInjector, RetryPolicy
from repro.runtime.scheduler import Scheduler

__all__ = [
    "ParallelExecutionEngine",
    "resolve_workers",
    "resolve_engine",
    "engine_for",
    "stall_timeout_from_env",
    "scaled_stall_timeout",
]

#: Environment variable supplying the default worker count (used by the
#: CI smoke job to sweep the whole core suite through the parallel
#: engine without touching call sites).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable switching on the per-tile ownership assertion.
DEBUG_ENV = "REPRO_ENGINE_DEBUG"

#: Environment variable supplying the default stall-watchdog timeout in
#: seconds (unset / empty / 0 disables the watchdog).
STALL_TIMEOUT_ENV = "REPRO_STALL_TIMEOUT"

#: Environment variable selecting the execution backend ("threads",
#: "mp", or "serial"); the CI mp smoke job sweeps the core suite with
#: REPRO_ENGINE=mp without touching call sites.
ENGINE_ENV = "REPRO_ENGINE"

#: Accepted backend names (with aliases) -> canonical form.
_ENGINE_ALIASES = {
    "threads": "threads",
    "thread": "threads",
    "threaded": "threads",
    "mp": "mp",
    "process": "mp",
    "processes": "mp",
    "multiprocess": "mp",
    "serial": "serial",
}


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value > $REPRO_WORKERS > 1.

    ``workers <= 0`` (explicit or from the environment) means "one per
    CPU core".
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        workers = int(env)
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def debug_from_env() -> bool:
    """Whether $REPRO_ENGINE_DEBUG requests the ownership assertion."""
    return os.environ.get(DEBUG_ENV, "").strip() not in ("", "0")


def stall_timeout_from_env() -> float | None:
    """The stall-watchdog timeout requested by $REPRO_STALL_TIMEOUT.

    Returns ``None`` (watchdog disabled) when unset, empty, or
    non-positive.
    """
    env = os.environ.get(STALL_TIMEOUT_ENV, "").strip()
    if not env:
        return None
    timeout = float(env)
    return timeout if timeout > 0.0 else None


def resolve_engine(engine: str | None = None) -> str:
    """Resolve a backend name: explicit value > $REPRO_ENGINE > threads.

    Returns one of ``"threads"``, ``"mp"``, ``"serial"`` (aliases like
    ``"process"`` normalize); raises ``ValueError`` on anything else.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip() or "threads"
    canonical = _ENGINE_ALIASES.get(str(engine).strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown execution backend {engine!r}; expected one of "
            f"{sorted(set(_ENGINE_ALIASES.values()))} "
            f"(aliases: {sorted(_ENGINE_ALIASES)})"
        )
    return canonical


def engine_for(
    workers: int | None,
    scheduler: Scheduler | None = None,
    fault_injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    verify_tiles: bool | None = None,
    engine: str | None = None,
) -> ExecutionEngine:
    """The cheapest engine that honours ``workers`` and ``engine``.

    One worker gets the serial :class:`ExecutionEngine` (no locks, no
    threads); more get a :class:`ParallelExecutionEngine` (GIL-bound
    Python glue, BLAS overlaps) or, with ``engine="mp"`` /
    ``$REPRO_ENGINE=mp``, the shared-memory
    :class:`~repro.runtime.parallel_mp.MultiprocessExecutionEngine`.
    ``engine="serial"`` forces the serial engine at any worker count.
    Fault injection, retry policy, and checksum verification are
    threaded into all of them.
    """
    n = resolve_workers(workers)
    backend = resolve_engine(engine)
    common = dict(fault_injector=fault_injector, retry=retry, verify_tiles=verify_tiles)
    if n <= 1 or backend == "serial":
        return ExecutionEngine(scheduler, **common)
    if backend == "mp":
        # Imported lazily: parallel_mp pulls in multiprocessing and
        # the arena, neither of which the threaded path needs.
        from repro.runtime.parallel_mp import MultiprocessExecutionEngine as cls
    else:
        cls = ParallelExecutionEngine
    eng = cls(scheduler, workers=n, stall_timeout=stall_timeout_from_env(), **common)
    # The ownership assertion lives in the scheduling core, so it covers
    # forked lanes exactly as it covers threads.
    eng.debug = debug_from_env()
    return eng


class _ThreadExecutor(InlineExecutor):
    """A pool of lane threads; each dispatched task is one future."""

    def __init__(self, engine: ExecutionEngine, run: RunContext, lanes: int):
        super().__init__(engine, run, lanes)
        self._pool = ThreadPoolExecutor(lanes, thread_name_prefix="tlr-worker")
        self._running: set[Future] = set()

    def submit(self, lane: int, index: int) -> None:
        self._running.add(self._pool.submit(self.execute, lane, index))

    def wait(self, timeout: float | None) -> list[Outcome]:
        done, self._running = futures.wait(
            self._running, timeout, return_when=futures.FIRST_COMPLETED
        )
        return [f.result() for f in done]

    def close(self) -> None:
        """Stop the pool; in-flight kernels cannot be interrupted, so
        this returns once they do."""
        self._pool.shutdown(wait=True)


class ParallelExecutionEngine(ExecutionEngine):
    """Executes a task graph with ``workers`` lane threads.

    Kernel registration, scheduler policy and the whole scheduling
    loop are inherited from :class:`ExecutionEngine`; only the
    executor is replaced.  A run produces the same per-tile arithmetic
    as the serial engine — every write sequence to a tile is ordered
    by the graph's edges — so factors are bitwise-reproducible across
    worker counts.

    Parameters
    ----------
    scheduler:
        Ready-pool ordering policy (default: priority).
    workers:
        Lane thread count (>= 1).
    debug:
        Verify the no-concurrent-tile-access invariant on every
        dispatch (cheap: the new task's tiles against those of at most
        ``workers - 1`` running tasks).  A violation aborts the run with
        ``ValueError`` — it means the graph builder under-constrained
        the DAG, and the factorization cannot be trusted.
    fault_injector / retry:
        Fault injection and transient-failure retry/rollback (see
        :class:`ExecutionEngine`).  Retry backoff sleeps happen in the
        lane thread.
    stall_timeout:
        Stall timeout in seconds (default: ``$REPRO_STALL_TIMEOUT``
        via :func:`engine_for`, else disabled).  If no task is
        dispatched or retired for this long while tasks remain, the
        run is aborted with a diagnostic ``ValueError`` reporting
        per-lane state — catching hung kernels that the logical
        starvation check (which needs every lane idle) cannot see.
        In-flight kernels cannot be interrupted; the error surfaces
        once they return.  Choose a timeout well above the slowest
        expected kernel (and above any retry backoff).
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        workers: int = 2,
        debug: bool = False,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        stall_timeout: float | None = None,
        verify_tiles: bool | None = None,
    ) -> None:
        super().__init__(
            scheduler,
            fault_injector=fault_injector,
            retry=retry,
            verify_tiles=verify_tiles,
        )
        self._set_lanes(workers, stall_timeout)
        self.debug = bool(debug)

    def _executor(self, run: RunContext, lanes: int) -> _ThreadExecutor:
        return _ThreadExecutor(self, run, lanes)
