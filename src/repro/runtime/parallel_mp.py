"""True-parallel process-pool execution of a task graph.

``ParallelExecutionEngine`` (threads) loses most of the hardware on
real numerics: the Python glue between BLAS calls — tile dispatch,
recompression bookkeeping, trace records — serializes on the GIL
(BENCH_parallel.json: 5.8x replayed vs 1.3x real at 8 workers).  This
module replaces threads with *processes*, the asynchronous-runtime
model of the fan-both Cholesky solvers: one-sided, message-driven task
execution with no global lock.

Architecture
------------

* **Tile arena** — all tile payloads live in
  :class:`~repro.linalg.arena.TileArena` shared-memory segments,
  created by the coordinator before forking.  Workers map the same
  physical pages; task messages carry ``(task index, expected operand
  checksums, dispatch epoch)`` — kernel id and tile keys, never tile
  payloads.
* **Workers** — forked processes inheriting the registered kernels and
  the task graph (closures need no pickling under ``fork``).  Each
  loops: pull a task from its *own* lane queue, run the kernel against
  arena-backed tile views (fault injection, retry with arena-byte
  rollback, and operand checksum verification all happen *in the
  worker*), and send a small retirement message back.
* **Coordinator** — the scheduling core of
  :class:`~repro.runtime.engine.ExecutionEngine`, unchanged: the
  scheduler policy orders the ready pool and at most one task per idle
  worker is in flight, so priority order is respected.  This module
  only supplies its executor, whose retirement step materializes the
  task's written tiles out of the arena into the caller's matrix (a
  private copy, immune to later in-place slot rewrites) before the
  core records checksums, feeds the checkpoint manager and releases
  successors.
* **Supervisor** — per-lane task queues make the coordinator's view of
  worker state exact: it always knows which task each worker holds.
  :class:`~repro.runtime.supervisor.WorkerSupervisor` watches pid
  liveness and per-task hang budgets; a worker lost to a real
  ``SIGKILL`` (or wedged past the hang budget, which earns it one) is
  *recovered*, not fatal: its in-flight task is requeued, the task's
  write slots are rewound from the coordinator's private tiles (an
  in-place kernel may have torn them), and a replacement process is
  forked onto the existing arena segments.  The factor stays bitwise
  identical because replayed tasks see exactly the operands the dead
  worker saw.

Invariants preserved from the threaded engine:

* **bitwise-identical factors** at any worker count — arena copy-in /
  views / copy-out all preserve memory order (C vs Fortran), so every
  kernel sees byte- and layout-identical operands to the serial run;
* **per-task retry with tile-snapshot rollback** — worker-side, as
  byte snapshots of the slots a task writes (arena slots are rewritten
  in place, so reference snapshots would alias);
* **fault injection** — the plan is a pure function of
  ``(seed, rule, task, attempt)``, so worker-side decisions replay the
  serial sequence exactly; counters are merged back per retirement.
  Process-fate kinds additionally shift by the dispatch epoch, so a
  respawned replacement is not doomed to re-die on the same task;
* **checkpoint capture** and **ABFT checksum verification** — operand
  digests ride along with the task message; a corrupt operand fails
  the task in the worker, and the coordinator heals the arena from the
  checkpoint's last-known-good tile and re-dispatches;
* a worker hard-crash (``os._exit(137)`` fault kind) still takes the
  coordinator down with the same exit code — SIGKILL semantics — after
  unlinking the shared segments, so recovery flows through the
  checkpoint/restart layer just like the in-process engines.  Only
  *real* signal deaths (negative exit codes) and hangs are supervised.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import time
from functools import partial

from repro.runtime.engine import ExecutionEngine, Outcome, RunContext
from repro.runtime.faults import (
    FaultInjector,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
    restore_writes,
    snapshot_writes,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.supervisor import WorkerSupervisor
from repro.runtime.task import Task

__all__ = ["MultiprocessExecutionEngine", "WorkerCrashError"]

#: executor poll granularity while waiting on retirements
_POLL_SECONDS = 0.05

#: heal-and-redispatch budget per task (checksum-verified runs)
_MAX_HEALS_PER_TASK = 2


class WorkerCrashError(RuntimeError):
    """A worker process died and supervision could not (or may not)
    recover it — respawn budget exhausted or supervision disabled."""


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it round-trips through pickle, else a summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class MultiprocessExecutionEngine(ExecutionEngine):
    """Executes a task graph with ``workers`` forked processes.

    Requires the ``fork`` start method (POSIX): kernels are inherited,
    not pickled, and the tile arena's handles ride through the fork.
    Construction raises :class:`RuntimeError` elsewhere — callers can
    fall back to the threaded engine.

    Data stores with tile accessors (``tile``/``set_tile``/iteration —
    :class:`~repro.linalg.tile_matrix.TLRMatrix` and friends) are
    shared through the arena and written back tile-by-tile as tasks
    retire.  Stores without them (e.g. ``None`` for replay benchmarks)
    are simply inherited by each worker: kernels run true-parallel but
    worker-side writes to such a store stay process-local.

    Parameters mirror :class:`~repro.runtime.parallel.
    ParallelExecutionEngine` (``debug`` is the ``debug`` attribute,
    which :func:`~repro.runtime.parallel.engine_for` sets from
    ``$REPRO_ENGINE_DEBUG``), plus:

    spill_factor:
        Scales the arena's over-cap spill region (default
        ``$REPRO_ARENA_SPILL`` or 1.5x the all-dense payload size).
    supervise:
        Recover from real worker deaths (``SIGKILL``, OOM kills) and
        hangs by requeueing the lost task, rewinding its write slots,
        and re-forking a replacement onto the existing arena.  Injected
        hard crashes (exit 137) are still mirrored — that is the
        checkpoint/restart contract.  ``False`` restores the fail-fast
        behavior (:class:`WorkerCrashError` on any silent death).
    max_respawns:
        Total replacement workers per run (default ``2 * workers + 2``)
        — a crash loop surfaces instead of respawning forever.
    hang_timeout:
        Seconds one task may hold a worker before the supervisor
        declares it hung and SIGKILLs it into the recovery path.
        Default: 80% of the (cost-model-scaled) stall timeout when one
        is configured, else disabled.
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        workers: int = 2,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        stall_timeout: float | None = None,
        verify_tiles: bool | None = None,
        spill_factor: float | None = None,
        supervise: bool = True,
        max_respawns: int | None = None,
        hang_timeout: float | None = None,
    ) -> None:
        super().__init__(
            scheduler,
            fault_injector=fault_injector,
            retry=retry,
            verify_tiles=verify_tiles,
        )
        self._set_lanes(workers, stall_timeout)
        if max_respawns is not None and max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0 or None, got {max_respawns}"
            )
        if hang_timeout is not None and hang_timeout <= 0.0:
            raise ValueError(
                f"hang_timeout must be positive or None, got {hang_timeout}"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessExecutionEngine needs the 'fork' start method "
                "(POSIX); use the threaded ParallelExecutionEngine here"
            )
        self.spill_factor = spill_factor
        self.supervise = bool(supervise)
        self.max_respawns = max_respawns
        self.hang_timeout = hang_timeout
        #: lane -> OS pid of the worker that ran it (filled per run,
        #: updated when a lane is respawned)
        self.worker_pids: dict[int, int] = {}
        #: supervision counters of the most recent run (respawns,
        #: hung_killed, tasks_requeued, tiles_restored, stale_results)
        self.last_run_supervision: dict[str, int] = {}

    def _begin_run(self) -> None:
        super()._begin_run()
        self.last_run_supervision = {}
        self.worker_pids = {}

    def _executor(self, run: RunContext, lanes: int) -> _ProcessExecutor:
        return _ProcessExecutor(self, run, lanes)


class _ProcessExecutor:
    """Forked worker lanes over a shared-memory tile arena.

    Owns what is specific to processes: spawning lanes and recovering
    them under a :class:`WorkerSupervisor`, the arena copy-out at
    retirement, coordinator-side healing of corrupt operands (the task
    goes back to the ready pool), the exit-137 mirror, and teardown.
    """

    def __init__(
        self, engine: MultiprocessExecutionEngine, run: RunContext, lanes: int
    ):
        from repro.linalg.arena import TileArena

        self.engine = engine
        self.run = run
        self.lanes = lanes
        data = run.data
        arena_mode = (
            hasattr(data, "tile")
            and hasattr(data, "set_tile")
            and hasattr(data, "__iter__")
        )
        self.arena = (
            TileArena.from_store(data, spill_factor=engine.spill_factor)
            if arena_mode
            else None
        )
        #: what kernels run against in the workers
        self._store = self.arena if self.arena is not None else data
        self.hang_timeout = engine.hang_timeout
        if (
            self.hang_timeout is None
            and engine.supervise
            and run.stall_timeout is not None
        ):
            # Fire before the run-level stall timeout would: a single
            # wedged worker should be recovered, not abort the run.
            self.hang_timeout = 0.8 * run.stall_timeout
        budget = 0
        if engine.supervise:
            budget = (
                engine.max_respawns
                if engine.max_respawns is not None
                else 2 * lanes + 2
            )
        self.supervisor = WorkerSupervisor(
            max_respawns=budget, hang_timeout=self.hang_timeout
        )
        self._ctx = multiprocessing.get_context("fork")
        self._queues: dict[int, object] = {}
        #: lane -> read end of that lane's single-writer result pipe
        self._conns: dict[int, object] = {}
        #: readiness of every live result pipe, keyed to its lane
        self._ready = selectors.PollSelector()
        self._procs: dict[int, object] = {}
        #: lane -> task index currently dispatched to it
        self._lane_task: dict[int, int] = {}
        #: task index -> dispatch epoch (bumped per supervised requeue;
        #: a stale retirement from a killed worker carries the old
        #: epoch and is dropped instead of double-retiring the task)
        self._epoch: dict[int, int] = {}
        self._heals: dict[int, int] = {}
        #: running tasks that read a slot healed under them
        self._suspect: set[int] = set()
        try:
            for lane in range(lanes):
                self._spawn(lane)
        except BaseException:
            self.close()
            raise

    def _spawn(self, lane: int) -> None:
        # A fresh lane queue per (re)spawn: a task message the dead
        # worker never pulled must not reach its replacement — the
        # core requeues it explicitly, exactly once.  The result pipe
        # is fresh too; its write end lives only in the new child (the
        # parent drops its copy right after the fork), so worker death
        # reads as EOF, never a stuck lock.
        q = self._ctx.SimpleQueue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        p = self._ctx.Process(
            target=self._serve,
            args=(lane, q, send_conn),
            name=f"tlr-mp-worker-{lane}",
            daemon=True,
        )
        self._queues[lane] = q
        self._procs[lane] = p
        p.start()
        send_conn.close()
        self._conns[lane] = recv_conn
        self._ready.register(recv_conn, selectors.EVENT_READ, lane)
        self.engine.worker_pids[lane] = p.pid
        self.supervisor.attach(lane, p)

    def submit(self, lane: int, index: int) -> None:
        ledger = self.run.ledger
        expected = None
        if self.run.verify:
            task = self.run.graph.tasks[index]
            expected = {}
            for key in set(task.reads):
                digest = ledger.expected(key)
                if digest is not None:
                    expected[key] = digest
        self._lane_task[lane] = index
        self.supervisor.task_dispatched(lane, index)
        self._queues[lane].put((index, expected, self._epoch.get(index, 0)))

    def wait(self, timeout: float | None) -> list[Outcome]:
        poll = _POLL_SECONDS if timeout is None else min(timeout, _POLL_SECONDS)
        outcomes = []
        for key, _ in self._ready.select(poll):
            # A lane holds one task at a time, so one frame per wakeup;
            # anything more is still ready on the next wait.
            try:
                out = self._accept(key.fileobj.recv())
            except (EOFError, OSError):
                # The writer died.  Stop waiting on this pipe — an EOF
                # conn is permanently "ready" and would starve the
                # supervisor poll below; the supervisor recovers the
                # lane and _spawn() replaces the pipe.
                self._drop_conn(key.data)
                continue
            if out is not None:
                outcomes.append(out)
        return outcomes or self._supervise()

    def _accept(self, msg) -> Outcome | None:
        """Vet one worker message before it reaches the core."""
        lane, idx, epoch, attempts, exc, start, end, counters, reports = msg
        if self._lane_task.get(lane) != idx or epoch != self._epoch.get(idx, 0):
            # Stale retirement: a worker we already declared dead/hung
            # (and whose task we requeued) raced its own result out
            # before the SIGKILL landed.  The replay owns the task now —
            # dropping the stale message keeps exactly-once retirement.
            self.supervisor.stale_results += 1
            return None
        del self._lane_task[lane]
        self.supervisor.task_retired(lane)
        if idx in self._suspect:
            self._suspect.discard(idx)
            if exc is None:
                self._rewind_writes(self.run.graph.tasks[idx])
                return Outcome(lane, idx, attempts, requeue=True)
        if (
            isinstance(exc, TaskFailedError)
            and isinstance(exc.cause, TileCorruptionError)
            and self._heals.get(idx, 0) < _MAX_HEALS_PER_TASK
            and self._heal_operands(self.run.graph.tasks[idx])
        ):
            self._heals[idx] = self._heals.get(idx, 0) + 1
            return Outcome(lane, idx, exc.attempts, requeue=True)
        if exc is not None:
            return Outcome(lane, idx, error=exc)
        if counters:
            injector = self.engine.fault_injector
            with injector._lock:
                for key, delta in counters.items():
                    injector.counters[key] += delta
        if reports:
            for report, delta in zip(self.engine._reports, reports):
                if delta:
                    report.update(delta)
        pid = self.engine.worker_pids[lane]
        return Outcome(lane, idx, attempts, None, start, end, pid)

    def _heal_operands(self, task: Task) -> bool:
        """Restore corrupt operand slots from last-known-good tiles.

        Returns False when the corruption is unhealable and the failure
        must surface.  A heal rewrites arena slots in place, under any
        running task that reads them: such a task may have consumed the
        corrupt bytes before the heal, after which its post-kernel
        re-check passes — so it is marked to be redone, not retired.
        """
        arena, data = self.arena, self.run.data
        ledger, checkpoint = self.run.ledger, self.run.checkpoint
        if arena is None or ledger is None or checkpoint is None:
            return False
        healed = set()
        for key in sorted(set(task.reads)):
            if ledger.matches(key, arena.tile(*key)):
                continue
            if not checkpoint.heal(data, key):
                return False
            good = data.tile(*key)
            if not ledger.matches(key, good):
                return False
            arena.set_tile(*key, good)
            healed.add(key)
        tasks = self.run.graph.tasks
        self._suspect.update(
            i for i in self._lane_task.values() if healed.intersection(tasks[i].reads)
        )
        return bool(healed)

    def _supervise(self) -> list[Outcome]:
        """Recover dead/hung lanes; their tasks go back to the pool."""
        outcomes = []
        for f in self.supervisor.poll():
            if f.injected_hard_crash:
                # A worker took the injected SIGKILL; mirror its exit
                # code so the process-level crash semantics (and the
                # checkpoint/restart recovery story) match the
                # in-process engines.  Segments are unlinked first.
                self.close()
                os._exit(137)
            if not self.supervisor.can_respawn():
                detail = (
                    f"hung past the {self.hang_timeout:.3g}s hang budget"
                    if f.hung
                    else f"died (exit {f.exitcode})"
                )
                in_flight = ", ".join(
                    str(self.run.graph.tasks[i]) for i in self._lane_task.values()
                )
                raise WorkerCrashError(
                    f"worker lane {f.lane} (pid {f.pid}) {detail}"
                    + (
                        f"; respawn budget ({self.supervisor.max_respawns}) "
                        "exhausted"
                        if self.engine.supervise
                        else "; supervision disabled"
                    )
                    + (f"; in flight: {in_flight}" if in_flight else "")
                )
            idx = self._recover(f.lane)
            if idx is not None:
                outcomes.append(Outcome(f.lane, idx, requeue=True))
        return outcomes

    def _recover(self, lane: int) -> int | None:
        """Re-fork a dead/hung lane; returns the task it lost, if any."""
        dead_conn = self._conns.get(lane)
        if dead_conn is not None:
            # Complete frames the dying worker raced out still sit in
            # the pipe buffer: results for the task being requeued
            # below, so they are stale by construction.
            try:
                while dead_conn.poll(0):
                    dead_conn.recv()
                    self.supervisor.stale_results += 1
            except (EOFError, OSError):
                pass  # torn trailing frame from mid-send death
            self._drop_conn(lane)
        idx = self._lane_task.pop(lane, None)
        if idx is not None:
            self._rewind_writes(self.run.graph.tasks[idx])
            self._epoch[idx] = self._epoch.get(idx, 0) + 1
            self.supervisor.tasks_requeued += 1
        if self.arena is not None:
            # The dead worker may have held the spill-allocator lock (a
            # microseconds-wide window, but a SIGKILL can land
            # anywhere); break it rather than deadlock every surviving
            # worker's next spill allocation.
            self.arena.break_lock()
        self._procs[lane].join(timeout=1.0)
        self._spawn(lane)
        self.supervisor.record_respawn(lane)
        return idx

    def _drop_conn(self, lane: int) -> None:
        conn = self._conns.pop(lane)
        self._ready.unregister(conn)
        conn.close()

    def _rewind_writes(self, task: Task) -> None:
        """Restore the pre-task bytes of a lost task's write slots.

        ``data`` always holds the last *retired* value of every tile
        (retirement materializes arena -> data, and the DAG's WAW/RAW
        edges guarantee the previous writer retired before this task
        dispatched), so republishing ``data``'s tiles rewinds any
        partial in-place write the dead worker left in the arena.
        Read-only operands need no rewind: kernels never mutate them.
        """
        if self.arena is None:
            return
        for key in sorted(set(task.writes)):
            self.arena.set_tile(*key, self.run.data.tile(*key))
            self.supervisor.tiles_restored += 1

    def retire(self, task: Task) -> None:
        """Materialize a retired task's outputs out of the arena.

        The copies are private heap tiles: later in-place rewrites of
        the arena slots cannot touch them, so they are safe references
        for the checkpoint manager, the ledger, and the final factor.
        """
        if self.arena is None:
            return
        for key in set(task.writes):
            self.run.data.set_tile(*key, self.arena.materialize(*key))

    def close(self) -> None:
        """Stop the workers (in-flight tasks finish first, within a
        deadline) and unlink the arena."""
        for q in self._queues.values():
            q.put(None)
        deadline = time.monotonic() + 5.0
        for p in self._procs.values():
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in self._procs.values():
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self.supervisor.detach_all()
        for q in self._queues.values():
            q.close()
        for lane in list(self._conns):
            self._drop_conn(lane)
        self._ready.close()
        if self.arena is not None:
            # Written tiles were already copied out per retirement;
            # the segments hold nothing the caller still needs.
            self.arena.close()
            self.arena.unlink()
        self.engine.last_run_supervision = self.supervisor.report()

    # ------------------------------------------------------------------
    # worker side (runs in the forked processes)
    # ------------------------------------------------------------------

    def _execute(self, idx: int, expected: dict | None) -> tuple:
        """The engine's ``_dispatch`` with worker-side rollback and
        verification; returns ``(attempts, error, start, end)``.

        Rollback snapshots are *byte* snapshots of the arena slots the
        task writes (slots are rewritten in place, so tile references
        would alias the very bytes a retry must restore), and operand
        verification compares against the digests the coordinator
        attached to the task message (healing is the coordinator's
        job, on re-dispatch).
        """
        engine, arena, store = self.engine, self.arena, self._store
        task = self.run.graph.tasks[idx]
        if arena is not None:
            snapshot = partial(arena.snapshot, task.writes)
            restore = arena.restore
        else:
            snapshot = partial(snapshot_writes, task, store)
            restore = partial(restore_writes, task, store)
        before = after = None
        if expected is not None:
            from repro.linalg.integrity import tile_checksum

            def matches(key, tile) -> bool:
                want = expected.get(key)
                return want is None or tile_checksum(tile) == want

            where = f"{task}: operand (in worker)"
            before = partial(
                engine._verify, set(task.reads), store, matches, None, where
            )

            def after() -> None:
                # Arena slots are rewritten in place, so an at-rest flip
                # landing *during* the kernel mutates bytes a
                # view-holding kernel may already have consumed.
                # Re-verifying after the kernel closes that window: any
                # flip that could have reached the kernel's reads
                # happened before this check and fails the task, so
                # retirement certifies clean operands end to end.
                # (Own flips are skipped: re-failing on them would
                # re-inject on every redispatch and starve the heal
                # budget.)
                engine._verify(engine._pure_reads(task), store, matches, None, where)

        start = time.perf_counter()
        try:
            attempts = engine._dispatch(task, store, snapshot, restore, before, after)
        except BaseException as exc:  # reported to the coordinator
            return 0, _picklable(exc), 0.0, 0.0
        return attempts, None, start, time.perf_counter()

    def _serve(self, lane: int, task_q, result_conn) -> None:
        """Worker process body: serve tasks until the ``None`` sentinel.

        Results travel on a per-lane pipe whose write end only this
        process holds.  A shared ``mp.Queue`` would do, except its
        feeder thread takes a cross-process write lock around every
        put — a SIGKILL landing inside that window (exactly what the
        worker_kill fault injects) leaves the lock held forever and
        deadlocks every surviving worker's results.  A single-writer
        pipe has no lock to orphan.
        """
        injector = self.engine.fault_injector
        reports = self.engine._reports
        if injector is not None:
            # Arms the whole-worker fault kinds (worker_kill /
            # worker_hang): only a forked worker may act on them.
            injector.in_worker = True
        while (msg := task_q.get()) is not None:
            idx, expected, epoch = msg
            if injector is not None:
                injector.epoch = epoch
            counter_base = dict(injector.counters) if injector else {}
            report_base = [set(r) for r in reports]
            attempts, error, start, end = self._execute(idx, expected)
            counters = deltas = None
            if error is None:
                if injector is not None:
                    counters = {
                        key: count - counter_base.get(key, 0)
                        for key, count in injector.counters.items()
                        if count != counter_base.get(key, 0)
                    }
                deltas = [
                    {key: r[key] for key in r.keys() - base} or None
                    for r, base in zip(reports, report_base)
                ]
            try:
                result_conn.send(
                    (lane, idx, epoch, attempts, error, start, end, counters, deltas)
                )
            except (BrokenPipeError, OSError):  # coordinator is gone
                return
