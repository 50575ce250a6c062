"""The execution engine: one ready-pool scheduling core.

Runs a :class:`~repro.runtime.dag.TaskGraph` to completion: tasks
become ready when all predecessors finish, the scheduler picks among
ready tasks, and the registered kernel for the task's class is invoked
against the shared data store (a :class:`~repro.linalg.TLRMatrix`).

:meth:`ExecutionEngine.run` is the runtime's only scheduling loop, the
analogue of PaRSEC's single scheduler dispatching DAG tasks to
whatever executes them.  Backends differ only in their *executor*,
which says where task *i* runs.  An executor has ``lanes`` slots and
four methods:

* ``submit(lane, i)`` starts task *i* on an idle lane;
* ``wait(timeout)`` returns the :class:`Outcome` of every lane that
  finished (an empty list when ``timeout`` expires first);
* ``retire(task)`` publishes a finished task's outputs into the data
  store before the core records and releases it;
* ``close()`` stops the lanes once the in-flight tasks return.

The serial engine runs each task inline, in the calling thread, so a
single-worker run is exactly the traversal a single-worker PaRSEC
instance would execute, and the trace records real kernel durations
that calibrate the distributed simulator's cost model.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from repro.runtime.checkpoint import (
    CheckpointManager,
    ChecksumLedger,
    verify_tiles_from_env,
)
from repro.runtime.dag import TaskGraph
from repro.runtime.faults import (
    FaultInjector,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
    restore_writes,
    snapshot_writes,
)
from repro.runtime.scheduler import Scheduler, PriorityScheduler
from repro.runtime.task import Task
from repro.runtime.tracing import Trace, TraceEvent

__all__ = ["ExecutionEngine", "scaled_stall_timeout"]

#: A kernel takes (task, data_store) and mutates the store.
Kernel = Callable[[Task, object], None]

#: Retry disabled: a transient failure immediately becomes TaskFailedError.
_NO_RETRY = RetryPolicy(max_retries=0)

#: Safety multiplier applied to the cost model's longest-kernel
#: estimate when scaling the stall timeout.  Generous on purpose: the
#: model is a compute-bound floor calibrated for Shaheen-II cores, and
#: CI machines are slower and noisier.
_STALL_SAFETY = 25.0


def scaled_stall_timeout(base: float | None, graph) -> float | None:
    """Scale a stall timeout by the predicted longest kernel in ``graph``.

    A fixed ``$REPRO_STALL_TIMEOUT`` tuned on small tiles false-fires
    on large-tile POTRF/GEMM tasks that are still making progress —
    the watchdog only sees "no retirement in T seconds", and a single
    8192-tile POTRF legitimately takes that long.  The fix: never let
    the effective timeout drop below ``_STALL_SAFETY`` times the cost
    model's estimate for the most expensive single task in the graph.

    ``base is None`` (watchdog disabled) stays ``None``; the scaled
    value is never *smaller* than ``base``, so tightening is
    impossible — only false-positive relief.
    """
    if base is None:
        return None
    base = float(base)
    tasks = getattr(graph, "tasks", None)
    if not tasks:
        return base
    from repro.machine.costmodel import CostModel
    from repro.machine.models import SHAHEEN_II

    model = CostModel(SHAHEEN_II)
    longest = max(model.kernel_seconds(t.flops) for t in tasks)
    return max(base, _STALL_SAFETY * longest)


class RunContext(NamedTuple):
    """What one run hands its executor."""

    graph: TaskGraph
    data: object
    #: checksum ledger (checkpointing or verification), else ``None``
    ledger: ChecksumLedger | None
    #: verify operand checksums before each kernel consumes them
    verify: bool
    checkpoint: CheckpointManager | None
    #: cost-model-scaled stall timeout in seconds (``None`` = off)
    stall_timeout: float | None


class Outcome(NamedTuple):
    """A lane's report on the task it was given."""

    lane: int
    index: int
    #: retried attempts, added to ``last_run_retries``
    attempts: int = 0
    #: the task's failure; the run fails fast with it
    error: BaseException | None = None
    #: ``time.perf_counter()`` at kernel start / end
    start: float = 0.0
    end: float = 0.0
    #: OS pid of the executing process (0 = in-process)
    pid: int = 0
    #: the task did not retire and goes back into the ready pool (a
    #: lost worker's task, or one whose corrupt operands were healed)
    requeue: bool = False


class InlineExecutor:
    """Runs each task in the calling thread the moment it is submitted:
    the serial engine's one lane, and the in-process task body that the
    threaded engine's lane threads run."""

    def __init__(self, engine: ExecutionEngine, run: RunContext, lanes: int = 1):
        self.engine = engine
        self.run = run
        self.lanes = lanes
        self._done: list[Outcome] = []

    def execute(self, lane: int, index: int) -> Outcome:
        """Run one task against the in-process store and report it."""
        engine, run = self.engine, self.run
        task, data = run.graph.tasks[index], run.data
        before = after = None
        if run.verify:
            seen: dict = {}

            def before() -> None:
                seen.update(
                    engine._verify(
                        set(task.reads), data, run.ledger.matches,
                        run.checkpoint, f"{task}: operand",
                    )
                )

            def after() -> None:
                # Lanes share the store: an at-rest flip, or a heal, that
                # republishes an operand while the kernel runs may have
                # handed the kernel either version, so an operand
                # replaced since the check fails the attempt (the retry
                # checks it again).
                for key in sorted(engine._pure_reads(task)):
                    if data.tile(*key) is not seen[key]:
                        raise TileCorruptionError(
                            f"{task}: operand tile {key} was replaced "
                            "while the kernel ran"
                        )

        start = time.perf_counter()
        try:
            attempts = engine._dispatch(
                task,
                data,
                partial(snapshot_writes, task, data),
                partial(restore_writes, task, data),
                before,
                after,
            )
        except BaseException as exc:  # re-raised by the core, fail-fast
            return Outcome(lane, index, error=exc)
        return Outcome(lane, index, attempts, start=start, end=time.perf_counter())

    def submit(self, lane: int, index: int) -> None:
        self._done.append(self.execute(lane, index))

    def wait(self, timeout: float | None) -> list[Outcome]:
        done, self._done = self._done, []
        return done

    def retire(self, task: Task) -> None:
        """In-process kernels wrote the store directly: nothing to publish."""

    def close(self) -> None:
        pass


def _assert_exclusive(task: Task, running: list[Task]) -> None:
    """Debug mode: ``task`` may not share a tile with a running task
    when either of them writes it."""
    for other in running:
        for mine in task.accesses:
            for theirs in other.accesses:
                if mine.key == theirs.key and (
                    mine.mode.writes or theirs.mode.writes
                ):
                    raise ValueError(
                        f"tile ownership violation: {task} and {other} "
                        f"both access tile {mine.key} and one writes it — "
                        "the task graph under-constrains the DAG"
                    )


class ExecutionEngine:
    """Schedules and executes a task graph with registered kernels.

    The base engine runs every task inline, as one lane; subclasses
    only replace :meth:`_executor`.

    Parameters
    ----------
    scheduler:
        Ready-queue ordering policy (default: priority).
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` wrapping
        every kernel dispatch (testing / chaos engineering).
    retry:
        Optional :class:`~repro.runtime.faults.RetryPolicy`.  When
        set, a transient kernel failure rolls the task's output tiles
        back to their pre-attempt state and re-runs with backoff, so a
        retried run is bitwise identical to a fault-free one.
        Exhausted retries (and, with no policy, any transient failure)
        raise :class:`~repro.runtime.faults.TaskFailedError`.
    verify_tiles:
        Verify every operand tile's BLAKE2b checksum before each
        kernel consumes it, and sweep every tile once at run end —
        ABFT-style silent-data-corruption detection.  ``None``
        (default) defers to ``$REPRO_VERIFY_TILES``.  A mismatch first
        tries to heal from the checkpoint manager's last-known-good
        reference, then raises
        :class:`~repro.runtime.faults.TileCorruptionError` (a
        transient, so the retry policy applies).
    """

    #: lanes a run may use (capped by the number of tasks to run)
    workers = 1
    #: assert the no-concurrent-tile-access invariant on every
    #: dispatch (multi-lane engines)
    debug = False
    #: abort when nothing is dispatched or retired for this long
    stall_timeout: float | None = None

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        verify_tiles: bool | None = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else PriorityScheduler()
        self.fault_injector = fault_injector
        self.retry = retry
        self.verify_tiles = verify_tiles
        #: retried attempts accumulated over the most recent run
        self.last_run_retries = 0
        #: tasks skipped by the checkpoint frontier on the last run
        self.last_run_resumed = 0
        self._kernels: dict[str, Kernel] = {}
        #: out-of-band result dicts (see :meth:`report_dict`)
        self._reports: list[dict] = []

    def _set_lanes(self, workers: int, stall_timeout: float | None) -> None:
        """Validate and store a multi-lane engine's lane configuration."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if stall_timeout is not None and stall_timeout <= 0.0:
            raise ValueError(
                f"stall_timeout must be positive or None, got {stall_timeout}"
            )
        self.workers = int(workers)
        self.stall_timeout = stall_timeout

    def report_dict(self) -> dict:
        """A dict kernels may write side-channel results into.

        On the in-process engines this is a plain dict (kernels mutate
        it directly, e.g. the POTRF diagonal-shift report).  The
        process-pool engine overrides nothing here but *mirrors*
        worker-side writes back into the same registered dict, so
        drivers can stay engine-agnostic: always obtain report dicts
        through this method instead of creating literals.
        """
        d: dict = {}
        self._reports.append(d)
        return d

    def register(self, klass: str, kernel: Kernel) -> None:
        """Bind a task class name to its computational kernel."""
        if klass in self._kernels:
            raise ValueError(f"kernel for task class {klass!r} already registered")
        self._kernels[klass] = kernel

    def _verify_enabled(self) -> bool:
        if self.verify_tiles is not None:
            return bool(self.verify_tiles)
        return verify_tiles_from_env()

    def _setup_integrity(
        self, data: object, checkpoint: CheckpointManager | None
    ) -> tuple[ChecksumLedger | None, bool]:
        """The (ledger, verify-reads?) pair for one run.

        A checkpoint manager always brings its ledger (its manifests
        embed the checksums); verification without checkpointing gets
        a run-local ledger seeded from the operator's initial tiles.
        """
        verify = self._verify_enabled()
        if checkpoint is not None:
            return checkpoint.ledger, verify
        if not verify:
            return None, False
        ledger = ChecksumLedger()
        if hasattr(data, "tile") and hasattr(data, "__iter__"):
            ledger.seed(data)
        return ledger, True

    @staticmethod
    def _verify(
        keys,
        store: object,
        matches: Callable[[tuple[int, int], object], bool],
        checkpoint: CheckpointManager | None,
        where: str,
    ) -> dict:
        """Check the tiles at ``keys`` against their recorded checksums.

        Returns the verified tiles.  A mismatch first tries to heal from
        the checkpoint manager's last-known-good reference, republished
        as a fresh tile object so that a lane which verified the tile
        before it was corrupted can tell it was replaced; a tile that
        stays corrupt raises :class:`TileCorruptionError` (a transient,
        so the retry policy applies to per-task checks).
        """
        verified = {}
        for key in sorted(keys):
            tile = store.tile(*key)
            if not matches(key, tile) and checkpoint is not None:
                if checkpoint.heal(store, key):
                    tile = copy.copy(store.tile(*key))
                    store.set_tile(*key, tile)
            if not matches(key, tile):
                raise TileCorruptionError(
                    f"{where}: tile {key} failed checksum verification — "
                    "silent data corruption detected"
                )
            verified[key] = tile
        return verified

    def _pure_reads(self, task: Task) -> set:
        """The operands ``task``'s kernel only read, for post-kernel
        checks: read-write tiles hold its new output by design, and its
        own injected flips (this thread's last ``invoke``) land after
        the kernel returned — valid outputs, a later reader's problem."""
        skip = set(task.writes)
        if self.fault_injector is not None:
            skip.update(self.fault_injector.flipped_reads)
        return set(task.reads) - skip

    def _dispatch(
        self,
        task: Task,
        store: object,
        snapshot: Callable[[], object],
        restore: Callable[[object], None],
        verify_before: Callable[[], None] | None = None,
        verify_after: Callable[[], None] | None = None,
    ) -> int:
        """Run one task through fault injection and retry/rollback.

        Returns the number of retries performed.  ``snapshot`` captures
        the tiles the task writes and ``restore`` rolls them back after
        a failed attempt; ``verify_before`` / ``verify_after`` check the
        operand tiles around each attempt (raising
        :class:`TileCorruptionError`, which the retry policy treats as
        transient).  Exceptions outside the policy's transient set
        propagate unchanged (fail-fast); transient ones that exhaust
        the budget are wrapped in :class:`TaskFailedError`.
        """
        kernel = self._kernels[task.klass]
        injector = self.fault_injector
        if injector is None and self.retry is None and verify_before is None:
            kernel(task, store)
            return 0
        retry = self.retry if self.retry is not None else _NO_RETRY
        # Snapshot only when a rollback can actually be replayed: with
        # retry disabled the first transient failure is terminal
        # (TaskFailedError, factor discarded), so pre-attempt snapshots
        # would be pure overhead on every clean dispatch.
        rollback = retry.max_retries > 0
        attempt = 0
        while True:
            saved = snapshot() if rollback else None
            try:
                if verify_before is not None:
                    verify_before()
                if injector is not None:
                    injector.invoke(kernel, task, store, attempt)
                else:
                    kernel(task, store)
                if verify_after is not None:
                    verify_after()
                return attempt
            except retry.retry_on as exc:
                if saved is not None:
                    restore(saved)
                if attempt >= retry.max_retries:
                    raise TaskFailedError(task, attempt + 1, exc) from exc
                pause = retry.delay(attempt)
                if pause > 0.0:
                    time.sleep(pause)
                attempt += 1

    def _frontier(
        self,
        graph: TaskGraph,
        data: object,
        indegree: list[int],
        checkpoint: CheckpointManager | None,
    ) -> frozenset:
        """Adopt a checkpoint frontier: pre-retire its completed tasks.

        Binds the manager (a no-op if :meth:`CheckpointManager.bind`
        already ran, e.g. via ``tlr_cholesky(resume_from=...)``),
        decrements successor indegrees for every completed task, and
        returns the completed uid set.  The frontier is downward-closed
        (a task only retires after its predecessors), so the remaining
        subgraph is exactly the unfinished work.
        """
        if checkpoint is None:
            return frozenset()
        checkpoint.bind(graph, data)
        completed = checkpoint.completed_uids
        if completed:
            for i, task in enumerate(graph.tasks):
                if task.uid in completed:
                    for j in graph.successors.get(i, ()):
                        indegree[j] -= 1
        self.last_run_resumed = len(completed)
        return completed

    def _begin_run(self) -> None:
        """Reset the per-run counters."""
        self.last_run_retries = 0
        self.last_run_resumed = 0

    def _executor(self, run: RunContext, lanes: int) -> InlineExecutor:
        """Open the executor that runs this engine's tasks for one run."""
        return InlineExecutor(self, run, lanes)

    @staticmethod
    def _lane_report(graph: TaskGraph, running: dict[int, int], lanes: int) -> str:
        """Per-lane state for stall diagnostics."""
        return "; ".join(
            f"lane {lane}: "
            + (f"running {graph.tasks[running[lane]]}" if lane in running else "idle")
            for lane in range(lanes)
        )

    def run(
        self,
        graph: TaskGraph,
        data: object,
        trace: Trace | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> Trace:
        """Execute every task in dependency order.

        Returns the trace (a fresh one unless ``trace`` is supplied).
        Raises ``KeyError`` before running anything if a task class has
        no registered kernel; re-raises the first kernel failure
        (fail-fast: no further task is dispatched, in-flight ones
        finish, the ready pool is drained); and raises ``ValueError``
        when the graph stalls (cycle / unsatisfiable dependencies, or
        nothing dispatched or retired within ``stall_timeout``) or —
        with ``debug`` — when two concurrent tasks touch one tile.
        With ``checkpoint``, tasks inside the manager's completed
        frontier are skipped and a checkpoint is flushed whenever the
        manager's cadence says one is due.
        """
        if trace is None:
            trace = Trace()
        self._begin_run()
        missing = {t.klass for t in graph.tasks} - set(self._kernels)
        if missing:
            raise KeyError(
                f"no kernel registered for task class(es) {sorted(missing)}"
            )
        indegree = [graph.in_degree(i) for i in range(len(graph))]
        skipped = self._frontier(graph, data, indegree, checkpoint)
        ledger, verify = self._setup_integrity(data, checkpoint)
        if len(skipped) < len(graph):
            stall = scaled_stall_timeout(self.stall_timeout, graph)
            run = RunContext(graph, data, ledger, verify, checkpoint, stall)
            self._schedule(run, trace, indegree, skipped)
        if verify and ledger is not None:
            # Catches corruption of tiles whose final value no task read
            # (e.g. the last writer's output): the factor must not be used.
            self._verify(
                ledger.keys(), data, ledger.matches, checkpoint,
                "post-run integrity sweep",
            )
        return trace

    def _schedule(
        self, run: RunContext, trace: Trace, indegree: list[int], skipped: frozenset
    ) -> None:
        """The ready-pool loop: dispatch, retire, release, until done."""
        graph, data, ledger = run.graph, run.data, run.ledger
        checkpoint = run.checkpoint
        target = len(graph) - len(skipped)
        executor = self._executor(run, min(self.workers, target))
        lanes = executor.lanes
        #: lane -> index of the task it holds
        running: dict[int, int] = {}
        scheduler = self.scheduler
        done = retries = 0
        t0 = time.perf_counter()
        last_progress = time.monotonic()
        try:
            for i in range(len(graph)):
                if indegree[i] == 0 and graph.tasks[i].uid not in skipped:
                    scheduler.push(i, graph.tasks[i])
            while done < target:
                while scheduler and len(running) < lanes:
                    i = scheduler.pop()
                    if self.debug:
                        _assert_exclusive(
                            graph.tasks[i], [graph.tasks[j] for j in running.values()]
                        )
                    lane = next(ln for ln in range(lanes) if ln not in running)
                    running[lane] = i
                    executor.submit(lane, i)
                    last_progress = time.monotonic()
                if not running:
                    # Nothing ready, nothing in flight, tasks remain: the
                    # graph can never finish.
                    stuck = [str(t) for j, t in enumerate(graph.tasks) if indegree[j]]
                    shown = ", ".join(stuck[:8])
                    if len(stuck) > 8:
                        shown += f", ... ({len(stuck) - 8} more)"
                    raise ValueError(
                        f"execution stalled with {len(stuck)} of {target} tasks "
                        f"blocked (cycle or unsatisfiable dependencies): {shown} "
                        f"[{self._lane_report(graph, running, lanes)}]"
                    )
                timeout = None
                if run.stall_timeout is not None:
                    timeout = max(
                        0.0, run.stall_timeout - (time.monotonic() - last_progress)
                    )
                outcomes = executor.wait(timeout)
                if not outcomes:
                    quiet = time.monotonic() - last_progress
                    if run.stall_timeout is not None and quiet >= run.stall_timeout:
                        raise ValueError(
                            f"execution stalled: no task dispatched or retired in "
                            f"{quiet:.3g}s (stall_timeout={run.stall_timeout:.3g}s) "
                            f"with {target - done} of {target} tasks outstanding "
                            f"[{self._lane_report(graph, running, lanes)}]"
                        )
                    continue
                last_progress = time.monotonic()
                for out in outcomes:
                    i = out.index
                    task = graph.tasks[i]
                    del running[out.lane]
                    retries += out.attempts
                    if out.error is not None:
                        raise out.error
                    if out.requeue:
                        scheduler.push(i, task)
                        continue
                    # Retire before releasing successors: until then no
                    # other task can replace the tiles this task wrote, so
                    # the ledger and the checkpoint capture its outputs.
                    executor.retire(task)
                    if ledger is not None:
                        for key in set(task.writes):
                            ledger.record(key, data.tile(*key))
                    trace.record(
                        TraceEvent(
                            task.klass,
                            task.params,
                            out.start - t0,
                            out.end - t0,
                            flops=task.flops,
                            worker=out.lane,
                            pid=out.pid,
                        )
                    )
                    done += 1
                    if checkpoint is not None and checkpoint.task_retired(task, data):
                        checkpoint.flush(data)
                    for j in graph.successors.get(i, ()):
                        indegree[j] -= 1
                        if indegree[j] == 0:
                            scheduler.push(j, graph.tasks[j])
        except BaseException:
            # Drain the ready pool so a reused engine starts clean.
            while scheduler:
                scheduler.pop()
            raise
        finally:
            executor.close()
            self.last_run_retries = retries
