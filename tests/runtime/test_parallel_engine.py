"""Tests for the multi-worker parallel DAG execution engine."""

import json
import threading
import time

import pytest

from repro.runtime.dag import build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.parallel import (
    ParallelExecutionEngine,
    engine_for,
    resolve_workers,
)
from repro.runtime.parallel_mp import MultiprocessExecutionEngine
from repro.runtime.scheduler import (
    FIFOScheduler,
    LIFOScheduler,
    PriorityScheduler,
)
from repro.runtime.task import make_task
from repro.runtime.tracing import Trace


def chain(n):
    """T(0) -> T(1) -> ... -> T(n-1), each rewriting tile (i, 0)."""
    return [make_task("T", (i,), rw=[(0, 0)]) for i in range(n)]


def wide(n, klass="T"):
    """n independent tasks, each owning its own tile."""
    return [make_task(klass, (i,), rw=[(i, i)]) for i in range(n)]


def make_engine(backend, workers=2):
    """An engine of the named backend (the serial one ignores ``workers``)."""
    if backend == "serial":
        return ExecutionEngine()
    if backend == "mp":
        return MultiprocessExecutionEngine(workers=workers)
    return ParallelExecutionEngine(workers=workers)


def record_kernel(log, lock, delay=0.0):
    def kernel(task, data):
        if delay:
            time.sleep(delay)
        with lock:
            log.append(task.params)

    return kernel


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_nonpositive_means_cpu_count(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_engine_for_picks_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert type(engine_for(1)) is ExecutionEngine
        assert type(engine_for(None)) is ExecutionEngine

    def test_engine_for_picks_parallel(self, monkeypatch):
        # the threads default, independent of any $REPRO_ENGINE sweep
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        e = engine_for(4)
        assert isinstance(e, ParallelExecutionEngine)
        assert e.workers == 4

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutionEngine(workers=0)


class TestParallelExecution:
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_all_tasks_execute_once(self, workers):
        graph = build_graph(wide(20))
        log, lock = [], threading.Lock()
        engine = ParallelExecutionEngine(workers=workers)
        engine.register("T", record_kernel(log, lock))
        trace = engine.run(graph, None)
        assert sorted(log) == [(i,) for i in range(20)]
        assert len(trace) == 20

    @pytest.mark.timeout(60)
    def test_dependency_order_respected(self):
        graph = build_graph(chain(12))
        log, lock = [], threading.Lock()
        engine = ParallelExecutionEngine(workers=4)
        engine.register("T", record_kernel(log, lock))
        engine.run(graph, None)
        assert log == [(i,) for i in range(12)]

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "sched", [FIFOScheduler, LIFOScheduler, PriorityScheduler]
    )
    def test_all_schedulers_complete(self, sched):
        tasks = chain(5) + [
            make_task("T", (100 + i,), rw=[(i + 1, i + 1)]) for i in range(5)
        ]
        graph = build_graph(tasks)
        log, lock = [], threading.Lock()
        engine = ParallelExecutionEngine(sched(), workers=3)
        engine.register("T", record_kernel(log, lock))
        engine.run(graph, None)
        assert len(log) == len(tasks)

    @pytest.mark.timeout(60)
    def test_workers_capped_by_task_count(self):
        graph = build_graph(wide(2))
        engine = ParallelExecutionEngine(workers=16)
        log, lock = [], threading.Lock()
        engine.register("T", record_kernel(log, lock))
        trace = engine.run(graph, None)
        assert set(e.worker for e in trace.events) <= {0, 1}

    @pytest.mark.timeout(60)
    def test_supplied_trace_is_extended(self):
        graph = build_graph(wide(3))
        engine = ParallelExecutionEngine(workers=2)
        log, lock = [], threading.Lock()
        engine.register("T", record_kernel(log, lock))
        trace = Trace()
        out = engine.run(graph, None, trace=trace)
        assert out is trace and len(trace) == 3

    @pytest.mark.timeout(60)
    def test_stress_more_lanes_than_cores(self):
        """Eight lanes and a tiny switch interval: every task retires
        exactly once and every tile sees its writers in serial order."""
        import sys

        from repro.core.trimming import cholesky_tasks

        graph = build_graph(cholesky_tasks(8))

        def writes_per_tile(engine):
            log, lock = {}, threading.Lock()

            def kernel(task, data):
                with lock:
                    for key in task.writes:
                        log.setdefault(key, []).append((task.klass, task.params))

            for klass in ("POTRF", "TRSM", "SYRK", "GEMM"):
                engine.register(klass, kernel)
            return log, len(engine.run(graph, None))

        ref, n_ref = writes_per_tile(ExecutionEngine())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, n_got = writes_per_tile(ParallelExecutionEngine(workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert n_got == n_ref == len(graph)
        assert got == ref

    def test_empty_graph(self):
        engine = ParallelExecutionEngine(workers=2)
        assert len(engine.run(build_graph([]), None)) == 0

    def test_unregistered_class_raises_before_spawn(self):
        graph = build_graph(wide(2))
        engine = ParallelExecutionEngine(workers=2)
        with pytest.raises(KeyError, match="no kernel registered"):
            engine.run(graph, None)


class TestFailFast:
    """Fail-fast lives in the shared scheduling core; the subclasses
    below run the same tests on the serial and process-pool executors."""

    backend = "threads"

    @pytest.mark.timeout(60)
    def test_kernel_exception_propagates(self):
        graph = build_graph(wide(4))
        engine = make_engine(self.backend, workers=2)

        def poisoned(task, data):
            raise RuntimeError(f"kernel died on {task}")

        engine.register("T", poisoned)
        with pytest.raises(RuntimeError, match="kernel died"):
            engine.run(graph, None)

    @pytest.mark.timeout(60)
    def test_failure_cancels_outstanding_work(self):
        """Tasks behind the failure never start: the poisoned head of a
        chain must keep every successor from executing."""
        tasks = chain(10)
        graph = build_graph(tasks)
        log, lock = [], threading.Lock()
        engine = make_engine(self.backend, workers=4)

        def kernel(task, data):
            if task.params == (0,):
                raise ValueError("poisoned head")
            with lock:
                log.append(task.params)

        engine.register("T", kernel)
        trace = Trace()
        with pytest.raises(ValueError, match="poisoned head"):
            engine.run(graph, None, trace=trace)
        assert log == []
        assert len(trace) == 0

    @pytest.mark.timeout(60)
    def test_first_failure_wins_with_wide_graph(self):
        graph = build_graph(wide(30))
        engine = make_engine(self.backend, workers=4)
        executed, lock = [], threading.Lock()

        def kernel(task, data):
            if task.params[0] == 3:
                raise RuntimeError("boom")
            with lock:
                executed.append(task.params)

        engine.register("T", kernel)
        trace = Trace()
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(graph, None, trace=trace)
        # fail-fast: the run must abandon the tail of the ready pool
        assert len(executed) < 30
        assert len(trace) < 30

    @pytest.mark.timeout(60)
    def test_engine_reusable_after_failure(self):
        engine = make_engine(self.backend, workers=2)
        # read at dispatch, so forked workers see the value of their run
        poison = {"on": True}

        def kernel(task, data):
            if poison["on"]:
                raise RuntimeError("first run dies")

        engine.register("T", kernel)
        with pytest.raises(RuntimeError):
            engine.run(build_graph(chain(3)), None)
        poison["on"] = False
        # scheduler was drained; a fresh run completes normally
        trace = engine.run(build_graph(chain(3)), None)
        assert len(trace) == 3


class TestFailFastSerial(TestFailFast):
    backend = "serial"


class TestFailFastMp(TestFailFast):
    backend = "mp"


@pytest.mark.timeout(60)
@pytest.mark.parametrize("backend", ["serial", "threads", "mp"])
def test_failed_wide_run_leaves_no_stale_tasks(backend):
    """A run that fails with ready tasks still queued must drain them:
    the next run on the same engine executes exactly its own graph, in
    dependency order, once."""
    engine = make_engine(backend, workers=2)

    def poisoned(task, data):
        raise RuntimeError("wide run dies")

    engine.register("W", poisoned)
    engine.register("T", lambda t, d: None)
    with pytest.raises(RuntimeError, match="wide run dies"):
        engine.run(build_graph(wide(5, klass="W")), None)
    trace = engine.run(build_graph(chain(6)), None)
    assert [e.params for e in trace.events] == [(i,) for i in range(6)]


class TestStarvationDetection:
    """Starvation is diagnosed by the shared scheduling core; the
    subclasses below run the same tests on the serial and process-pool
    executors."""

    backend = "threads"

    @pytest.mark.timeout(60)
    def test_cyclic_graph_reports_stuck_tasks(self):
        """A hand-built cycle must abort with a diagnostic, not hang."""
        from repro.runtime.dag import TaskGraph

        tasks = [make_task("T", (i,), rw=[(i, i)]) for i in range(3)]
        # 0 -> 1 -> 2 -> 1 : task 1 and 2 never reach indegree 0... a
        # real cycle: 1 -> 2 and 2 -> 1
        graph = TaskGraph(tasks, {0: {1}, 1: {2}, 2: {1}})
        engine = make_engine(self.backend, workers=2)
        engine.register("T", lambda t, d: None)
        with pytest.raises(ValueError, match="stalled") as err:
            engine.run(graph, None)
        assert "T(1" in str(err.value) or "T(2" in str(err.value)

    @pytest.mark.timeout(60)
    def test_stuck_task_list_is_truncated(self):
        from repro.runtime.dag import TaskGraph

        n = 24
        tasks = [make_task("T", (i,), rw=[(i, i)]) for i in range(n)]
        edges = {i: {(i + 1) % (n - 1) + 1} for i in range(1, n)}
        # tie tasks 1..n-1 into cycles; task 0 is free
        graph = TaskGraph(tasks, edges)
        engine = make_engine(self.backend, workers=2)
        engine.register("T", lambda t, d: None)
        with pytest.raises(ValueError, match="more"):
            engine.run(graph, None)


class TestStarvationDetectionSerial(TestStarvationDetection):
    backend = "serial"


class TestStarvationDetectionMp(TestStarvationDetection):
    backend = "mp"


class TestDebugOwnership:
    @pytest.mark.timeout(60)
    def test_clean_graph_passes(self):
        graph = build_graph(chain(4) + wide(4, klass="U"))
        engine = ParallelExecutionEngine(workers=3, debug=True)
        log, lock = [], threading.Lock()
        engine.register("T", record_kernel(log, lock))
        engine.register("U", record_kernel(log, lock))
        engine.run(graph, None)
        assert len(log) == 8

    @pytest.mark.timeout(60)
    def test_under_constrained_graph_is_caught(self):
        """Two tasks writing one tile with no edge between them: the
        ownership check must flag the race that build_graph would have
        prevented."""
        from repro.runtime.dag import TaskGraph

        tasks = [make_task("T", (i,), rw=[(0, 0)]) for i in range(2)]
        graph = TaskGraph(tasks, {})  # no edges: a lying DAG
        engine = ParallelExecutionEngine(workers=2, debug=True)

        # sleep releases the GIL, so the second worker dispatches (and
        # trips the ownership check) while the first still holds the tile
        engine.register("T", lambda t, d: time.sleep(0.2))
        with pytest.raises(ValueError, match="ownership violation"):
            engine.run(graph, None)

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("backend", ["threads", "mp"])
    def test_engine_for_arms_every_multi_lane_engine(self, backend, monkeypatch):
        """$REPRO_ENGINE_DEBUG reaches the process-pool engine too: the
        ownership check lives in the shared scheduling core."""
        from repro.runtime.dag import TaskGraph

        monkeypatch.setenv("REPRO_ENGINE_DEBUG", "1")
        engine = engine_for(2, engine=backend)
        assert engine.debug
        tasks = [make_task("T", (i,), rw=[(0, 0)]) for i in range(2)]
        engine.register("T", lambda t, d: time.sleep(0.2))
        with pytest.raises(ValueError, match="ownership violation"):
            engine.run(TaskGraph(tasks, {}), None)

    @pytest.mark.timeout(60)
    def test_build_graph_output_satisfies_invariant(self):
        """The real Cholesky DAG must sail through the ownership check
        at any worker count — this is the safety property the parallel
        engine relies on."""
        from repro.core.trimming import cholesky_tasks

        graph = build_graph(cholesky_tasks(6))
        engine = ParallelExecutionEngine(workers=4, debug=True)
        for klass in ("POTRF", "TRSM", "SYRK", "GEMM"):
            engine.register(
                klass, lambda t, d: time.sleep(0.001)
            )
        trace = engine.run(graph, None)
        assert len(trace) == len(graph)


class TestWorkerLanes:
    @pytest.mark.timeout(60)
    def test_parallel_run_fills_multiple_lanes(self):
        """With GIL-releasing kernels and a wide graph, every worker
        lane must appear in the trace and in the Chrome export."""
        workers = 3
        graph = build_graph(wide(12))
        engine = ParallelExecutionEngine(workers=workers)
        engine.register("T", lambda t, d: time.sleep(0.05))
        trace = engine.run(graph, None)
        lanes = trace.worker_lanes()
        assert set(lanes) == set(range(workers))
        assert sum(lanes.values()) == 12

    @pytest.mark.timeout(60)
    def test_chrome_export_one_lane_per_worker(self):
        workers = 3
        graph = build_graph(wide(12))
        engine = ParallelExecutionEngine(workers=workers)
        engine.register("T", lambda t, d: time.sleep(0.05))
        trace = engine.run(graph, None)
        data = json.loads(
            trace.to_chrome_trace(
                process_name="test", label_worker_lanes=True
            )
        )
        events = data["traceEvents"]
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert tids == set(range(workers))
        lane_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lane_names == {w: f"worker-{w}" for w in range(workers)}

    def test_serial_trace_has_single_lane(self):
        graph = build_graph(wide(4))
        engine = ExecutionEngine()
        engine.register("T", lambda t, d: None)
        trace = engine.run(graph, None)
        assert set(trace.worker_lanes()) == {0}
