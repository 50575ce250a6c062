"""Spans around the program's public layer functions (traced runs only).

``Tracer.install`` replaces six public functions with timing wrappers
defined here and ``uninstall`` puts the originals back; the untraced run
never constructs a ``Tracer``.  Every span keeps its name, thread,
start, end and self time (its duration minus the spans nested inside it
on the same thread), plus what the wrapped call returned that a layer
metric needs.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from harness import median


@dataclass
class Span:
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    child: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - self.child


def _solve_keys(b) -> tuple:
    """First entries of the right-hand side columns: the benchmark makes
    every right-hand side distinct, so they identify the requests."""
    first = b[0]
    return (float(first),) if b.ndim == 1 else tuple(float(v) for v in first)


class Tracer:
    """Installs and removes the wrappers, and owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.recording = True

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.dur
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(span, args, kwargs, out)
            return out

        return timed

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, after)))
        else:
            setattr(owner, attr, self._wrap(name, raw, after))

    def install(self) -> None:
        from importlib import import_module

        from repro.kernels.matgen import RBFMatrixGenerator
        from repro.linalg.tile_matrix import TLRMatrix
        from repro.service.cache import OperatorCache

        # import_module: ``repro.core`` re-exports functions that shadow
        # the submodules of the same name
        hicma_parsec = import_module("repro.core.hicma_parsec")
        solver = import_module("repro.core.solver")
        tlr_cholesky = import_module("repro.core.tlr_cholesky")

        def after_compress(span, args, kwargs, a):
            off = [t for (m, k), t in a if m != k]
            span.info.update(
                rank_sum=sum(t.rank for t in off),
                null_tiles=sum(1 for t in off if t.is_null),
                bytes=a.memory_bytes(),
            )

        def after_factorize(span, args, kwargs, result):
            span.info.update(
                result=result,
                nt=result.factor.n_tiles,
                workers=kwargs.get("workers"),
            )

        def after_solve(span, args, kwargs, x):
            b = args[1] if len(args) > 1 else kwargs["b"]
            span.info.update(keys=_solve_keys(b), cols=1 if b.ndim == 1 else b.shape[1])

        def after_acquire(span, args, kwargs, out):
            span.info["outcome"] = out[1]

        self._patch(RBFMatrixGenerator, "tile", "matgen")
        self._patch(TLRMatrix, "compress", "compress", after_compress)
        self._patch(tlr_cholesky, "analyze_ranks", "analysis")
        self._patch(hicma_parsec, "hicma_parsec_factorize", "factorize", after_factorize)
        self._patch(solver, "solve_cholesky", "solve", after_solve)
        self._patch(OperatorCache, "acquire", "acquire", after_acquire)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def span_cost(self, calls: int = 4000) -> float:
        """Seconds one wrapper adds per call, measured on a no-op."""

        def noop():
            return None

        wrapped = self._wrap("calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        timed = time.perf_counter() - t0
        with self._lock:
            self.spans = [s for s in self.spans if s.name != "calibrate"]
        return max(timed - bare, 0.0) / calls

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


# ----------------------------------------------------------------------
# per-request attribution
# ----------------------------------------------------------------------


def attribute(tracer: Tracer, samples) -> dict:
    """Split in-process request latencies across layer spans.

    Each solve request is matched to the solve span that carried its
    right-hand side, and to the cache acquire that ran just before that
    solve on the same worker thread.  The request's time then divides
    into: generator lateness (benchmark), queue and batching wait
    (server, from send to acquire start), acquire (cache, which holds
    any build), solve (solver) and the remainder no span covers.
    """
    solves = {}
    acquires = defaultdict(list)
    for s in tracer.spans:
        if s.name == "solve":
            for key in s.info["keys"]:
                solves[key] = s
        elif s.name == "acquire":
            acquires[s.thread].append(s)
    for spans in acquires.values():
        spans.sort(key=lambda s: s.t1)
    ends = {thread: [a.t1 for a in spans] for thread, spans in acquires.items()}
    out = {"cold": [0.0, 0.0], "warm": [0.0, 0.0], "queue_wait": []}
    for smp in samples:
        if smp.error is not None or smp.key is None:
            continue
        solve = solves.get(smp.key)
        if solve is None:
            continue
        # the last acquire this worker finished before the solve began
        i = bisect.bisect_right(ends.get(solve.thread, []), solve.t0)
        if i == 0:
            continue
        acq = acquires[solve.thread][i - 1]
        queue = max(acq.t0 - smp.sent, 0.0)
        covered = max(smp.sent - smp.due, 0.0) + queue + acq.dur + solve.dur
        bucket = out["cold" if smp.kind == "cold" else "warm"]
        bucket[0] += max(smp.latency - covered, 0.0)
        bucket[1] += smp.latency
        if smp.kind != "cold":
            out["queue_wait"].append(queue)
    return {
        "unaccounted_frac.cold": _ratio(*out["cold"]),
        "unaccounted_frac.warm": _ratio(*out["warm"]),
        "unaccounted_frac": _ratio(
            out["cold"][0] + out["warm"][0], out["cold"][1] + out["warm"][1]
        ),
        "server.queue_wait_p50_s": median(out["queue_wait"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------

KERNEL_CLASSES = ("POTRF", "TRSM", "SYRK", "GEMM")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-build and per-solve layer figures from the recorded spans."""
    from repro.core.trimming import cholesky_tasks
    from repro.machine import SHAHEEN_II, CostModel

    m: dict[str, float] = {}
    facts = tracer.by_name("factorize")
    builds = max(len(facts), 1)
    matgen = tracer.by_name("matgen")
    comps = tracer.by_name("compress")
    m["matgen.s"] = sum(s.self_time for s in matgen) / builds
    m["matgen.tiles"] = len(matgen) / builds
    m["compress.s"] = sum(s.self_time for s in comps) / builds
    for key in ("rank_sum", "null_tiles", "bytes"):
        m[f"compress.{key}"] = sum(s.info[key] for s in comps) / max(len(comps), 1)
    m["analysis.s"] = sum(s.dur for s in tracer.by_name("analysis")) / builds

    full_tasks: dict[int, int] = {}
    tasks = trimmed = execute = busy = lanes_time = retries = respawns = 0.0
    ktime: dict[str, float] = defaultdict(float)
    kcount: dict[str, int] = defaultdict(int)
    kflops: dict[str, float] = defaultdict(float)
    kpred: dict[str, float] = defaultdict(float)
    model = CostModel(SHAHEEN_II)
    for s in facts:
        res = s.info["result"]
        nt = s.info["nt"]
        if nt not in full_tasks:
            full_tasks[nt] = len(cholesky_tasks(nt))
        tasks += len(res.graph)
        trimmed += 1.0 - len(res.graph) / full_tasks[nt]
        execute += res.execute_seconds
        busy += res.trace.busy_time()
        workers = s.info["workers"] or 1
        lanes_time += res.execute_seconds * workers
        retries += res.retries
        respawns += res.workers_respawned
        for e in res.trace.events:
            ktime[e.klass] += e.duration
            kcount[e.klass] += 1
            kflops[e.klass] += e.flops
            kpred[e.klass] += model.kernel_seconds(e.flops)
    m["dag.tasks"] = tasks / builds
    m["dag.trimmed_frac"] = trimmed / builds
    m["runtime.execute_s"] = execute / builds
    m["runtime.busy_s"] = busy / builds
    m["runtime.idle_frac"] = 1.0 - busy / lanes_time if lanes_time else 0.0
    m["runtime.retries"] = retries
    m["runtime.respawns"] = respawns
    for klass in KERNEL_CLASSES:
        low = klass.lower()
        m[f"kernel.{low}.s"] = ktime[klass] / builds
        m[f"kernel.{low}.n"] = kcount[klass] / builds
        m[f"kernel.{low}.per_call_s"] = (
            ktime[klass] / kcount[klass] if kcount[klass] else 0.0
        )
        m[f"costmodel.err_frac.{low}"] = (
            kpred[klass] / ktime[klass] - 1.0 if ktime[klass] else 0.0
        )
    m["kernel.gemm.gflops"] = (
        kflops["GEMM"] / ktime["GEMM"] / 1e9 if ktime["GEMM"] else 0.0
    )

    solves = tracer.by_name("solve")
    m["solver.s"] = sum(s.dur for s in solves) / max(len(solves), 1)
    m["solver.cols"] = sum(s.info["cols"] for s in solves) / max(len(solves), 1)
    acquires = tracer.by_name("acquire")
    m["cache.acquire_s"] = sum(s.self_time for s in acquires) / max(len(acquires), 1)
    built = [s.dur for s in acquires if s.info.get("outcome") == "build"]
    m["build.s"] = sum(built) / len(built) if built else 0.0
    m["build.compress_frac"] = (
        (m["matgen.s"] + m["compress.s"]) / m["build.s"] if m["build.s"] else 0.0
    )
    return m
