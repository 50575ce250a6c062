"""Process-pool engine vs threads vs serial: beating the GIL.

Persisted as ``BENCH_parallel_mp.json`` in the repo root.  Three
measurements on the n=1600 workload of ``test_parallel_engine``:

1. **Replay** — the trimmed Cholesky DAG re-executed with
   flop-proportional sleeping kernels through the *mp* engine.  Sleeps
   overlap perfectly regardless of core count, so this isolates the
   coordinator's dispatch/retirement overhead: the pipe round-trips
   and arena-less bookkeeping the process-pool executor adds over the
   threaded executor's futures.
2. **Real numerics (threads)** — the actual TLR Cholesky through the
   threaded engine, the GIL-bound baseline the mp engine exists to
   beat.
3. **Real numerics (mp)** — the same factorization with forked worker
   processes and the shared-memory tile arena.  The headline claim:
   real-numerics speedup reaches >= 80% of the replay (engine-ceiling)
   speedup at 4 and 8 workers, because kernels no longer share a GIL.

Every real-numerics run is verified **bitwise identical** to the
serial factor (same bytes, same per-tile ranks) — that assertion holds
on any machine.  The speedup assertions are gated on ``os.cpu_count()``:
on a runner with fewer cores than workers the parallel runs physically
cannot win, so the numbers are recorded (with ``cpu_count`` alongside,
so the trajectory is interpretable) but not asserted.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.tlr_cholesky import tlr_cholesky
from repro.runtime.engine import ExecutionEngine
from repro.runtime.parallel_mp import MultiprocessExecutionEngine

from figutils import write_table
from test_parallel_engine import (
    ACCURACY,
    FLOOR_SECONDS,
    TARGET_SERIAL_SECONDS,
    WORKER_COUNTS,
    build_workload,
    cholesky_graph,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel_mp.json"


def replay_mp(graph, workers):
    """Execute the DAG with flop-proportional sleeping kernels."""
    total_flops = sum(t.flops for t in graph.tasks) or 1.0
    scale = TARGET_SERIAL_SECONDS / total_flops

    def kernel(task, data):
        time.sleep(max(task.flops * scale, FLOOR_SECONDS))

    engine = (
        ExecutionEngine()
        if workers == 1
        else MultiprocessExecutionEngine(workers=workers)
    )
    for klass in {t.klass for t in graph.tasks}:
        engine.register(klass, kernel)
    t0 = time.perf_counter()
    trace = engine.run(graph, None)
    return time.perf_counter() - t0, trace


def run():
    a = build_workload()
    result = {
        "workload": {
            "n": a.n,
            "tile_size": a.tile_size,
            "n_tiles": a.n_tiles,
            "accuracy": ACCURACY,
            "density": a.density(),
        },
        "cpu_count": os.cpu_count(),
    }

    # ---- engine overlap ceiling on the replayed (trimmed) DAG
    graph = cholesky_graph(a, trim=True)
    serial_s, _ = replay_mp(graph, 1)
    replay = {
        "tasks": len(graph),
        "critical_path_tasks": len(graph.critical_path()[1]),
        "serial_seconds": serial_s,
        "workers": {},
    }
    for w in WORKER_COUNTS:
        par_s, trace = replay_mp(graph, w)
        replay["workers"][str(w)] = {
            "elapsed_seconds": par_s,
            "speedup": serial_s / par_s,
            "parallel_efficiency": serial_s / par_s / w,
            "lanes_used": len(trace.worker_lanes()),
        }
    result["replay"] = replay

    # ---- real numerics: serial reference, then threads vs processes
    serial = tlr_cholesky(a.copy(), trim=True)
    l_ser = serial.factor.to_dense(symmetrize=False)
    ranks_ser = {f"{m},{k}": t.rank for (m, k), t in serial.factor}
    real = {
        "serial_seconds": serial.execute_seconds,
        "tasks": len(serial.graph),
        "workers": {},
    }
    for w in WORKER_COUNTS:
        per_engine = {}
        for engine in ("threads", "mp"):
            r = tlr_cholesky(a.copy(), trim=True, workers=w, engine=engine)
            l_par = r.factor.to_dense(symmetrize=False)
            ranks_par = {f"{m},{k}": t.rank for (m, k), t in r.factor}
            per_engine[engine] = {
                "elapsed_seconds": r.execute_seconds,
                "speedup": serial.execute_seconds / r.execute_seconds,
                "max_abs_factor_diff": float(np.abs(l_par - l_ser).max()),
                "factor_bitwise_equal": bool(np.array_equal(l_par, l_ser)),
                "ranks_equal": ranks_par == ranks_ser,
            }
        mp_speedup = per_engine["mp"]["speedup"]
        replay_speedup = replay["workers"][str(w)]["speedup"]
        per_engine["mp_fraction_of_replay"] = mp_speedup / replay_speedup
        real["workers"][str(w)] = per_engine
    result["real"] = real
    return result


def test_mp_engine_speedup(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)

    BENCH_JSON.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    replay = result["replay"]
    real = result["real"]
    rows = [["replay serial", round(replay["serial_seconds"], 3), 1.0, ""]]
    for w in WORKER_COUNTS:
        s = replay["workers"][str(w)]
        rows.append(
            [
                f"replay {w} workers (mp)",
                round(s["elapsed_seconds"], 3),
                round(s["speedup"], 2),
                round(s["parallel_efficiency"], 2),
            ]
        )
    rows.append(["real serial", round(real["serial_seconds"], 3), 1.0, ""])
    for w in WORKER_COUNTS:
        for engine in ("threads", "mp"):
            s = real["workers"][str(w)][engine]
            rows.append(
                [
                    f"real {w} workers ({engine})",
                    round(s["elapsed_seconds"], 3),
                    round(s["speedup"], 2),
                    round(s["speedup"] / w, 2),
                ]
            )
    write_table(
        "parallel_mp_engine",
        f"Process-pool engine, Cholesky n={result['workload']['n']} "
        f"NT={result['workload']['n_tiles']} ({replay['tasks']} tasks, "
        f"{result['cpu_count']} cores)",
        ["configuration", "elapsed [s]", "speedup", "efficiency"],
        rows,
    )

    # the process pool extracts the DAG's concurrency on replay: the
    # sleeps overlap regardless of core count, so this holds anywhere
    assert replay["workers"]["4"]["speedup"] >= 2.0, replay
    assert replay["workers"]["4"]["lanes_used"] == 4, replay

    cores = result["cpu_count"] or 1
    for w in WORKER_COUNTS:
        stats = real["workers"][str(w)]
        # the non-negotiable invariant: the mp factor IS the serial
        # factor — same bytes, same ranks, at every worker count
        assert stats["mp"]["factor_bitwise_equal"], (w, stats["mp"])
        assert stats["mp"]["ranks_equal"], (w, stats["mp"])
        assert stats["mp"]["max_abs_factor_diff"] == 0.0, (w, stats["mp"])
        # the GIL-beating claim needs real cores to demonstrate
        if cores >= w:
            assert stats["mp_fraction_of_replay"] >= 0.8, (w, stats)
