"""The benchmark's own tests, at smoke sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import pin_environment  # noqa: E402

pin_environment()
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "3",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


def test_seed_changes_inputs_but_not_metric_names():
    cfg = workloads._cfg("cold_sparse", smoke=True)
    a, b, a2 = (workloads.Inputs(cfg, s).spec() for s in (1, 2, 1))
    assert a.fingerprint == a2.fingerprint
    assert a.fingerprint != b.fingerprint
    names = [set(_run("cold_sparse", seed, 0)["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_untraced_run_installs_no_timers(tmp_path, monkeypatch):
    import tracer
    from repro.core import solver
    from repro.kernels.matgen import RBFMatrixGenerator
    from repro.linalg.tile_matrix import TLRMatrix
    from repro.service.cache import OperatorCache

    def refuse(self):
        raise AssertionError("timers installed in an untraced run")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    before = (
        RBFMatrixGenerator.__dict__["tile"],
        TLRMatrix.__dict__["compress"],
        OperatorCache.__dict__["acquire"],
        solver.solve_cholesky,
    )
    seen = []
    real = OperatorCache.__dict__["acquire"]

    def spy(self, spec):
        seen.append(OperatorCache.__dict__["acquire"] is spy)
        seen.append(RBFMatrixGenerator.__dict__["tile"] is before[0])
        return real(self, spec)

    monkeypatch.setattr(OperatorCache, "acquire", spy)
    metrics, attempted, failures, _ = workloads.run_workload(
        "cold_sparse", 5, 2.0, trace=False, smoke=True, workdir=tmp_path / "w"
    )
    assert not failures and attempted > 0
    assert seen and all(seen)
    assert TLRMatrix.__dict__["compress"] is before[1]
    assert solver.solve_cholesky is before[3]


class _Handle:
    def __init__(self, delay: float) -> None:
        self._done = threading.Event()
        threading.Timer(delay, self._done.set).start()

    def result(self, timeout=None):
        self._done.wait(timeout)
        return 0.0


def test_open_loop_times_requests_from_their_due_time():
    stall = 0.2
    calls = []

    def submit(sample):
        calls.append(sample)
        if len(calls) == 1:
            time.sleep(stall)  # the first send stalls the generator
        return _Handle(0.01)

    jobs = [loadgen.Sample(kind="warm", op=None, rhs=None, due=0.0) for _ in range(5)]
    offsets = [0.0, 0.05, 0.1, 0.15, 0.3]
    completions = loadgen.Completions(waiters=8)
    try:
        grew = loadgen.open_loop(submit, jobs, offsets, completions, max_outstanding=100)
        assert completions.wait_idle(5.0)
    finally:
        completions.close()
    assert not grew and len(jobs) == 5
    t0 = jobs[0].due
    for job, off in zip(jobs, offsets):
        assert job.due == pytest.approx(t0 + off)
        assert job.latency == pytest.approx(job.done - job.due)
    # requests due during the stall carry the wait it imposed on them
    for job in jobs[1:4]:
        assert job.late > 0.03
        assert job.latency >= stall - (job.due - t0)
    assert jobs[4].late < 0.05
