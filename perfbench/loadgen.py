"""Closed- and open-loop request generators, timed from outside the program.

A request's latency runs from when it was *due* to when its handle
settled.  In a closed loop the next request is due when the previous
one completes, so due equals sent.  In an open loop requests are due on
a seeded Poisson schedule whatever the service does, so a stall is
charged to every request it delays; how late the generator itself sent
each request is kept as ``late``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

#: How long a client waits for a single request before calling it lost.
RESULT_TIMEOUT = 60.0


@dataclass
class Sample:
    """One request as the client saw it."""

    kind: str  # "cold" | "warm" | "logdet"
    op: object  # the OperatorSpec it targeted
    rhs: np.ndarray | None = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    value: object = None
    error: BaseException | None = None
    #: keep the right-hand side and answer for the correctness check;
    #: otherwise both are dropped on completion, so the benchmark's own
    #: memory does not grow with the rate the service sustains
    keep: bool = True
    #: the right-hand side's first entry, which identifies the request's
    #: column inside a batched solve (every right-hand side is distinct)
    key: float | None = None

    def set_rhs(self, rhs: np.ndarray) -> None:
        self.rhs = rhs
        self.key = float(rhs[0])

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class RungResult:
    """One fixed-rate stretch of an open loop."""

    rate: float
    samples: list[Sample] = field(default_factory=list)
    #: the generator stopped sending because the backlog kept growing
    backlog_grew: bool = False


class Completions:
    """Waits on every submitted handle and stamps its completion time.

    A small pool of waiter threads blocks on handles; each stamps the
    clock the moment its handle settles, so completion order does not
    matter while fewer than ``waiters`` requests are outstanding.
    """

    def __init__(self, waiters: int = 32) -> None:
        self._pool = ThreadPoolExecutor(waiters, thread_name_prefix="pb-wait")
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self.outstanding = 0

    def track(self, sample: Sample, handle) -> None:
        with self._lock:
            self.outstanding += 1
        self._pool.submit(self._wait, sample, handle)

    def _wait(self, sample: Sample, handle) -> None:
        try:
            sample.value = handle.result(timeout=RESULT_TIMEOUT)
        except BaseException as exc:  # recorded as a failed request
            sample.error = exc
        sample.done = time.perf_counter()
        if not sample.keep:
            sample.rhs = sample.value = None
        with self._lock:
            self.outstanding -= 1
            if self.outstanding == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float = RESULT_TIMEOUT) -> bool:
        with self._lock:
            return self._idle.wait_for(lambda: self.outstanding == 0, timeout)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def submit_sample(submit, sample: Sample, completions: Completions) -> None:
    """Send ``sample`` through ``submit`` and hand it to the waiters;
    a synchronous refusal is recorded as the sample's error."""
    sample.sent = time.perf_counter()
    try:
        handle = submit(sample)
    except Exception as exc:  # refused at the edge: counts as failed
        sample.error = exc
        sample.done = sample.sent
        return
    completions.track(sample, handle)


def closed_request(submit, sample: Sample) -> Sample:
    """One closed-loop request: due when sent, waited for in-line."""
    sample.due = sample.sent = time.perf_counter()
    try:
        sample.value = submit(sample).result(timeout=RESULT_TIMEOUT)
    except Exception as exc:
        sample.error = exc
    sample.done = time.perf_counter()
    return sample


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float):
    """Arrival offsets (s) of a Poisson process of ``rate`` over ``seconds``."""
    n = max(1, int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return offsets[offsets < seconds]


def open_loop(
    submit,
    jobs: list[Sample],
    offsets,
    completions: Completions,
    max_outstanding: int,
    prepare=None,
) -> bool:
    """Send ``jobs[i]`` at ``offsets[i]`` from now; return True when the
    backlog outgrew ``max_outstanding`` and sending stopped early.

    ``prepare(job)`` runs before the wait for the job's due time, so
    inputs are made in the generator's idle time and only the requests
    sent are ever made.  Unsent jobs are dropped from ``jobs`` so callers
    see only requests that were attempted.
    """
    t0 = time.perf_counter() + 0.002
    for i, (job, off) in enumerate(zip(jobs, offsets)):
        if prepare is not None:
            prepare(job)
        job.due = t0 + float(off)
        pause = job.due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        if completions.outstanding > max_outstanding:
            del jobs[i:]
            return True
        submit_sample(submit, job, completions)
    del jobs[len(offsets):]
    return False
