"""The workloads: inputs, set-up, measured phases and checks.

Every workload reports the same end-to-end metrics:

* ``setup_s`` - median of several set-ups of the service the
  workload measures (construction plus the warm-up work users would pay
  before the first timed request);
* ``cold_p50_s`` / ``cold_p90_s`` - requests whose operator is not yet
  built (build plus solve);
* ``peak_rss_mb`` - the largest peak resident set in the process tree;

and three warm figures that ``BENCHMARK.json`` does not gate (run.py
prints them under ``other_metrics``):

* ``warm_p50_s`` / ``warm_p90_s`` - open-loop single-RHS solves on built
  operators at the workload's nominal rate, timed from their due time;
* ``warm_capacity_rps`` - the highest rate on a ladder above nominal
  whose p99 stays under the workload's limit with no backlog growth.

The measured part of a run is ``NOMINAL_WINDOWS`` rounds, each a slice
of closed cold loop and one nominal warm window, then one climb of the
capacity ladder.  The program receives only generated points, specs and
right-hand sides; all timing happens here, around public API calls.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.service import percentile

from harness import LeakCheck, backward_error, dense_operator, median, peak_rss_mb
from loadgen import (
    Completions,
    RungResult,
    Sample,
    closed_request,
    open_loop,
    poisson_offsets,
)

#: the cold workloads' warm traffic targets this many of the operators
#: they built last (all still resident under the cache budget)
RESIDENT_WARM_OPS = 8
#: ladder rates as multiples of nominal, climbed until one fails
LADDER = (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0)
#: share of ``--seconds`` given to the capacity ladder
LADDER_SHARE = 0.15
FLEET_LAYERS = (
    "fleet.rtt_p50_s",
    "router.max_shard_share",
    "fleet.replays",
    "fleet.prewarms",
    "health.respawns",
)
#: windows of the nominal stretch; the warm percentiles are the median
#: of the per-window percentiles, so a burst of noise from other tenants
#: of the machine (lasting seconds) spoils one window, not the metric
NOMINAL_WINDOWS = 5
#: an answer's normwise backward error may be at most this multiple of
#: the accuracy its operator was compressed to
RESIDUAL_FACTOR = 10.0


@dataclass
class Config:
    """Sizes, rates and limits of one workload (full or smoke)."""

    name: str
    viruses: int = 4
    points_per_virus: int = 400
    tile_size: int = 200
    accuracy: float = 1.0e-6
    shape_scale: float = 1.0
    #: share of ``--seconds`` spent in the closed cold loop
    cold_share: float = 0.0
    #: operators built during set-up and targeted by warm traffic
    warm_ops: int = 0
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats: int = 3
    service: dict = field(default_factory=dict)
    fleet: dict | None = None
    byte_budget: int | None = None
    #: a third of the workload's measured ``warm_capacity_rps``, rounded
    #: down to a multiple of 10 (README.md gives the measurements, and
    #: why the fleet runs below that)
    nominal_rps: float = 100.0
    rung_s: float = 0.8
    p99_limit_s: float = 0.1
    max_outstanding: int = 64
    #: Zipf exponent of operator popularity in warm traffic
    skew: float = 0.8
    #: warm traffic mix: shares of new-geometry builds and logdets
    cold_frac: float = 0.0
    logdet_frac: float = 0.0
    #: answers checked against the compressed and the dense operator
    cold_checks: int = 4
    warm_checks: int = 40


def _cfg(name: str, smoke: bool) -> Config:
    base = dict(
        cold_sparse=Config(
            name="cold_sparse",
            cold_share=0.3,
            setup_repeats=5,
            skew=0.0,
            service=dict(workers=1),
            byte_budget=96 << 20,
            nominal_rps=180.0,
        ),
        cold_dense=Config(
            name="cold_dense",
            viruses=3,
            tile_size=100,
            accuracy=1.0e-8,
            shape_scale=4.0,
            cold_share=0.3,
            setup_repeats=5,
            skew=0.0,
            service=dict(workers=1, factor_engine="mp", factor_workers=2),
            byte_budget=96 << 20,
            nominal_rps=100.0,
        ),
        fleet_mixed=Config(
            name="fleet_mixed",
            warm_ops=8,
            fleet=dict(shards=2, workers_per_shard=1, byte_budget=96 << 20),
            cold_share=0.25,
            nominal_rps=80.0,
            p99_limit_s=1.0,
            max_outstanding=200,
            cold_frac=0.005,
            logdet_frac=0.05,
        ),
    )[name]
    if smoke:
        base.viruses, base.points_per_virus, base.tile_size = 2, 60, 40
        base.warm_ops = min(base.warm_ops, 3)
        base.byte_budget = None if base.byte_budget is None else 4 << 20
        base.nominal_rps = min(base.nominal_rps, 60.0)
        base.rung_s = 0.4
        base.cold_checks, base.warm_checks = 2, 4
    return base


WORKLOADS = ("cold_sparse", "cold_dense", "fleet_mixed")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


class Inputs:
    """Seeded specs and right-hand sides; nothing here is timed."""

    def __init__(self, cfg: Config, seed: int) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        # right-hand sides draw from their own stream, so how many a rung
        # sent before its backlog cap does not shift the schedule draws
        self._rhs_rng = np.random.default_rng([seed, 1])
        self._geometry = np.random.SeedSequence(seed).generate_state(1)[0]
        self._count = 0

    def spec(self):
        """A fresh operator: new geometry from the workload seed."""
        from repro import OperatorSpec
        from repro.service.bench import default_benchmark_spec

        cfg = self.cfg
        self._count += 1
        base = default_benchmark_spec(
            viruses=cfg.viruses,
            points_per_virus=cfg.points_per_virus,
            tile_size=cfg.tile_size,
            accuracy=cfg.accuracy,
            seed=int(self._geometry) + self._count,
        )
        return OperatorSpec(
            points=base.points,
            shape_parameter=base.shape_parameter * cfg.shape_scale,
            tile_size=cfg.tile_size,
            accuracy=cfg.accuracy,
            nugget=base.nugget,
            label=f"{cfg.name}-{self._count}",
        )

    def sample(self, kind: str, op) -> Sample:
        return self.fill(Sample(kind, op))

    def fill(self, sample: Sample) -> Sample:
        """Give a solve request its right-hand side (logdets take none)."""
        if sample.kind != "logdet":
            sample.set_rhs(self._rhs_rng.standard_normal(sample.op.n))
        return sample

    def popularity(self, k: int) -> np.ndarray:
        """Zipf weights over ``k`` operators (uniform at skew 0)."""
        w = 1.0 / np.arange(1, k + 1) ** self.cfg.skew
        return w / w.sum()


def _counter_layers(c: dict, prefix: str = "") -> dict:
    """Server and cache layer figures from ``ServiceMetrics`` counters."""

    def get(name: str) -> int:
        return c.get(prefix + name, 0)

    hits = get("cache_hits") + get("cache_disk_hits")
    lookups = hits + get("cache_misses")
    return {
        "server.rejected": get("rejected_backlog")
        + get("shed_admission")
        + get("rejected_draining"),
        "server.expired": get("expired"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.builds": get("cache_builds"),
        "cache.disk_loads": get("cache_disk_hits"),
    }


def _submitter(target):
    def submit(s: Sample):
        if s.kind == "logdet":
            return target.submit_logdet(s.op)
        return target.submit_solve(s.op, s.rhs)

    return submit


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


class Run:
    """One workload run: set-up, measured phases, checks and metrics."""

    def __init__(self, cfg: Config, seed: int, seconds: float, tracer, workdir: Path):
        self.cfg = cfg
        self.inputs = Inputs(cfg, seed)
        self.seconds = float(seconds)
        self.tracer = tracer
        self.workdir = workdir
        self.setup_times: list[float] = []
        self.cold: list[Sample] = []
        self.built: list = []
        self.rungs: list[RungResult] = []
        self.extra: list[Sample] = []  # logdet and ladder-only traffic
        self.late: list[float] = []
        self.layers: dict[str, float] = {}
        self.failures: list[str] = []
        self.measured_wall = 0.0
        self.measured_t0 = 0.0
        self.capacity = 0.0
        self.peak_rss_mb = 0.0
        self.windows: list[RungResult] = []
        self.residuals: list[float] = []
        self.dense_residuals: list[float] = []

    # -------------------------------------------------------------- set-up

    def _service(self):
        from repro import OperatorCache, SolveService

        cache = OperatorCache(byte_budget=self.cfg.byte_budget)
        return SolveService(cache=cache, **self.cfg.service)

    def _fleet(self, index: int):
        from repro.service import FleetService

        cache_dir = self.workdir / f"fleet-cache-{index}"
        return FleetService(cache_dir=cache_dir, **self.cfg.fleet)

    def setup(self):
        """Build the service ``setup_repeats`` times; keep the last one.

        In-process set-up warms the service with one closed-loop cold
        request, which is also one of the workload's cold samples; each
        repeat builds a new operator, so the median is not one
        geometry's build time.  Fleet set-up starts the shards and
        prewarms the same 8 operators one after another, each on its
        primary (which builds it and writes it to the shared disk tier)
        and then on its replica (which loads it from there).  One at a
        time, set-up costs the sum of the builds and loads; prewarmed
        together it would cost the builds of whichever shard the seed's
        fingerprints crowd onto.
        """
        cfg = self.cfg
        self.warm_specs = [self.inputs.spec() for _ in range(cfg.warm_ops)]
        target = None
        for i in range(cfg.setup_repeats):
            if target is not None:
                target.close()
            warmups = self.warm_specs or [self.inputs.spec()]
            self.built = list(warmups)
            t0 = time.perf_counter()
            if cfg.fleet is not None:
                target = self._fleet(i)
                for op in warmups:
                    # the primary first, so the replica finds it on disk
                    for replicas in (False, True):
                        for h in target.prewarm(op, replicas):
                            h.result(timeout=120.0)
            else:
                target = self._service()
                submit = _submitter(target)
                for op in warmups:
                    self.cold.append(closed_request(submit, self.inputs.sample("cold", op)))
            self.setup_times.append(time.perf_counter() - t0)
        return target

    # ------------------------------------------------------------ phases

    def cold_loop(self, target, seconds: float) -> None:
        """Closed loop, one client: each request needs a fresh build."""
        submit = _submitter(target)
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            op = self.inputs.spec()
            self.cold.append(closed_request(submit, self.inputs.sample("cold", op)))
            self.built = (self.built + [op])[-RESIDENT_WARM_OPS:]

    def _warm_jobs(self, rate: float, seconds: float):
        offsets = poisson_offsets(self.inputs.rng, rate, seconds)
        pop = self.inputs.popularity(len(self.warm_specs))
        picks = self.inputs.rng.choice(len(self.warm_specs), size=len(offsets), p=pop)
        # the mix is a fixed pattern, not a draw: every run of a rung sends
        # the same share of builds, which set the fleet's warm tail
        cold_every = round(1 / self.cfg.cold_frac) if self.cfg.cold_frac else 0
        logdet_every = round(1 / self.cfg.logdet_frac) if self.cfg.logdet_frac else 0
        jobs = []
        for i, pick in enumerate(picks):
            if cold_every and i % cold_every == cold_every // 2:
                jobs.append(Sample("cold", self.inputs.spec()))
            elif logdet_every and i % logdet_every == logdet_every // 2:
                jobs.append(Sample("logdet", self.warm_specs[pick]))
            else:
                jobs.append(Sample("warm", self.warm_specs[pick]))
        return jobs, offsets

    def measure(self, target) -> None:
        """The measured phases: ``NOMINAL_WINDOWS`` rounds, then the ladder.

        Each round runs a slice of the closed cold loop and one window of
        open-loop warm traffic at the nominal rate.  Spreading both over
        the run lets a burst of machine noise lasting seconds spoil one
        round rather than one metric.  The ladder then climbs ``LADDER``
        rates until one fails or its share of the run is spent.
        """
        cfg = self.cfg
        round_s = self.seconds * (1.0 - LADDER_SHARE) / NOMINAL_WINDOWS
        cold_slice = self.seconds * cfg.cold_share / NOMINAL_WINDOWS
        completions = Completions(waiters=cfg.max_outstanding + 4)
        try:
            for _ in range(NOMINAL_WINDOWS):
                if cold_slice:
                    self.cold_loop(target, cold_slice)
                    gc.collect()  # between phases, not inside one
                if not cfg.warm_ops:
                    # warm traffic targets the operators built last
                    self.warm_specs = self.built
                window = self._rung(
                    target, completions, cfg.nominal_rps, round_s - cold_slice, nominal=True
                )
                self.windows.append(window)
            gc.collect()
            if all(self._passed(w) for w in self.windows):
                self.capacity = cfg.nominal_rps
            stop = time.perf_counter() + self.seconds * LADDER_SHARE
            for mult in LADDER:
                if time.perf_counter() + cfg.rung_s > stop:
                    break
                rung = self._rung(target, completions, cfg.nominal_rps * mult, cfg.rung_s)
                self.rungs.append(rung)
                if not self._passed(rung):
                    break
                self.capacity = rung.rate
        finally:
            completions.close()

    def _rung(
        self, target, completions, rate: float, seconds: float, nominal: bool = False
    ) -> RungResult:
        """Open-loop traffic at ``rate`` for ``seconds``, then drain."""
        jobs, offsets = self._warm_jobs(rate, seconds)
        # only nominal answers are checked, and only a spaced subset of
        # them is kept for it (twice the checks drawn from it), so the
        # benchmark's own memory does not grow with the rate
        stride = max(1, len(jobs) * NOMINAL_WINDOWS // (2 * self.cfg.warm_checks))
        for i, job in enumerate(jobs):
            job.keep = job.kind == "cold" or (nominal and i % stride == 0)
        rung = RungResult(rate=rate)
        rung.backlog_grew = open_loop(
            _submitter(target),
            jobs,
            offsets,
            completions,
            self.cfg.max_outstanding,
            prepare=self.inputs.fill,
        )
        if not completions.wait_idle():
            self.failures.append(f"requests still pending after the {rate:.0f}/s rung")
        rung.samples = [s for s in jobs if s.kind == "warm"]
        if nominal:
            self.late.extend(s.late for s in jobs)
        # cold requests mixed into fleet traffic load the shards; the
        # cold metrics come from closed loops only
        self.extra.extend(s for s in jobs if s.kind != "warm")
        return rung

    def _window_percentile(self, p: float) -> float:
        """Median over the nominal windows of each window's percentile."""
        return median(
            [
                percentile([s.latency for s in w.samples if s.error is None], p)
                for w in self.windows
            ]
        )

    def _passed(self, rung: RungResult) -> bool:
        lat = [s.latency for s in rung.samples if s.error is None]
        return (
            not rung.backlog_grew
            and bool(lat)
            and percentile(lat, 99) <= self.cfg.p99_limit_s
        )

    # ------------------------------------------------------------- drive

    def execute(self) -> None:
        cfg = self.cfg
        target = self.setup()
        try:
            if self.tracer is not None:
                if cfg.fleet is not None:
                    # shards are already forked: only front-door calls
                    # run under the wrappers, shard layers come from the
                    # counters the fleet merges at drain
                    self.tracer.install()
                self.tracer.recording = True
            # collect set-up garbage now rather than inside a timed phase
            gc.collect()
            t0 = self.measured_t0 = time.perf_counter()
            self.measure(target)
            self.measured_wall = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False
            if cfg.fleet is not None:
                self.fleet_layers(target)
            else:
                self.service_layers(target)
        finally:
            target.close()
            if self.tracer is not None:
                self.tracer.uninstall()
        # before the checks, whose dense reference matrices are the
        # benchmark's memory, not the program's
        self.peak_rss_mb = peak_rss_mb()
        self.check_answers(target)

    # ------------------------------------------------------------ layers

    def service_layers(self, svc) -> None:
        snap = svc.metrics.to_dict()
        self.layers.update(_counter_layers(snap["counters"]))
        self.layers["server.batch_mean"] = snap["batch"]["mean"]
        # no fleet in this workload: its layers did no work
        self.layers.update(dict.fromkeys(FLEET_LAYERS, 0.0))

    def fleet_layers(self, fleet) -> None:
        """Front-door probes, then drain every shard so its counters
        merge into the fleet's metrics (under a ``shard_`` prefix)."""
        probes = []
        if self.tracer is not None:
            key = self.warm_specs[0].fingerprint
            for _ in range(100):
                t0 = time.perf_counter()
                fleet.submit_occupancy(key, 0.0).result(timeout=30.0)
                probes.append(time.perf_counter() - t0)
        completed = {}
        for name in fleet.live_shards():
            summary = fleet.remove_shard(name)
            completed[name] = summary.get("counters", {}).get("completed", 0)
        c = fleet.metrics.to_dict()["counters"]
        report = fleet.report()
        total = sum(completed.values())
        self.layers.update(_counter_layers(c, prefix="shard_"))
        self.layers.update(
            {
                "server.batch_mean": 0.0,  # batches form inside the shards
                "server.rejected": self.layers["server.rejected"]
                + c.get("rejected_no_shard", 0),
                "server.expired": c.get("expired", 0),
                "fleet.rtt_p50_s": median(probes),
                "router.max_shard_share": max(completed.values()) / total if total else 0.0,
                "fleet.replays": c.get("requests_replayed", 0),
                "fleet.prewarms": c.get("prewarms_sent", 0),
                "health.respawns": report["supervisor"]["respawns"],
            }
        )
        if report["replay_mismatch"]:
            self.failures.append(f"{report['replay_mismatch']} fleet replay mismatches")

    # ------------------------------------------------------------ checks

    @property
    def warm_nominal(self) -> list[Sample]:
        return [s for w in self.windows for s in w.samples]

    def all_samples(self) -> list[Sample]:
        rung_samples = [s for r in self.rungs for s in r.samples]
        return self.cold + self.warm_nominal + rung_samples + self.extra

    def check_answers(self, target) -> None:
        """Backward errors of a seeded sample of answers.

        Each sampled answer is checked against the compressed operator
        the service holds (``tlr_matvec``) and against the dense RBF
        matrix built here from the spec.  Errors and breaches of
        ``RESIDUAL_FACTOR * accuracy`` are failures.
        """
        from repro import OperatorCache, tlr_matvec

        cfg = self.cfg
        for s in self.all_samples():
            if s.error is not None:
                self.failures.append(f"{s.kind} request failed: {s.error!r}")
        answered = [
            s
            for s in self.all_samples()
            if s.error is None and s.rhs is not None and s.value is not None
        ]
        rng = np.random.default_rng(self.inputs.rng.integers(1 << 32))
        cold = [s for s in answered if s.kind == "cold"]
        warm = [s for s in answered if s.kind != "cold"]
        n_cold = min(len(cold), cfg.cold_checks)
        chosen = [cold[i] for i in rng.choice(len(cold), size=n_cold, replace=False)]
        n_warm = min(len(warm), cfg.warm_checks)
        chosen += [warm[i] for i in rng.choice(len(warm), size=n_warm, replace=False)]
        if cfg.fleet is not None:
            # the shards sealed every operator into the shared directory
            cache = OperatorCache(directory=self.workdir / f"fleet-cache-{cfg.setup_repeats - 1}")
        else:
            cache = target.cache
        dense = {}
        for s in chosen:
            x = np.asarray(s.value)
            if x.shape != s.rhs.shape or not np.all(np.isfinite(x)):
                self.failures.append(f"{s.kind} answer has wrong shape or non-finite values")
                continue
            fp = s.op.fingerprint
            if fp not in dense:
                a = dense_operator(s.op)
                dense[fp] = (a, float(np.linalg.norm(a)))
            a, a_norm = dense[fp]
            tlr = backward_error(tlr_matvec(cache.get_or_build(s.op).operator, x), x, s.rhs, a_norm)
            ref = backward_error(a @ x, x, s.rhs, a_norm)
            self.residuals.append(tlr)
            self.dense_residuals.append(ref)
            bound = RESIDUAL_FACTOR * s.op.accuracy
            if tlr > bound or ref > bound:
                self.failures.append(
                    f"{s.kind} backward error {max(tlr, ref):.3g} over bound {bound:.3g}"
                )

    # ----------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        cold = [s.latency for s in self.cold if s.error is None]
        return {
            "setup_s": median(self.setup_times),
            "cold_p50_s": percentile(cold, 50),
            "cold_p90_s": percentile(cold, 90),
            "warm_p50_s": self._window_percentile(50),
            "warm_p90_s": self._window_percentile(90),
            "warm_capacity_rps": self.capacity,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def sample_counts(self) -> dict:
        return {
            "cold": len(self.cold),
            "warm_nominal": len(self.warm_nominal),
            "windows": [len(w.samples) for w in self.windows],
            "window_p50_s": [
                percentile([s.latency for s in w.samples if s.error is None], 50)
                for w in self.windows
            ],
            "rungs": [(round(r.rate, 1), len(r.samples), r.backlog_grew) for r in self.rungs],
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
    """Run one workload; return (metrics, attempted, failures, info)."""
    from tracer import Tracer, attribute, layer_metrics

    cfg = _cfg(name, smoke)
    leak = LeakCheck()
    tracer = None
    span_cost = 0.0
    if trace:
        tracer = Tracer()
        span_cost = tracer.span_cost()
        if cfg.fleet is None:
            tracer.install()
        tracer.recording = cfg.fleet is None
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(cfg, seed, seconds, tracer, workdir)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaks = leak.leaks()
    run.failures.extend(f"leaked {item}" for item in leaks)
    info = {
        "samples": run.sample_counts(),
        "residual_max": max(run.residuals, default=0.0),
        "dense_residual_max": max(run.dense_residuals, default=0.0),
        "leaks": leaks,
    }
    if trace:
        metrics = layer_metrics(tracer)
        metrics.update(run.layers)
        metrics.update(attribute(tracer, run.cold + run.warm_nominal))
        if cfg.fleet is not None:
            # no span inside a shard is visible: what the front door's
            # empty round trip does not cover is unaccounted
            e2e = run.end_to_end()
            for key, p50 in (("", "warm_p50_s"), (".warm", "warm_p50_s"), (".cold", "cold_p50_s")):
                metrics["unaccounted_frac" + key] = (
                    1.0 - metrics["fleet.rtt_p50_s"] / e2e[p50] if e2e[p50] else 1.0
                )
        metrics["gen.late_p99_s"] = percentile(run.late, 99)
        n_spans = sum(1 for s in tracer.spans if s.t0 >= run.measured_t0)
        metrics["trace.overhead_frac"] = (
            n_spans * span_cost / run.measured_wall if run.measured_wall else 0.0
        )
        metrics["check.residual_max"] = max(info["residual_max"], info["dense_residual_max"])
    else:
        metrics = run.end_to_end()
    attempted = len(run.all_samples())
    return metrics, attempted, run.failures, info
