"""One job in a fresh process: a workload run, the sim twin, or the isolated timings.

The transaction-id counter, the codec's size memo and the heap are
process-global, so the same run measured twice in one process gives two
different answers.  The parent (:mod:`bench.harness`) therefore starts one
child per run; the child prints one marked JSON line and exits.
"""

from __future__ import annotations

import asyncio
import json
import math
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from bench.reference import LIVE_PERIOD_S, SIM_SLICES, ReferenceClock
from bench.workloads import WORKLOADS, Workload

RESULT_MARK = "BENCH-CHILD-RESULT "
#: The sim twin of ``live-wan`` runs this many simulated seconds (<1 s wall).
TWIN_SIM_SECONDS = 10.0
#: A post-warmup request still unanswered this long before the window closed
#: counts as failed.
STALE_AFTER_S = 1.0
#: ``client.slo_miss_frac``: share of open-loop requests slower than this
#: from their due time (or failed).
SLO_MS = 100.0
LAG_SLEEP_S = 0.005


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list (0.0 when empty)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


class Probe:
    """Timestamps of the measured window, taken at the run's own boundaries."""

    def __init__(self) -> None:
        self.started_epoch = 0.0
        self.started_wall = 0.0
        self.started_cpu = 0.0
        self.closed_wall = 0.0
        self.closed_cpu = 0.0
        self.sim_events = 0
        #: Host speed while setting up (a burst at the first request) and
        #: over the measured window (sampled throughout it).
        self.setup_clock = ReferenceClock()
        self.window_clock = ReferenceClock()

    def started(self) -> None:
        self.started_epoch = time.time()
        self.setup_clock.burst()
        self.started_cpu = time.process_time()
        self.started_wall = time.perf_counter()

    def closed(self) -> None:
        self.closed_wall = time.perf_counter()
        self.closed_cpu = time.process_time()


def build_spec(workload: Workload, seed: int, seconds: float, **overrides):
    """The workload's ``ExperimentSpec`` for one (seed, seconds)."""
    from repro.experiments.runner import ExperimentSpec
    from repro.faults.plan import FaultPlan
    from repro.net.latency import JitteredLatency

    kwargs = workload.spec_kwargs(seed, seconds)
    kwargs.update(overrides)
    spec = ExperimentSpec(**kwargs)
    if spec.mode == "sim" and workload.jitter > 0 and not spec.regions:
        spec.latency_model = JitteredLatency(
            spec.base_latency, spec.base_latency * workload.jitter
        )
    if workload.crash_at is not None:
        spec.faults = FaultPlan.leader_crash(
            at=round(workload.crash_at * spec.duration, 6),
            down_for=round(workload.crash_for * spec.duration, 6),
        ).to_dict()
    return spec


# --------------------------------------------------------------- workload run
def run_workload(job: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[job["workload"]]
    seconds = float(job["seconds"])
    probe = Probe()
    tracer = None
    if job.get("traced"):
        from bench.tracing import SpanTracer

        tracer = SpanTracer()
        tracer.install()
    overrides: Dict[str, Any] = {}
    if job.get("setup_only"):
        # Same imports, deployment and cluster connect; a window just long
        # enough to issue the first requests.
        overrides = (
            dict(duration=0.2, warmup=0.0)
            if workload.mode == "live"
            else dict(duration=0.01, warmup=0.0)
        )
    spec = build_spec(workload, int(job["seed"]), seconds, **overrides)
    lags: List[float] = []
    if workload.mode == "live":
        result = _run_live(workload, spec, probe, tracer, lags)
    else:
        result = _run_sim(spec, probe, tracer)
    # Reference seconds: imports and construction are CPU-bound.
    setup_s = (probe.started_epoch - float(job["t_spawn"])) * probe.setup_clock.speed
    out: Dict[str, Any] = {"setup_s": setup_s}
    if job.get("setup_only"):
        return out
    out.update(_measure(workload, spec, result, probe))
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["lag_ms_p99"] = percentile(sorted(lags), 0.99) * out["time_scale"] * 1000.0
        if job.get("spans_out"):
            tracer.dump(job["spans_out"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _run_live(workload: Workload, spec, probe: Probe, tracer, lags: List[float]):
    from repro.consensus.metrics import MetricsCollector
    from repro.live.deploy import run_live_experiment

    sleepers: List[asyncio.Task] = []

    async def measure_lag() -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_SLEEP_S)
            lags.append(loop.time() - before - LAG_SLEEP_S)

    async def sample_reference() -> None:
        while True:
            await asyncio.sleep(LIVE_PERIOD_S)
            probe.window_clock.tick()

    def on_started(_info) -> None:
        loop = asyncio.get_running_loop()
        probe.started()
        sleepers.append(loop.create_task(sample_reference()))
        if tracer is not None:
            tracer.trace_selector(loop)
            sleepers.append(loop.create_task(measure_lag()))
            tracer.on()

    close_window = MetricsCollector.close_window

    def probed_close_window(collector, at):
        # The harness's only view of "the window just ended" on the live path.
        probe.closed()
        if tracer is not None:
            tracer.off()
        for task in sleepers:
            task.cancel()
        return close_window(collector, at)

    MetricsCollector.close_window = probed_close_window
    return run_live_experiment(spec, on_started=on_started, **workload.live_args)


def _run_sim(spec, probe: Probe, tracer):
    from repro.experiments import runner
    from repro.sim.scheduler import Simulator

    class ProbedSimulator(Simulator):
        """Marks the window (``run`` starts right after the first requests)."""

        def run(self, until=None, max_events=None):
            probe.started()
            if tracer is not None:
                tracer.run_clock = lambda: self.now
                tracer.on()
            try:
                # Same events in the same order as one call; the reference
                # loop is sampled between the slices.
                first = self.now
                for piece in range(1, SIM_SLICES):
                    super().run(until=first + (until - first) * piece / SIM_SLICES)
                    probe.window_clock.tick()
                super().run(until=until, max_events=max_events)
            finally:
                probe.closed()
                probe.sim_events = self.events_processed
                if tracer is not None:
                    tracer.off()

    runner.Simulator = ProbedSimulator
    return runner.run_experiment(spec)


def _measure(workload: Workload, spec, result, probe: Probe) -> Dict[str, Any]:
    """Everything the parent needs, as plain numbers in the workload's stated clocks."""
    summary = result.summary
    pool = result.client_pool
    warmup = spec.warmup
    end = summary.duration
    samples = pool.metrics.samples
    # Durations the run measured -> the clock they are stated in.
    speed = probe.window_clock.speed
    time_scale = speed if workload.clock == "reference" else 1.0
    tps_scale = speed if (workload.tps_clock or workload.clock) == "reference" else 1.0
    rate = workload.live_args.get("rate")
    late: List[float] = []
    if rate:
        # Open loop: time each request from when it was due.  Transaction ids
        # are consecutive from 0 in a fresh process, so id == injection index.
        inject_start = pool._inject_started_at
        latencies = []
        for sample in samples:
            due = inject_start + sample.txn_id / rate
            if due >= warmup and sample.completed_at <= end:
                latencies.append(sample.completed_at - due)
                late.append(sample.submitted_at - due)
        if late and min(late) < -1e-6:
            raise RuntimeError("open-loop due times misaligned with transaction ids")
    else:
        latencies = [s.latency for s in samples if s.submitted_at >= warmup]
    latencies.sort()
    late.sort()
    completions = sorted(s.completed_at for s in samples)
    outage = max((b - a for a, b in zip(completions, completions[1:])), default=0.0)

    outstanding = [r for r in pool.outstanding.values() if r.submitted_at >= warmup]
    stale = sum(1 for r in outstanding if r.submitted_at <= end - STALE_AFTER_S)
    pools = {id(r.mempool): r.mempool for r in result.replicas}
    rejected = sum(p.admission_rejected for p in pools.values())
    attempted = summary.committed_txns + len(outstanding)
    slo_miss = sum(1 for latency in latencies if latency * time_scale * 1000.0 > SLO_MS) + stale

    honest = [r for r in result.replicas if not r.behavior.is_byzantine]
    committed_blocks = sum(len(r.ledger.committed.hashes()) for r in honest)
    reporter = next((r for r in honest if r.report_metrics), honest[0])
    reporter_blocks = max(1, len(reporter.ledger.committed.hashes()) - 1)  # minus genesis
    wal_appends = sum(
        len(r.store.wal.backend.replay()) for r in result.replicas if r.store is not None
    )
    stats = result.network_stats
    chaos = result.chaos
    return {
        "measured_s": end - warmup,  # as the run counted it; the floor is per this second
        "duration_s": end * time_scale,
        "committed": summary.committed_txns,
        "completed_total": pool.completed_count,
        "tps": summary.throughput_tps / tps_scale,
        "p50_ms": percentile(latencies, 0.50) * time_scale * 1000.0,
        "p90_ms": percentile(latencies, 0.90) * time_scale * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * time_scale * 1000.0,
        "latency_n": len(latencies),
        "late_ms_p99": percentile(late, 0.99) * time_scale * 1000.0,
        "slo_miss": slo_miss,
        "outage_s": outage * time_scale,
        "attempted": attempted,
        "failed": pool.retries + rejected + stale,
        "retries": pool.retries,
        "bytes_sent": stats["bytes_sent"],
        "messages_sent": stats["messages_sent"],
        "batch_writes": stats.get("batch_writes", 0),
        "batched_frames": stats.get("batched_frames", 0),
        "timeouts": summary.timeouts,
        "rollbacks": summary.rollbacks,
        "view_changes": summary.view_changes,
        "consensus_commits": summary.consensus_commits,
        "reporter_blocks": reporter_blocks,
        "speculated_blocks": sum(r.ledger.speculated_block_count for r in honest),
        "committed_blocks": committed_blocks,
        "wal_appends": wal_appends,
        "speed": speed,
        # The window's wall and CPU time, in reference seconds.
        "busy_s": (probe.closed_wall - probe.started_wall) * speed,
        "cpu_s": (probe.closed_cpu - probe.started_cpu) * speed,
        "time_scale": time_scale,
        "sim_events": probe.sim_events,
        "chaos": None
        if chaos is None
        else {
            "prefix_agreement": bool(chaos["prefix_agreement"]),
            "wal_vote_violations": len(chaos["wal_vote_violations"]),
            "skipped_events": chaos["skipped_events"],
            "recovered": chaos["recovered"],
            "max_recovery_s": chaos["max_recovery_s"],
            "ops_lost": chaos["ops_lost_to_rollback"],
        },
    }


# ------------------------------------------------------------------- sim twin
def run_twin(job: Dict[str, Any]) -> Dict[str, Any]:
    """``live-wan``'s spec on the simulated clock, hotstuff-1 and hotstuff-2."""
    from repro.experiments.runner import run_experiment

    workload = WORKLOADS[job["workload"]]
    out = {}
    for protocol in ("hotstuff-1", "hotstuff-2"):
        spec = build_spec(
            workload,
            int(job["seed"]),
            TWIN_SIM_SECONDS,
            mode="sim",
            protocol=protocol,
            duration=TWIN_SIM_SECONDS,
            warmup=1.0,
        )
        out[protocol] = run_experiment(spec).summary.p50_latency * 1000.0
    return {"p50_ms": out}


# ----------------------------------------------------------------------- main
def main(argv: List[str]) -> int:
    job = json.loads(argv[0])
    try:
        if job["kind"] == "run":
            out = run_workload(job)
        elif job["kind"] == "twin":
            out = run_twin(job)
        else:
            from bench.isolated import run_isolated

            out = run_isolated(WORKLOADS[job["workload"]], int(job["seed"]))
    except Exception as exc:  # boundary: report the failed run to the parent
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    sys.stdout.write(RESULT_MARK + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0
