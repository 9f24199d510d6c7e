"""The seven workloads.  Names are the contract; ``BENCHMARK.json`` repeats them.

Every workload is an :class:`repro.experiments.runner.ExperimentSpec` plus the
arguments of :func:`repro.live.deploy.run_live_experiment`, built from
``--seed`` and ``--seconds`` alone.  All use ``codec="binary"`` and the
write-only YCSB generator unless stated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: ``--seconds`` of the full benchmark; ``BENCHMARK.json`` ``run_seconds``.
RUN_SECONDS = 10
#: ``--quick``: the smoke-test scale (sim-crash runs 0.4 simulated seconds).
QUICK_SECONDS = 2
#: Cross-region one-way delay injected on ``live-wan`` (virginia <-> london).
WAN_ONE_WAY_MS = 38.0


@dataclass(frozen=True)
class Workload:
    """One named workload: what runs, why, and what makes a run invalid."""

    name: str
    why: str
    mode: str  # "live" (real sockets, one event loop) or "sim" (simulated clock)
    spec: Dict[str, Any]
    #: The run's own clock, in which latencies are stated: ``"sim"`` -
    #: simulated seconds (exact per seed); ``"wall"`` - wall seconds
    #: (delay-bound: injected delay dominates); ``"reference"`` - wall seconds
    #: scaled by the host's speed in the same window (CPU-bound: the event
    #: loop is busy, see :mod:`bench.reference`).
    clock: str = "reference"
    #: Clock of ``tps`` when it differs: an open loop completes what it is
    #: offered per *wall* second however fast the host is.
    tps_clock: Optional[str] = None
    #: Extra arguments of ``run_live_experiment`` (open loop: rate, cap).
    live_args: Dict[str, Any] = field(default_factory=dict)
    #: Simulated seconds run per ``--seconds`` second (sim workloads only),
    #: sized so that one run costs about ``--seconds`` of wall time today.
    sim_per_second: float = 0.0
    warmup_frac: float = 0.2
    #: Committed transactions per second of the run's own clock below which
    #: the run is invalid (about a third of today's value).
    floor_tps: float = 0.0
    #: Crash the leader at ``crash_at * duration`` for ``crash_for * duration``.
    crash_at: Optional[float] = None
    crash_for: Optional[float] = None
    #: Sim latency jitter as a share of ``base_latency``.  The simulator is a
    #: pure function of (spec, seed) and a constant-latency LAN ignores the
    #: seed entirely; 10% uniform jitter makes the seed an input, as the
    #: benchmark contract requires, without changing what is exercised.
    jitter: float = 0.0

    @property
    def fault_free(self) -> bool:
        return self.crash_at is None

    def window(self, seconds: float):
        """(duration, warmup) in the run's own clock for a ``--seconds`` run."""
        if self.mode == "live":
            duration = float(seconds)
            return duration, min(1.0, 0.25 * duration)
        duration = round(self.sim_per_second * seconds, 6)
        return duration, round(self.warmup_frac * duration, 6)

    def spec_kwargs(self, seed: int, seconds: float) -> Dict[str, Any]:
        """Keyword arguments of ``ExperimentSpec`` (plain data, JSON-safe)."""
        duration, warmup = self.window(seconds)
        kwargs = dict(
            protocol="hotstuff-1",
            n=4,
            batch_size=100,
            codec="binary",
            mode=self.mode,
            seed=int(seed),
            duration=duration,
            warmup=warmup,
            check_safety=True,
        )
        kwargs.update(self.spec)
        return kwargs


_LIVE = dict(view_timeout=1.0)  # a fault-free live run must see zero timeouts

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="live-sat",
            why="closed loop at the knee (270 clients) on one event loop: every CPU "
            "layer (codec, crypto, consensus, ledger, transport) is on the critical path",
            mode="live",
            spec=dict(_LIVE),
            floor_tps=2500.0,
        ),
        Workload(
            name="live-rate",
            why="open loop at 2000 txn/s, a quarter of saturation: small batches, so latency "
            "is set by view pacing, batching and flush linger; added queueing shows as p50_ms",
            mode="live",
            spec=dict(_LIVE),
            live_args=dict(rate=2000, max_outstanding=20000),
            tps_clock="wall",
            floor_tps=1800.0,
        ),
        Workload(
            name="live-tpcc",
            why="TPC-C, closed loop: same consensus traffic at about 4.5x lower tps, "
            "so the ledger does most of the work here and little in live-sat",
            mode="live",
            spec=dict(_LIVE, workload="tpcc"),
            floor_tps=500.0,
        ),
        Workload(
            name="live-slot",
            why="hotstuff-1-slotting (view_timeout 0.1, pipeline_depth 1): the paper's "
            "slotting path and the only place view-boundary cost can be judged",
            mode="live",
            spec=dict(protocol="hotstuff-1-slotting", view_timeout=0.1, pipeline_depth=1),
            floor_tps=2500.0,
        ),
        Workload(
            name="live-wan",
            why="virginia+london, 38 ms one-way injected: delay-bound, so CPU changes must "
            "show no change here while hop-count and pipelining changes do",
            mode="live",
            spec=dict(regions=["virginia", "london"], view_timeout=2.0),
            clock="wall",
            floor_tps=500.0,
        ),
        Workload(
            name="sim-lan-n16",
            why="simulator, n=16 (quorum 11), LAN: no sockets, no event loop; wall time is "
            "sim kernel + consensus + crypto, what regenerating a figure costs",
            mode="sim",
            spec=dict(n=16),
            clock="sim",
            sim_per_second=0.1,
            warmup_frac=0.2,
            floor_tps=15000.0,
            jitter=0.1,
        ),
        Workload(
            name="sim-crash",
            why="simulator, leader crash and restart with durable stores: outage, recovery "
            "and ops lost on a simulated clock, exercising storage, pacemaker, recovery",
            mode="sim",
            spec=dict(view_timeout=0.03),
            clock="sim",
            sim_per_second=0.2,
            warmup_frac=0.1,
            floor_tps=8000.0,
            crash_at=5.0 / 12.0,
            crash_for=0.25,
            jitter=0.1,
        ),
    )
}
