"""Ablation backing the §7 narrative: 5 ms / 7 ms / 9 ms latencies and the
41.5 % / 24.2 % latency reductions of HotStuff-1 over HotStuff / HotStuff-2."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_ablation_latency_breakdown(benchmark):
    """Fault-free latency comparison across protocols at small and large n."""
    rows = run_scenario_once(
        benchmark,
        "latency-breakdown",
        title="§7 narrative — fault-free latency breakdown and reductions",
        replica_counts=pick((4, 16), (4, 32)),
        duration=pick(0.25, 0.6),
        warmup=pick(0.05, 0.1),
    )
    reductions = {
        (row["protocol"], row["n"]): row["latency_reduction_pct"]
        for row in rows
        if "latency_reduction_pct" in row
    }
    for (label, n), value in reductions.items():
        if "hotstuff-2" in label:
            # Paper: up to 24.2% lower latency than HotStuff-2.
            assert 10.0 <= value <= 40.0, (label, n, value)
        else:
            # Paper: up to 41.5% lower latency than HotStuff.
            assert 25.0 <= value <= 55.0, (label, n, value)
