"""Figure 9 (e, j): two-region geographical deployment (Virginia / London)."""

from __future__ import annotations

from benchmarks.conftest import is_full, pick, run_scenario_once


def test_fig9_two_region_split(benchmark):
    """Reproduce Fig. 9 (e, j): k replicas in London, clients in Virginia."""
    n = pick(13, 31)
    f = (n - 1) // 3
    remote_counts = (0, f, f + 1, n) if not is_full() else (0, f, f + 1, n - f - 1, n - f, n)
    rows = run_scenario_once(
        benchmark,
        "fig9-geo",
        title="Figure 9 (e, j) — Virginia/London split, clients in Virginia",
        remote_counts=remote_counts,
        n=n,
        duration=pick(1.5, 8.0),
        warmup=pick(0.4, 2.0),
        protocols=pick(("hotstuff-2", "hotstuff-1"), ("hotstuff", "hotstuff-2", "hotstuff-1", "hotstuff-1-slotting")),
    )
    # Expected shape: with k <= f the quorums stay local and latency is low; once
    # k crosses f the certificates need transatlantic votes and latency jumps.
    series = {row["london_replicas"]: row for row in rows if row["protocol"] == "hotstuff-1"}
    assert series[f]["avg_latency_ms"] < series[f + 1]["avg_latency_ms"]
    assert series[f]["throughput_tps"] >= series[f + 1]["throughput_tps"]
