"""Figure 8 (a, b): throughput and client latency versus the number of replicas."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_fig8_scalability(benchmark):
    """Reproduce Fig. 8 (a) throughput and (b) latency: n ∈ {4..64}, batch 100, YCSB."""
    rows = run_scenario_once(
        benchmark,
        "fig8-scalability",
        title="Figure 8 (a, b) — scalability with the number of replicas",
        replica_counts=pick((4, 16, 32), (4, 16, 32, 64)),
        duration=pick(0.25, 1.0),
        warmup=pick(0.05, 0.2),
    )
    # Expected shape: equal throughput across protocols at each n, throughput
    # decreasing with n, and HotStuff-1 with the lowest latency.
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n"], {})[row["protocol"]] = row
    for n, per_protocol in by_n.items():
        latencies = {name: data["avg_latency_ms"] for name, data in per_protocol.items()}
        assert latencies["hotstuff-1"] < latencies["hotstuff-2"] < latencies["hotstuff"], n
    smallest, largest = min(by_n), max(by_n)
    assert by_n[largest]["hotstuff-1"]["throughput_tps"] < by_n[smallest]["hotstuff-1"]["throughput_tps"]
