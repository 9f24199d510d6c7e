"""Figure 9 (a-d, f-i): performance with injected message delays on k replicas."""

from __future__ import annotations

from benchmarks.conftest import is_full, pick, run_scenario_once


def test_fig9_delay_injection(benchmark):
    """Reproduce Fig. 9 (a-d) throughput and (f-i) latency under injected delays."""
    n = pick(13, 31)
    f = (n - 1) // 3
    impacted_counts = (0, f, f + 1, n) if not is_full() else (0, f, f + 1, n - f - 1, n - f, n)
    rows = run_scenario_once(
        benchmark,
        "fig9-delay",
        title="Figure 9 (a-d, f-i) — injected message delays",
        delays_ms=pick((5.0, 50.0), (1.0, 5.0, 50.0, 500.0)),
        impacted_counts=impacted_counts,
        n=n,
        duration=pick(0.3, 1.0),
        warmup=pick(0.05, 0.2),
        protocols=pick(("hotstuff-2", "hotstuff-1"), ("hotstuff", "hotstuff-2", "hotstuff-1", "hotstuff-1-slotting")),
    )
    # Expected shape: the pronounced degradation happens between k = f and
    # k = f + 1 (every certificate now needs an impacted replica).
    for delay in {row["delay_ms"] for row in rows}:
        series = {
            row["impacted"]: row
            for row in rows
            if row["protocol"] == "hotstuff-1" and row["delay_ms"] == delay
        }
        assert series[f + 1]["throughput_tps"] <= series[f]["throughput_tps"]
        assert series[f + 1]["avg_latency_ms"] >= series[f]["avg_latency_ms"]
        assert series[f + 1]["avg_latency_ms"] >= series[0]["avg_latency_ms"]
