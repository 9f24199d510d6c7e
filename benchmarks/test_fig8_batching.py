"""Figure 8 (c, d): throughput and client latency versus the batch size."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_fig8_batching(benchmark):
    """Reproduce Fig. 8 (c) throughput and (d) latency: batch ∈ {100..10000}."""
    rows = run_scenario_once(
        benchmark,
        "fig8-batching",
        title="Figure 8 (c, d) — impact of the batch size (n is scaled down in quick mode)",
        batch_sizes=pick((100, 1000, 5000), (100, 1000, 2000, 5000, 10000)),
        n=pick(8, 32),
        duration=pick(0.2, 0.5),
        warmup=pick(0.05, 0.1),
    )
    # Expected shape: throughput grows with the batch size but saturates
    # (sub-linear growth at the top end), while latency grows with batch size.
    hotstuff1 = {row["batch_size"]: row for row in rows if row["protocol"] == "hotstuff-1"}
    sizes = sorted(hotstuff1)
    assert hotstuff1[sizes[-1]]["throughput_tps"] > hotstuff1[sizes[0]]["throughput_tps"]
    assert hotstuff1[sizes[-1]]["avg_latency_ms"] > hotstuff1[sizes[0]]["avg_latency_ms"]
    growth_low = hotstuff1[sizes[1]]["throughput_tps"] / hotstuff1[sizes[0]]["throughput_tps"]
    growth_high = hotstuff1[sizes[-1]]["throughput_tps"] / hotstuff1[sizes[1]]["throughput_tps"]
    batch_ratio_low = sizes[1] / sizes[0]
    batch_ratio_high = sizes[-1] / sizes[1]
    assert growth_low / batch_ratio_low > growth_high / batch_ratio_high
