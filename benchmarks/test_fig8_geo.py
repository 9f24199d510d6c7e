"""Figure 8 (e-h): geo-scale deployments over 2-5 regions with YCSB and TPC-C."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def _check_shape(rows):
    by_regions = {}
    for row in rows:
        by_regions.setdefault(row["regions"], {})[row["protocol"]] = row
    fewest, most = min(by_regions), max(by_regions)
    # Throughput drops and latency rises as regions are added.
    assert (
        by_regions[most]["hotstuff-1"]["throughput_tps"]
        <= by_regions[fewest]["hotstuff-1"]["throughput_tps"]
    )
    assert (
        by_regions[most]["hotstuff-1"]["avg_latency_ms"]
        >= by_regions[fewest]["hotstuff-1"]["avg_latency_ms"]
    )
    # HotStuff-1 keeps the lowest latency in every configuration.
    for per_protocol in by_regions.values():
        assert (
            per_protocol["hotstuff-1"]["avg_latency_ms"]
            < per_protocol["hotstuff"]["avg_latency_ms"]
        )


def test_fig8_geo_ycsb(benchmark):
    """Reproduce Fig. 8 (e, f): geo-scale scalability with the YCSB workload."""
    rows = run_scenario_once(
        benchmark,
        "fig8-geo-ycsb",
        title="Figure 8 (e, f) — geo-scale deployment, YCSB",
        region_counts=pick((2, 5), (2, 3, 4, 5)),
        n=pick(16, 32),
        duration=pick(4.0, 8.0),
        warmup=pick(1.0, 2.0),
    )
    _check_shape(rows)


def test_fig8_geo_tpcc(benchmark):
    """Reproduce Fig. 8 (g, h): geo-scale scalability with the TPC-C workload."""
    rows = run_scenario_once(
        benchmark,
        "fig8-geo-tpcc",
        title="Figure 8 (g, h) — geo-scale deployment, TPC-C",
        region_counts=pick((2, 5), (2, 3, 4, 5)),
        n=pick(16, 32),
        duration=pick(4.0, 8.0),
        warmup=pick(1.0, 2.0),
    )
    _check_shape(rows)
