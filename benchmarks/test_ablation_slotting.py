"""Design-choice ablation: speculation and slotting toggled independently under slow leaders."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_ablation_speculation_and_slotting(benchmark):
    """Speculation buys latency; slotting buys slow-leader resilience; both are needed."""
    rows = run_scenario_once(
        benchmark,
        "ablation-slotting",
        title="Ablation — speculation × slotting under slow leaders",
        slow_leader_count=pick(2, 4),
        n=pick(8, 16),
        duration=pick(0.4, 1.0),
        warmup=pick(0.1, 0.2),
    )
    by_variant = {row["variant"]: row for row in rows}
    spec_on_slotting = by_variant["speculation on, slotting"]
    spec_off_slotting = by_variant["speculation off, slotting"]
    spec_on_plain = by_variant["speculation on, no slotting"]

    # Speculation lowers latency for the same slotting setting.
    assert spec_on_slotting["avg_latency_ms"] < spec_off_slotting["avg_latency_ms"]
    # Slotting preserves throughput under slow leaders while the plain variant suffers.
    assert spec_on_slotting["throughput_tps"] > spec_on_plain["throughput_tps"]
