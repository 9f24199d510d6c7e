"""Figure 10 (e, f): impact of tail-forking faulty leaders."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_fig10_tail_forking(benchmark):
    """Reproduce Fig. 10 (e, f): tail-forking suppresses the previous leader's block."""
    rows = run_scenario_once(
        benchmark,
        "fig10-tailfork",
        title="Figure 10 (e, f) — tail-forking attack",
        faulty_counts=pick((0, 4), (0, 1, 4, 7, 10)),
        n=pick(16, 32),
        duration=pick(0.4, 1.0),
        warmup=pick(0.1, 0.2),
    )
    faulty_counts = sorted({row["faulty_leaders"] for row in rows})
    clean, attacked = faulty_counts[0], faulty_counts[-1]

    def metric(protocol, count, key):
        return next(
            row[key]
            for row in rows
            if row["protocol"] == protocol and row["faulty_leaders"] == count
        )

    # The baselines and non-slotted HotStuff-1 lose throughput roughly in
    # proportion to the fraction of faulty leaders; slotted HotStuff-1 does not.
    for protocol in ("hotstuff", "hotstuff-2", "hotstuff-1"):
        assert metric(protocol, attacked, "throughput_tps") < 0.9 * metric(protocol, clean, "throughput_tps")
    assert metric("hotstuff-1-slotting", attacked, "throughput_tps") > 0.85 * metric(
        "hotstuff-1-slotting", clean, "throughput_tps"
    )
