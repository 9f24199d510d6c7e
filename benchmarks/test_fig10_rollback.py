"""Figure 10 (g, h): impact of rollback-forcing faulty leaders."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_fig10_rollback(benchmark):
    """Reproduce Fig. 10 (g, h): rollbacks hurt HotStuff-1 unless slotting confines them."""
    rows = run_scenario_once(
        benchmark,
        "fig10-rollback",
        title="Figure 10 (g, h) — rollback attack",
        faulty_counts=pick((0, 2, 4), (0, 1, 4, 7, 10)),
        n=pick(16, 32),
        duration=pick(0.4, 1.0),
        warmup=pick(0.1, 0.2),
    )
    faulty_counts = sorted({row["faulty_leaders"] for row in rows})
    clean, attacked = faulty_counts[0], faulty_counts[-1]

    def row_for(protocol, count):
        return next(
            row for row in rows if row["protocol"] == protocol and row["faulty_leaders"] == count
        )

    # Without slotting the attack forces real rollbacks and costs throughput.
    assert row_for("hotstuff-1", attacked)["rollbacks"] > 0
    assert (
        row_for("hotstuff-1", attacked)["throughput_tps"]
        < 0.9 * row_for("hotstuff-1", clean)["throughput_tps"]
    )
    # With slotting the attack is confined and has minimal impact.
    assert row_for("hotstuff-1-slotting", attacked)["rollbacks"] == 0
    assert (
        row_for("hotstuff-1-slotting", attacked)["throughput_tps"]
        > 0.85 * row_for("hotstuff-1-slotting", clean)["throughput_tps"]
    )
