"""Figure 10 (a-d): impact of rational slow leaders, with 10 ms and 100 ms view timers."""

from __future__ import annotations

from benchmarks.conftest import pick, run_scenario_once


def test_fig10_leader_slowness(benchmark):
    """Reproduce Fig. 10 (a-d): slow leaders hurt every protocol except slotted HotStuff-1."""
    rows = run_scenario_once(
        benchmark,
        "fig10-slowness",
        title="Figure 10 (a-d) — leader slowness",
        slow_leader_counts=pick((0, 4), (0, 1, 4, 7, 10)),
        view_timeouts=pick((0.010,), (0.010, 0.100)),
        n=pick(16, 32),
        duration=pick(0.4, 1.0),
        warmup=pick(0.1, 0.2),
    )
    for timeout_ms in {row["view_timeout_ms"] for row in rows}:
        subset = [row for row in rows if row["view_timeout_ms"] == timeout_ms]
        slow_counts = sorted({row["slow_leaders"] for row in subset})
        clean, attacked = slow_counts[0], slow_counts[-1]

        def tput(protocol, count):
            return next(
                row["throughput_tps"]
                for row in subset
                if row["protocol"] == protocol and row["slow_leaders"] == count
            )

        # Non-slotted HotStuff-1 loses a large fraction of its throughput...
        assert tput("hotstuff-1", attacked) < 0.8 * tput("hotstuff-1", clean)
        # ...while the slotted variant stays within a few percent of fault-free.
        assert tput("hotstuff-1-slotting", attacked) > 0.85 * tput("hotstuff-1-slotting", clean)
