"""Crash-recovery latency: restart-to-first-commit across fault presets.

Runs the chaos scenario (kill a follower, kill the leader mid-speculation)
in simulation and one crash/restart on the live asyncio runtime, and records
the restart-to-first-commit recovery latency into the pytest-benchmark JSON
(``extra_info``) so the trajectory tracks how recovery cost evolves.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.executor import execute_scenario
from repro.experiments.scenarios import scenario_spec
from repro.faults.plan import FaultPlan
from repro.live.deploy import run_live_experiment

from benchmarks.conftest import pick, run_series_once


def recovery_series(
    protocols=("hotstuff-1", "hotstuff-2"),
    faults=("kill-replica", "kill-leader"),
    n=4,
    batch_size=100,
    duration=0.8,
    warmup=0.1,
    seed=1,
    repeats=1,
    jobs=None,
):
    """Chaos scenario rows (one per fault preset × protocol) plus a live point."""
    rows = execute_scenario(
        scenario_spec(
            "chaos-recovery",
            protocols=protocols,
            faults=faults,
            n=n,
            batch_size=batch_size,
            duration=duration,
            warmup=warmup,
            seed=seed,
            repeats=repeats,
        ),
        jobs=jobs,
    )
    plan = FaultPlan.single_crash(1, at=0.5, down_for=0.4)
    live = run_live_experiment(
        ExperimentSpec(
            protocol="hotstuff-1",
            mode="live",
            n=n,
            batch_size=10,
            duration=15.0,
            warmup=0.2,
            seed=seed,
            view_timeout=0.05,
            faults=plan.to_dict(),
        ),
        target_ops=pick(1200, 5000),
    )
    rows.append(live.to_row(fault="kill-replica (live)"))
    return rows


def test_recovery_time(benchmark):
    """Every crashed replica rejoins and commits; recovery latencies land in
    the bench JSON trajectory."""
    rows = run_series_once(
        benchmark,
        recovery_series,
        title="Crash recovery — restart-to-first-commit latency",
        duration=pick(0.8, 2.0),
    )
    recoveries = {}
    for row in rows:
        assert row.get("prefix_ok") is True, f"prefix diverged: {row}"
        if "recovery_ms" in row:
            key = f"{row['protocol']}/{row['fault']}"
            recoveries[key] = row["recovery_ms"]
    assert recoveries, "no recovery measurements produced"
    for key, recovery_ms in recoveries.items():
        assert recovery_ms > 0, f"{key} never recovered"
        benchmark.extra_info[f"recovery_ms[{key}]"] = recovery_ms
    benchmark.extra_info["max_recovery_ms"] = max(recoveries.values())
