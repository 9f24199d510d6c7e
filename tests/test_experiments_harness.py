"""Tests for the experiment runner, scenario builders and report rendering."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import execute_scenario
from repro.experiments.report import format_series, pivot, print_series
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import scenario_spec


class TestRunner:
    def test_run_returns_summary_and_stats(self):
        result = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", n=4, batch_size=10, duration=0.15, warmup=0.02)
        )
        assert result.summary.protocol == "hotstuff-1"
        assert result.summary.committed_txns > 0
        assert result.network_stats["messages_sent"] > 0
        assert result.latency_ms > 0
        assert len(result.replicas) == 4

    def test_seeded_runs_are_reproducible(self):
        spec = dict(protocol="hotstuff-2", n=4, batch_size=10, duration=0.15, warmup=0.02, seed=99)
        first = run_experiment(ExperimentSpec(**spec))
        second = run_experiment(ExperimentSpec(**spec))
        assert first.summary.committed_txns == second.summary.committed_txns
        assert first.summary.avg_latency == pytest.approx(second.summary.avg_latency)

    def test_explicit_client_count_is_respected(self):
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1", n=4, batch_size=10, duration=0.1, warmup=0.02, num_clients=7
            )
        )
        assert result.client_pool.num_clients == 7

    def test_geo_spec_places_clients_near_local_replicas(self):
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                n=4,
                batch_size=10,
                duration=0.4,
                warmup=0.1,
                regions=["virginia", "london"],
                view_timeout=0.5,
                delta=0.05,
            )
        )
        # Replicas 0 and 2 are in Virginia (round-robin placement), and the
        # client pool only targets co-located replicas.
        assert set(result.client_pool.target_replicas) == {0, 2}
        assert result.summary.committed_txns > 0

    def test_live_geo_spec_places_clients_near_local_replicas(self):
        # The live twin of the test above: the same spec, over sockets, picks
        # the same submission targets (they are derived once, in ``prepare``).
        from repro.live.deploy import run_live_experiment

        result = run_live_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                mode="live",
                n=4,
                batch_size=10,
                duration=10.0,
                warmup=0.05,
                regions=["virginia", "london"],
                view_timeout=2.0,
            ),
            target_ops=40,
        )
        assert set(result.client_pool.target_replicas) == {0, 2}
        assert result.summary.committed_txns > 0

    def test_broadcasting_clients_reach_every_region(self):
        # A distributed mempool needs every request at every replica, so the
        # co-location preference does not apply.
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                n=4,
                batch_size=10,
                duration=0.4,
                warmup=0.1,
                regions=["virginia", "london"],
                view_timeout=0.5,
                delta=0.05,
                distributed_mempool=True,
            )
        )
        assert set(result.client_pool.target_replicas) == {0, 1, 2, 3}


class TestSpecValidation:
    def test_valid_spec_passes_and_chains(self):
        spec = ExperimentSpec(protocol="hotstuff-1", n=4, duration=0.2, warmup=0.05)
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"protocol": "paxos"}, "unknown protocol"),
            ({"n": 3}, "n must be >= 4"),
            ({"batch_size": 0}, "batch_size"),
            ({"duration": 0.0}, "duration"),
            ({"duration": 0.1, "warmup": 0.1}, "warmup"),
            ({"warmup": -0.1}, "warmup"),
            ({"workload": "tatp"}, "unknown workload"),
            ({"view_timeout": 0.0}, "view_timeout"),
        ],
    )
    def test_bad_specs_raise_configuration_error(self, kwargs, fragment):
        defaults = dict(protocol="hotstuff-1", n=4, duration=0.3, warmup=0.05)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError, match=fragment):
            ExperimentSpec(**defaults).validate()

    def test_run_experiment_validates_at_entry(self):
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentSpec(protocol="hotstuff-1", n=2, duration=0.2))

    def test_to_row_includes_extras(self):
        result = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", n=4, batch_size=10, duration=0.15, warmup=0.02)
        )
        row = result.to_row(n=4, variant="x")
        assert row["protocol"] == "hotstuff-1"
        assert row["n"] == 4 and row["variant"] == "x"
        assert row["throughput_tps"] == round(result.throughput, 1)


class TestScenarioBuilders:
    def test_scalability_series_rows_have_expected_columns(self):
        rows = execute_scenario(
            scenario_spec(
                "fig8-scalability",
                protocols=("hotstuff-2", "hotstuff-1"),
                replica_counts=(4,),
                duration=0.15,
                warmup=0.03,
            )
        )
        assert len(rows) == 2
        assert {"protocol", "n", "throughput_tps", "avg_latency_ms"} <= set(rows[0])

    def test_batching_series_sweeps_batch_sizes(self):
        rows = execute_scenario(
            scenario_spec(
                "fig8-batching",
                protocols=("hotstuff-1",),
                batch_sizes=(10, 50),
                n=4,
                duration=0.15,
                warmup=0.03,
            )
        )
        assert [row["batch_size"] for row in rows] == [10, 50]

    def test_latency_breakdown_reports_reductions(self):
        rows = execute_scenario(
            scenario_spec(
                "latency-breakdown",
                protocols=("hotstuff", "hotstuff-2", "hotstuff-1"),
                replica_counts=(4,),
                batch_size=20,
                duration=0.2,
                warmup=0.05,
            )
        )
        reductions = [row for row in rows if "latency_reduction_pct" in row]
        assert len(reductions) == 2
        assert all(row["latency_reduction_pct"] > 0 for row in reductions)

    def test_leader_slowness_series_runs(self):
        rows = execute_scenario(
            scenario_spec(
                "fig10-slowness",
                protocols=("hotstuff-1",),
                slow_leader_counts=(0, 1),
                view_timeouts=(0.01,),
                n=4,
                batch_size=10,
                duration=0.2,
                warmup=0.05,
            )
        )
        assert len(rows) == 2
        slow = {row["slow_leaders"]: row["throughput_tps"] for row in rows}
        assert slow[1] <= slow[0]

    def test_tail_forking_series_runs(self):
        rows = execute_scenario(
            scenario_spec(
                "fig10-tailfork",
                protocols=("hotstuff-1",),
                faulty_counts=(0, 1),
                n=4,
                batch_size=10,
                duration=0.2,
                warmup=0.05,
            )
        )
        assert len(rows) == 2

    def test_rollback_series_includes_rollback_counts(self):
        rows = execute_scenario(
            scenario_spec(
                "fig10-rollback",
                protocols=("hotstuff-1",),
                faulty_counts=(1,),
                n=7,
                batch_size=10,
                duration=0.3,
                warmup=0.05,
            )
        )
        assert "rollbacks" in rows[0]

    def test_slotting_ablation_covers_four_variants(self):
        rows = execute_scenario(
            scenario_spec(
                "ablation-slotting",
                slow_leader_count=1,
                n=4,
                batch_size=10,
                duration=0.2,
                warmup=0.05,
            )
        )
        assert len(rows) == 4
        assert {row["variant"] for row in rows} == {
            "speculation on, no slotting",
            "speculation off, no slotting",
            "speculation on, slotting",
            "speculation off, slotting",
        }


class TestReport:
    def test_format_series_renders_all_columns(self):
        rows = [
            {"protocol": "hotstuff-1", "n": 4, "throughput_tps": 100.0},
            {"protocol": "hotstuff-2", "n": 4, "throughput_tps": 99.0, "extra": "x"},
        ]
        text = format_series(rows, title="Figure 8 (a)")
        assert "Figure 8 (a)" in text
        assert "hotstuff-1" in text
        assert "extra" in text

    def test_format_series_empty(self):
        assert "(no data)" in format_series([], title="empty")

    def test_print_series_writes_to_stdout(self, capsys):
        print_series([{"protocol": "hotstuff-1", "throughput_tps": 10}], title="t")
        captured = capsys.readouterr()
        assert "hotstuff-1" in captured.out

    def test_pivot_groups_by_protocol(self):
        rows = [
            {"protocol": "a", "n": 4, "throughput_tps": 1.0},
            {"protocol": "a", "n": 8, "throughput_tps": 2.0},
            {"protocol": "b", "n": 4, "throughput_tps": 3.0},
        ]
        table = pivot(rows, index="n", metric="throughput_tps")
        assert table["a"] == {4: 1.0, 8: 2.0}
        assert table["b"] == {4: 3.0}
