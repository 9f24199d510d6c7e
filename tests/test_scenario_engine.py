"""Tests for the declarative scenario engine: specs, expansion, execution.

Covers the three satellite requirements — suite→grid expansion round-trips
through JSON, serial and parallel execution are bit-identical for equal
seeds, and repeat aggregation computes the right mean/stddev — plus the
registry and CLI glue.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import (
    ParallelRunner,
    SerialRunner,
    aggregate_records,
    execute_scenario,
    execute_suite,
    make_runner,
)
from repro.experiments.report import format_series, merge_uncertainty
from repro.experiments.scenarios import (
    SCENARIOS,
    default_suite,
    scalability_spec,
    scenario_spec,
    slotting_ablation_spec,
)
from repro.experiments.spec import (
    RunRecord,
    ScenarioSpec,
    SuiteSpec,
    expand_scenario,
    expand_suite,
    load_suite,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        protocols=("hotstuff-1", "hotstuff-2"),
        replica_counts=(4,),
        batch_size=10,
        duration=0.15,
        warmup=0.03,
    )
    defaults.update(overrides)
    return scalability_spec(**defaults)


class TestSpecSerialization:
    def test_scenario_round_trips_through_dict(self):
        spec = tiny_spec(repeats=2, seed=7)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_suite_round_trips_through_json(self):
        suite = SuiteSpec(
            name="roundtrip",
            scenarios=[tiny_spec(), slotting_ablation_spec(n=4, duration=0.2)],
            repeats=3,
            seed=11,
            overrides={"duration": 0.1},
        )
        clone = SuiteSpec.from_json(suite.to_json())
        assert clone == suite
        # ... and the expansion of the clone is identical run for run.
        assert expand_suite(clone) == expand_suite(suite)

    def test_json_figure_reference_resolves_through_registry(self):
        payload = json.dumps(
            {
                "name": "ref-suite",
                "scenarios": [
                    {"figure": "fig8-scalability", "overrides": {"replica_counts": [4]}}
                ],
            }
        )
        suite = SuiteSpec.from_json(payload)
        assert suite.scenarios[0].kind == "scalability"
        assert suite.scenarios[0].axes == {"n": [4]}

    def test_load_suite_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid suite config"):
            load_suite(str(path))

    def test_scenario_dict_without_name_or_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({"kind": "scalability"})


class TestExpansion:
    def test_expansion_order_is_point_major_protocol_repeat(self):
        spec = tiny_spec(replica_counts=(4, 8), repeats=2, seed=5)
        requests = expand_scenario(spec)
        assert len(requests) == 2 * 2 * 2
        assert [r.index for r in requests] == list(range(8))
        assert [(r.point["n"], r.protocol, r.repeat) for r in requests] == [
            (4, "hotstuff-1", 0), (4, "hotstuff-1", 1),
            (4, "hotstuff-2", 0), (4, "hotstuff-2", 1),
            (8, "hotstuff-1", 0), (8, "hotstuff-1", 1),
            (8, "hotstuff-2", 0), (8, "hotstuff-2", 1),
        ]
        # Repeats share a group; distinct points/protocols never do.
        assert requests[0].group == requests[1].group
        assert len({r.group for r in requests}) == 4
        # Repeat r runs with seed + r.
        assert [r.seed for r in requests[:2]] == [5, 6]

    def test_suite_overrides_apply_to_every_scenario(self):
        suite = SuiteSpec(
            name="s",
            scenarios=[tiny_spec()],
            repeats=2,
            seed=42,
            overrides={"duration": 0.07},
        )
        requests = expand_suite(suite)
        assert all(r.params["duration"] == 0.07 for r in requests)
        assert {r.seed for r in requests} == {42, 43}

    def test_duplicate_scenario_names_rejected(self):
        suite = SuiteSpec(name="s", scenarios=[tiny_spec(), tiny_spec()])
        with pytest.raises(ConfigurationError, match="duplicate"):
            expand_suite(suite)

    def test_unknown_kind_fails_fast(self):
        spec = ScenarioSpec(name="x", kind="no-such-kind", protocols=("hotstuff-1",))
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            expand_scenario(spec)

    def test_num_runs_matches_expansion(self):
        spec = tiny_spec(replica_counts=(4, 8, 16), repeats=3)
        assert spec.num_runs() == len(expand_scenario(spec)) == 3 * 2 * 3


class TestExecution:
    def test_serial_and_parallel_runs_are_identical(self):
        spec = tiny_spec(repeats=2, seed=9)
        serial = execute_scenario(spec, jobs=1)
        parallel = execute_scenario(spec, jobs=3)
        assert serial == parallel

    def test_parallel_runner_preserves_request_order(self):
        spec = tiny_spec(replica_counts=(4, 8))
        requests = expand_scenario(spec)
        records = ParallelRunner(jobs=2).run(requests)
        assert [record.index for record in records] == [r.index for r in requests]

    def test_make_runner_picks_serial_for_one_job(self):
        assert isinstance(make_runner(None), SerialRunner)
        assert isinstance(make_runner(1), SerialRunner)
        assert isinstance(make_runner(2), ParallelRunner)

    def test_execute_suite_returns_rows_per_scenario(self):
        suite = SuiteSpec(
            name="two",
            scenarios=[
                tiny_spec(),
                slotting_ablation_spec(n=4, batch_size=10, duration=0.2, warmup=0.05),
            ],
        )
        results = execute_suite(suite)
        assert list(results) == ["fig8-scalability", "ablation-slotting"]
        assert len(results["fig8-scalability"]) == 2
        assert len(results["ablation-slotting"]) == 4

    def test_single_repeat_rows_have_no_aggregation_columns(self):
        rows = execute_scenario(tiny_spec())
        assert all("repeats" not in row for row in rows)
        assert all(not any(key.endswith("_std") for key in row) for row in rows)

    def test_repeat_rows_carry_mean_std_and_count(self):
        rows = execute_scenario(tiny_spec(repeats=3, seed=2))
        for row in rows:
            assert row["repeats"] == 3
            assert "throughput_tps_std" in row and row["throughput_tps_std"] >= 0.0


class TestAggregationMath:
    @staticmethod
    def record(index, group, throughput, latency):
        row = {
            "protocol": "hotstuff-1",
            "throughput_tps": throughput,
            "avg_latency_ms": latency,
            "n": 4,
        }
        return RunRecord(
            index=index, group=group, scenario="s", repeat=index, seed=index,
            row=row, metrics={"latency_ms": latency, "throughput": throughput},
        )

    def test_mean_and_population_stddev(self):
        records = [
            self.record(0, 0, 100.0, 4.0),
            self.record(1, 0, 200.0, 6.0),
            self.record(2, 0, 300.0, 8.0),
        ]
        (row,) = aggregate_records(records)
        assert row["throughput_tps"] == 200.0
        assert row["throughput_tps_std"] == pytest.approx(81.6, abs=0.05)
        assert row["avg_latency_ms"] == 6.0
        assert row["avg_latency_ms_std"] == pytest.approx(1.633, abs=0.001)
        assert row["repeats"] == 3
        assert row["n"] == 4  # non-metric columns pass through

    def test_groups_keep_first_appearance_order(self):
        records = [
            self.record(2, 1, 30.0, 3.0),
            self.record(0, 0, 10.0, 1.0),
            self.record(1, 0, 20.0, 2.0),
        ]
        rows = aggregate_records(records)
        assert [row["throughput_tps"] for row in rows] == [15.0, 30.0]

    def test_merge_uncertainty_renders_pm_cells(self):
        rows = [{"protocol": "p", "throughput_tps": 10.0, "throughput_tps_std": 1.5}]
        (merged,) = merge_uncertainty(rows)
        assert merged["throughput_tps"] == "10.0 ±1.5"
        assert "throughput_tps_std" not in merged
        text = format_series(rows, title="t")
        assert "±1.5" in text


class TestRegistry:
    def test_every_figure_has_a_factory(self):
        assert set(SCENARIOS) == {
            "fig8-scalability", "fig8-batching", "fig8-geo-ycsb", "fig8-geo-tpcc",
            "fig9-delay", "fig9-geo", "fig10-slowness", "fig10-tailfork",
            "fig10-rollback", "latency-breakdown", "ablation-slotting",
            "chaos-recovery", "chaos-fuzz", "snapshot-recovery",
        }
        for name in SCENARIOS:
            spec = scenario_spec(name)
            assert spec.name == name
            assert spec.num_runs() >= 4

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenario_spec("fig99-nope")

    def test_default_suite_passes_common_kwargs(self):
        suite = default_suite(names=("fig8-scalability", "ablation-slotting"), seed=9, repeats=2)
        assert [s.name for s in suite.scenarios] == ["fig8-scalability", "ablation-slotting"]
        assert all(s.seed == 9 and s.repeats == 2 for s in suite.scenarios)
