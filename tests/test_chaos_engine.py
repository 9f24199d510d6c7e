"""Chaos engine: fault plans, crash/restart recovery in sim and live mode,
scenario-engine integration and the ``repro chaos`` CLI."""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_scenario
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.spec import ScenarioSpec
from repro.faults.plan import PRESETS, FaultEvent, FaultPlan, chaos_preset, load_plan
from repro.live.deploy import run_live_experiment


def committed_chains(replicas):
    return [
        [block.block_hash for block in replica.ledger.committed.blocks()]
        for replica in replicas
    ]


def assert_identical_prefixes(replicas):
    chains = committed_chains(replicas)
    reference = max(chains, key=len)
    assert len(reference) > 0
    for chain in chains:
        assert chain == reference[: len(chain)]
    return chains


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=[
                FaultEvent(at=0.2, action="crash", replica=1),
                FaultEvent(at=0.5, action="restart", replica=1),
                FaultEvent(at=0.3, action="partition", groups=((0, 1), (2, 3))),
                FaultEvent(at=0.6, action="heal"),
            ]
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan
        # events are kept sorted by time
        assert [event.at for event in rebuilt.events] == [0.2, 0.3, 0.5, 0.6]

    def test_load_plan_from_file(self, tmp_path):
        path = os.path.join(tmp_path, "plan.json")
        with open(path, "w") as handle:
            handle.write(FaultPlan.single_crash(2, 0.1, 0.2).to_json())
        plan = load_plan(path)
        assert [event.action for event in plan.events] == ["crash", "restart"]
        assert plan.events[0].replica == 2

    def test_validate_accepts_well_formed_plans(self):
        FaultPlan.single_crash(1, 0.1, 0.1).validate(4)
        FaultPlan.leader_crash(0.1, 0.1).validate(4)
        FaultPlan.cascade([0, 1], 0.1, 0.05, 0.2).validate(4)
        FaultPlan.partition_heal([0, 1, 2], [3], 0.1, 0.3).validate(4)

    @pytest.mark.parametrize(
        "events, message",
        [
            ([FaultEvent(at=0.1, action="explode", replica=0)], "unknown fault action"),
            ([FaultEvent(at=0.1, action="crash", replica=9)], "not a replica id"),
            ([FaultEvent(at=0.1, action="restart", replica=0)], "without a prior crash"),
            (
                [
                    FaultEvent(at=0.1, action="crash", replica=0),
                    FaultEvent(at=0.2, action="crash", replica=0),
                ],
                "already down",
            ),
            ([FaultEvent(at=0.1, action="resume", replica=0)], "without a prior pause"),
            (
                [FaultEvent(at=0.1, action="partition", groups=((0, 1), (1, 2)))],
                "overlap",
            ),
            ([FaultEvent(at=-0.1, action="crash", replica=0)], "must be >= 0"),
        ],
    )
    def test_validate_rejects_malformed_plans(self, events, message):
        with pytest.raises(ConfigurationError, match=message):
            FaultPlan(events=events).validate(4)

    def test_leader_target_limited_to_crash_restart(self):
        plan = FaultPlan(events=[FaultEvent(at=0.1, action="pause", replica="leader")])
        with pytest.raises(ConfigurationError, match="only supports crash/restart"):
            plan.validate(4)

    def test_live_mode_rejects_network_shape_faults(self):
        plan = FaultPlan.partition_heal([0, 1, 2], [3], 0.1, 0.3)
        with pytest.raises(ConfigurationError, match="simulation-only"):
            plan.validate(4, mode="live")
        FaultPlan.single_crash(1, 0.1, 0.1).validate(4, mode="live")

    def test_presets_cover_the_catalogue(self):
        assert set(PRESETS) == {
            "kill-replica",
            "kill-leader",
            "cascade",
            "partition-heal",
            "blackout",
        }
        for name in PRESETS:
            plan = chaos_preset(name, n=7, at=0.2, down_for=0.1)
            plan.validate(7)
            assert len(plan) >= 1
        with pytest.raises(ConfigurationError, match="unknown chaos preset"):
            chaos_preset("meteor-strike", n=4, at=0.1, down_for=0.1)

    def test_preset_timing_defaults_to_fractions_of_the_duration(self):
        # Left out, the first fault fires at 30 % of the run and lasts 15 %.
        plan = chaos_preset("kill-replica", n=4, duration=0.8)
        assert plan.to_dict() == {"events": [
            {"at": 0.24, "action": "crash", "replica": 1},
            {"at": 0.36, "action": "restart", "replica": 1},
        ]}
        explicit = chaos_preset("kill-replica", n=4, at=0.1, down_for=0.2, duration=0.8)
        assert [event.at for event in explicit.events] == [0.1, pytest.approx(0.3)]

    def test_spec_validation_normalizes_and_checks_faults(self):
        spec = ExperimentSpec(
            protocol="hotstuff-1",
            n=4,
            faults=FaultPlan.single_crash(1, 0.1, 0.1),  # instance, not dict
        )
        spec.validate()
        assert isinstance(spec.faults, dict)
        bad = ExperimentSpec(
            protocol="hotstuff-1", n=4,
            faults={"events": [{"at": 0.1, "action": "crash", "replica": 99}]},
        )
        with pytest.raises(ConfigurationError):
            bad.validate()


class TestSimChaos:
    BASE = dict(protocol="hotstuff-1", n=4, batch_size=10, duration=0.6, warmup=0.1)

    def _run(self, plan, **overrides):
        params = dict(self.BASE)
        params.update(overrides)
        return run_experiment(ExperimentSpec(faults=plan.to_dict(), **params))

    def test_killed_replica_rejoins_and_prefixes_agree(self):
        result = self._run(FaultPlan.single_crash(1, at=0.15, down_for=0.1))
        chains = assert_identical_prefixes(result.replicas)
        chaos = result.chaos
        assert chaos["crashes"] == chaos["restarts"] == chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True
        incident = chaos["incidents"][0]
        assert incident["replica"] == 1
        assert incident["recovery_s"] > 0
        # the rejoined replica caught the cluster's committed prefix back up
        assert len(chains[1]) > 0
        assert max(len(c) for c in chains) - len(chains[1]) <= 5

    def test_leader_kill_mid_speculation_recovers(self):
        result = self._run(FaultPlan.leader_crash(at=0.2, down_for=0.1))
        assert_identical_prefixes(result.replicas)
        chaos = result.chaos
        assert chaos["recovered"] == 1
        # HotStuff-1 speculates, so the killed leader had speculated-but-
        # uncommitted operations in flight; they are counted as lost.
        assert chaos["ops_lost_to_rollback"] > 0
        assert result.summary.speculative_executions > 0

    @pytest.mark.parametrize(
        "protocol", ["hotstuff", "hotstuff-2", "hotstuff-1-slotting", "hotstuff-1-basic"]
    )
    def test_every_protocol_survives_a_crash(self, protocol):
        result = self._run(
            FaultPlan.single_crash(2, at=0.15, down_for=0.1), protocol=protocol
        )
        assert_identical_prefixes(result.replicas)
        assert result.chaos["recovered"] == 1
        assert result.chaos["prefix_agreement"] is True

    def test_cascade_restarts_every_victim(self):
        result = self._run(
            FaultPlan.cascade([0, 1], start=0.12, down_for=0.06, gap=0.15),
            duration=0.8,
        )
        assert_identical_prefixes(result.replicas)
        assert result.chaos["crashes"] == 2
        assert result.chaos["recovered"] == 2

    def test_partition_heals_and_cluster_reconverges(self):
        result = self._run(
            FaultPlan.partition_heal([0, 1, 2], [3], at=0.15, heal_at=0.35),
            duration=0.8,
        )
        chains = assert_identical_prefixes(result.replicas)
        # the minority side caught back up after the heal
        assert max(len(c) for c in chains) - min(len(c) for c in chains) <= 5

    def test_restarted_replica_keeps_its_configured_behavior(self):
        from repro.consensus.byzantine import TailForkingBehavior

        behavior = TailForkingBehavior()
        result = run_experiment(
            ExperimentSpec(
                faults=FaultPlan.single_crash(2, at=0.15, down_for=0.1).to_dict(),
                behaviors={2: behavior},
                **self.BASE,
            )
        )
        restarted = next(r for r in result.replicas if r.replica_id == 2)
        assert restarted.behavior is behavior  # adversary model survives restart
        assert restarted.behavior.is_byzantine

    def test_restarted_replica_is_a_fresh_object_with_recovered_ledger(self):
        result = self._run(FaultPlan.single_crash(1, at=0.15, down_for=0.1))
        restarted = next(r for r in result.replicas if r.replica_id == 1)
        assert restarted.halted is False
        assert restarted.store is not None
        assert len(restarted.ledger.committed.blocks()) > 0

    def test_chaos_columns_flow_into_report_rows(self):
        result = self._run(FaultPlan.single_crash(1, at=0.15, down_for=0.1))
        row = result.to_row()
        assert row["prefix_ok"] is True
        assert row["ops_lost"] >= 0
        assert row["recovery_ms"] > 0

    def test_storage_dir_is_safe_to_reuse_across_runs(self, tmp_path):
        """A second run against the same storage_dir must start from genesis,
        not replay the first run's history into fresh replicas."""
        plan = FaultPlan.single_crash(1, at=0.12, down_for=0.08)
        for _ in range(2):
            result = run_experiment(
                ExperimentSpec(
                    faults=plan.to_dict(), storage_dir=str(tmp_path), **self.BASE
                )
            )
            assert result.chaos["prefix_agreement"] is True
            assert result.chaos["recovered"] == 1

    def test_fault_free_runs_have_no_chaos_section(self):
        result = run_experiment(ExperimentSpec(**self.BASE))
        assert result.chaos is None
        assert "recovery_ms" not in result.to_row()

    def test_blackout_preset_takes_down_more_than_f_and_recovers(self):
        """The regression scenario for the view-resync stall: f + 1 of n = 4
        replicas crash simultaneously, and after the restarts the whole
        cluster must re-synchronise views and commit new operations."""
        plan = chaos_preset("blackout", n=4, at=0.15, down_for=0.2)
        assert len(plan.touched_replicas()) == 2  # f + 1 > f for n = 4
        crash_times = [e.at for e in plan.events if e.action == "crash"]
        assert len(set(crash_times)) == 1  # simultaneous, not cascaded
        plan.validate(4)  # > f simultaneous down is a first-class plan
        result = self._run(plan, duration=1.2)
        chaos = result.chaos
        assert chaos["crashes"] == chaos["restarts"] == chaos["recovered"] == 2
        assert chaos["prefix_agreement"] is True
        assert chaos["skipped_events"] == 0
        assert chaos["wal_vote_violations"] == []
        assert_identical_prefixes(result.replicas)

    def test_chaos_row_surfaces_wal_ok_and_skip_columns(self):
        result = self._run(chaos_preset("blackout", n=4, at=0.15, down_for=0.15), duration=1.0)
        row = result.to_row()
        assert row["wal_ok"] is True
        assert row["events_skipped"] == 0


class TestSkippedEventSurfacing:
    """Runtime target collisions must be reported as errors, not dropped."""

    class _Adapter:
        def __init__(self):
            self.down = set()

        def crash(self, replica_id):
            self.down.add(replica_id)
            return 0

        def restart(self, replica_id):
            self.down.discard(replica_id)
            return None

        def is_down(self, replica_id):
            return replica_id in self.down

    def _controller(self):
        from repro.faults.injector import ChaosController
        from repro.sim.scheduler import Simulator

        return ChaosController(FaultPlan(), Simulator(), self._Adapter())

    def test_double_crash_is_recorded_as_skipped(self):
        controller = self._controller()
        assert controller.trigger_crash(1) is True
        assert controller.trigger_crash(1) is False  # already down -> skipped
        report = controller.report([])
        assert report["crashes"] == 1
        assert report["skipped_events"] == 1
        assert report["skipped"][0]["skipped"] == "already down"

    def test_restart_of_running_replica_is_recorded_as_skipped(self):
        controller = self._controller()
        assert controller.trigger_restart(2) is None  # never crashed -> skipped
        report = controller.report([])
        assert report["skipped_events"] == 1
        assert report["skipped"][0]["skipped"] == "not down"

    def test_planned_events_the_run_ends_before_are_reported_as_skipped(self):
        from repro.faults.injector import ChaosController
        from repro.sim.scheduler import Simulator

        plan = FaultPlan.single_crash(1, 5.0, 0.1)
        report = ChaosController(plan, Simulator(), self._Adapter()).report([])
        assert report["crashes"] == 0
        assert report["skipped_events"] == 2
        assert [entry["action"] for entry in report["skipped"]] == ["crash", "restart"]
        assert {entry["skipped"] for entry in report["skipped"]} == {"never fired"}


class TestChaosVerdict:
    """``chaos_problems``: the one health verdict of ``repro chaos`` and ``repro fuzz``."""

    HEALTHY = {
        "prefix_ok": True, "wal_ok": True, "events_skipped": 0,
        "crashes": 3, "recovered": 2, "superseded": 1,
    }

    def test_a_healthy_row_has_no_problems(self):
        from repro.experiments.report import chaos_problems

        # A superseded incident (re-crashed before its first commit) is not a failure.
        assert chaos_problems(self.HEALTHY) == []

    def test_every_failure_is_named(self):
        from repro.experiments.report import chaos_problems

        row = {**self.HEALTHY, "prefix_ok": False, "wal_ok": False,
               "events_skipped": 2, "recovered": 0}
        problems = chaos_problems(row)
        assert len(problems) == 4
        assert problems[0] == "prefix disagreement"
        assert problems[1] == "WAL vote-dedup violation"
        assert problems[2].startswith("2 planned event(s) skipped or never fired")
        assert problems[3] == "2 crashed replica(s) never committed again"


class TestChaosScenarioEngine:
    def test_chaos_kind_expands_and_runs(self):
        scenario = ScenarioSpec(
            name="chaos-smoke",
            kind="chaos",
            protocols=("hotstuff-1",),
            axes={"fault": ["kill-replica", "kill-leader"]},
            params={"n": 4, "batch_size": 10, "duration": 0.5, "warmup": 0.1},
        )
        rows = execute_scenario(scenario)
        assert [row["fault"] for row in rows] == ["kill-replica", "kill-leader"]
        for row in rows:
            assert row["prefix_ok"] is True
            assert row["recovery_ms"] > 0

    def test_inline_plan_dict_as_axis_value(self):
        plan = FaultPlan.single_crash(2, at=0.12, down_for=0.08).to_dict()
        scenario = ScenarioSpec(
            name="chaos-inline",
            kind="chaos",
            protocols=("hotstuff-1",),
            axes={"fault": [plan]},
            params={"n": 4, "batch_size": 10, "duration": 0.5, "warmup": 0.1},
        )
        rows = execute_scenario(scenario)
        assert rows[0]["fault"] == "custom"
        assert rows[0]["prefix_ok"] is True

    def test_faults_param_rides_any_scenario_kind(self):
        scenario = ScenarioSpec(
            name="scalability-chaos",
            kind="scalability",
            protocols=("hotstuff-1",),
            axes={"n": [4]},
            params={
                "batch_size": 10,
                "duration": 0.5,
                "warmup": 0.1,
                "faults": FaultPlan.single_crash(1, 0.15, 0.1).to_dict(),
            },
        )
        rows = execute_scenario(scenario)
        assert rows[0]["prefix_ok"] is True
        assert rows[0]["recovery_ms"] > 0


class TestRepeatAggregation:
    def test_metric_column_missing_from_first_repeat_still_aggregates(self):
        from repro.experiments.executor import aggregate_records
        from repro.experiments.spec import RunRecord

        def record(index, row, metrics):
            return RunRecord(
                index=index, group=0, scenario="s", repeat=index, seed=index,
                row=row, metrics=metrics,
            )

        base = {"protocol": "hotstuff-1", "throughput_tps": 100.0}
        records = [
            record(0, dict(base), {"throughput_tps": 100.0}),  # never recovered
            record(1, {**base, "recovery_ms": 12.0}, {"throughput_tps": 100.0, "recovery_ms": 12.0}),
            record(2, {**base, "recovery_ms": 18.0}, {"throughput_tps": 100.0, "recovery_ms": 18.0}),
        ]
        [row] = aggregate_records(records)
        assert row["recovery_ms"] == 15.0  # mean of the repeats that measured it
        assert row["recovery_ms_std"] == 3.0
        assert row["repeats"] == 3

    def test_prefix_ok_folds_with_all_over_repeats(self):
        from repro.experiments.executor import aggregate_records
        from repro.experiments.spec import RunRecord

        def record(index, prefix_ok):
            return RunRecord(
                index=index, group=0, scenario="s", repeat=index, seed=index,
                row={"protocol": "hotstuff-1", "prefix_ok": prefix_ok}, metrics={},
            )

        [row] = aggregate_records([record(0, True), record(1, False), record(2, True)])
        assert row["prefix_ok"] is False  # one divergent repeat must surface


class TestLiveChaos:
    def test_live_crash_restart_reaches_identical_prefixes(self):
        plan = FaultPlan.single_crash(1, at=0.5, down_for=0.4)
        # The run ends on the clock, 1.1s after the restart at 0.9s, not at an
        # operation count: a count sized for one host's throughput can be
        # reached before the restart fires on a faster one.
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=10,
            duration=2.0, warmup=0.2, view_timeout=0.05, seed=11,
            faults=plan.to_dict(),
        )
        result = run_live_experiment(spec)
        assert_identical_prefixes(result.replicas)
        chaos = result.chaos
        assert chaos["crashes"] == chaos["restarts"] == chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True
        assert chaos["incidents"][0]["recovery_s"] > 0


class TestLiveActionCapabilityGuard:
    """Sim-only fault actions must fail loudly on the live runtime, not
    vanish into the event loop (the swallowed-NotImplementedError bug)."""

    def test_adapter_supports_network_shape_actions_only_over_fault_rules(self):
        from repro.faults.injector import DeploymentAdapter
        from repro.faults.plan import ACTIONS, LIVE_ACTIONS
        from repro.live.deploy import open_transports
        from repro.live.runtime import WallClock
        from repro.net.network import SimNetwork
        from repro.sim.scheduler import Simulator

        async def live_actions():
            clock = WallClock(seed=1)
            transports = open_transports(clock, [0, 1])  # unbound: no sockets
            return DeploymentAdapter(None, {}, clock, transports.__getitem__).supported_actions

        assert tuple(asyncio.run(live_actions())) == LIVE_ACTIONS == ("crash", "restart")
        sim = Simulator()
        network = SimNetwork(sim)
        adapter = DeploymentAdapter(None, {}, sim, lambda replica_id: network)
        assert tuple(adapter.supported_actions) == ACTIONS

    def test_install_rejects_actions_the_adapter_cannot_fire(self):
        """A programmatic plan that skips spec validation must still be
        stopped at install time, before any timer is armed."""
        from repro.faults.injector import ChaosController, DeploymentAdapter
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        # An endpoint without network fault rules, as a live transport is.
        adapter = DeploymentAdapter(None, {}, sim, lambda replica_id: object())
        plan = FaultPlan(events=[FaultEvent(at=0.1, action="pause", replica=1)])
        controller = ChaosController(plan, sim, adapter)
        with pytest.raises(ConfigurationError, match="pause.*not.*supported"):
            controller.install([])

    def test_live_run_with_sim_only_plan_fails_at_validation(self):
        plan = FaultPlan.partition_heal([0, 1, 2], [3], at=0.2, heal_at=0.5)
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, duration=1.0,
            faults=plan.to_dict(),
        )
        with pytest.raises(ConfigurationError, match="partition"):
            run_live_experiment(spec, target_ops=10)

    def test_chaos_cli_rejects_sim_only_plan_in_live_mode(self, capsys):
        exit_code = main(
            ["chaos", "partition-heal", "--replicas", "4",
             "--duration", "1.0", "--mode", "live"]
        )
        assert exit_code == 2
        assert "partition" in capsys.readouterr().err

    def test_emit_plan_validates_before_printing(self, capsys):
        """--emit-plan used to skip validation entirely; a live-mode emit of
        a sim-only plan must fail instead of printing an unusable plan."""
        exit_code = main(
            ["chaos", "partition-heal", "--replicas", "4",
             "--duration", "1.0", "--mode", "live", "--emit-plan"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""  # nothing emitted
        assert "partition" in captured.err


class TestChaosCli:
    def test_emit_plan_prints_json(self, capsys):
        exit_code = main(
            ["chaos", "kill-leader", "--replicas", "4", "--duration", "1.0", "--emit-plan"]
        )
        assert exit_code == 0
        plan = FaultPlan.from_json(capsys.readouterr().out)
        assert [event.action for event in plan.events] == ["crash", "restart"]
        assert plan.events[0].replica == "leader"

    def test_chaos_subcommand_runs_and_reports_recovery(self, capsys):
        exit_code = main(
            [
                "chaos", "kill-replica",
                "--replicas", "4", "--batch", "10",
                "--duration", "0.5", "--warmup", "0.1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos & recovery" in output
        assert "recovery_ms" in output

    def test_run_subcommand_accepts_faults_file(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "plan.json")
        with open(path, "w") as handle:
            handle.write(FaultPlan.single_crash(1, 0.12, 0.08).to_json())
        exit_code = main(
            [
                "run", "--protocol", "hotstuff-1", "--replicas", "4",
                "--batch", "10", "--duration", "0.5", "--warmup", "0.1",
                "--faults", path,
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos & recovery" in output

    def test_unknown_preset_is_a_configuration_error(self, capsys):
        exit_code = main(["chaos", "black-swan", "--replicas", "4"])
        assert exit_code == 2
        assert "unknown chaos preset" in capsys.readouterr().err
