"""Crash-point fuzzing: plans, hook instrumentation, recovery invariants.

The invariants under test at every crash point (including torn-tail WAL
truncation mid-append):

* **never-vote-twice** — a replica's replayed WAL holds at most one vote
  record per ``(view, slot)``, across any number of crash/restart cycles;
* **committed-prefix agreement** — honest replicas' committed ledgers remain
  prefixes of each other.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.consensus.replica import (
    HOOK_AFTER_VOTE_WAL,
    HOOK_BEFORE_VOTE_WAL,
    HOOK_MID_CERT,
)
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_scenario
from repro.experiments.report import chaos_problems
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import chaos_fuzz_spec
from repro.faults.injector import wal_vote_violations
from repro.faults.plan import (
    CRASH_HOOKS,
    SNAPSHOT_HOOKS,
    HOOK_TORN_VOTE_WAL,
    FaultEvent,
    FaultPlan,
)
from repro.storage.backend import FileLogBackend, MemoryLogBackend
from repro.storage.store import ReplicaStore

BASE = dict(protocol="hotstuff-1", n=4, batch_size=10, duration=0.8, warmup=0.1)

point = FaultEvent.crash_point


def run_with(plan, **overrides):
    params = dict(BASE)
    # Snapshot hooks only fire on deployments that actually checkpoint.
    if any(event.hook in SNAPSHOT_HOOKS for event in plan.events):
        params["checkpoint_interval"] = 4
    params.update(overrides)
    return run_experiment(ExperimentSpec(faults=plan.to_dict(), **params))


class TestCrashPointPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=[
                point(replica=1, hook=HOOK_AFTER_VOTE_WAL, occurrence=5, down_for=0.1),
                point(replica=3, hook=HOOK_MID_CERT, occurrence=2, down_for=0.05),
            ]
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan
        assert rebuilt.touched_replicas() == {1, 3}
        # A crash point is an ordinary fault event, keyed by its hook, not a time.
        assert plan.to_dict()["events"][0] == {
            "action": "crash", "replica": 1, "hook": HOOK_AFTER_VOTE_WAL,
            "occurrence": 5, "down_for": 0.1,
        }

    @pytest.mark.parametrize(
        "point, message",
        [
            (point(0, "explode", 1, 0.1), "unknown crash hook"),
            (point(9, HOOK_MID_CERT, 1, 0.1), "not a replica id"),
            (point(0, HOOK_MID_CERT, 0, 0.1), "occurrence must be >= 1"),
            (point(0, HOOK_MID_CERT, 1, 0.0), "down_for must be positive"),
            (
                FaultEvent(at=None, action="restart", replica=0, hook=HOOK_MID_CERT,
                           occurrence=1, down_for=0.1),
                "only a crash can be keyed by a hook",
            ),
            (
                FaultEvent(at=0.2, action="crash", replica=0, hook=HOOK_MID_CERT,
                           occurrence=1, down_for=0.1),
                "not by 'at'",
            ),
        ],
    )
    def test_validate_rejects_malformed_points(self, point, message):
        with pytest.raises(ConfigurationError, match=message):
            FaultPlan(events=[point]).validate(4)

    def test_a_crash_point_missing_a_field_is_a_configuration_error(self):
        data = {"events": [{"action": "crash", "replica": 1, "hook": HOOK_MID_CERT,
                            "down_for": 0.1}]}  # no occurrence
        with pytest.raises(ConfigurationError, match="a crash point needs"):
            FaultPlan.from_dict(data)

    def test_crash_points_order_after_time_keyed_events(self):
        plan = FaultPlan(
            events=[
                point(3, HOOK_MID_CERT, 2, 0.1),
                point(1, HOOK_AFTER_VOTE_WAL, 5, 0.1),
                FaultEvent(at=0.4, action="restart", replica=2),
                FaultEvent(at=0.2, action="crash", replica=2),
            ]
        )
        assert [(event.at, event.replica) for event in plan.events] == [
            (0.2, 2), (0.4, 2), (None, 1), (None, 3),
        ]
        assert plan.validate(4) is plan

    def test_live_mode_accepts_crash_points(self):
        # The hooks live in the consensus code both substrates share.
        plan = FaultPlan(events=[point(1, HOOK_AFTER_VOTE_WAL, 3, 0.1)])
        assert plan.validate(4, mode="live") is plan

    def test_torn_wal_point_listens_on_the_after_vote_wal_site(self):
        assert point(0, HOOK_TORN_VOTE_WAL, 1, 0.1).site == HOOK_AFTER_VOTE_WAL
        assert point(0, HOOK_MID_CERT, 1, 0.1).site == HOOK_MID_CERT
        assert FaultEvent(at=0.1, action="crash", replica=0).site is None

    def test_validate_rejects_duplicate_sites(self):
        # torn-vote-wal listens on the after-vote-wal site, so the same
        # (replica, occurrence) on both hooks is one ambiguous crash.
        plan = FaultPlan(
            events=[
                point(0, HOOK_AFTER_VOTE_WAL, 3, 0.1),
                point(0, HOOK_TORN_VOTE_WAL, 3, 0.1),
            ]
        )
        with pytest.raises(ConfigurationError, match="duplicate crash point"):
            plan.validate(4)

    def test_randomized_is_deterministic_per_seed(self):
        a = FaultPlan.randomized(n=4, seed=11, crashes=3)
        b = FaultPlan.randomized(n=4, seed=11, crashes=3)
        c = FaultPlan.randomized(n=4, seed=12, crashes=3)
        assert a == b
        assert a != c
        assert len(a) == 3
        for event in a.events:
            assert event.hook in CRASH_HOOKS

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (1, [(0, "after-vote-wal", 17, 0.061792), (3, "before-vote-wal", 2, 0.139332),
                 (3, "mid-cert-formation", 25, 0.128872)]),
            (11, [(1, "mid-cert-formation", 7, 0.094659), (1, "mid-snapshot", 1, 0.13039),
                  (3, "mid-cert-formation", 29, 0.100784)]),
        ],
    )
    def test_randomized_draws_are_pinned(self, seed, expected):
        """Fuzz seeds replay across versions: the RNG draws never change."""
        plan = FaultPlan.randomized(n=4, seed=seed, crashes=3)
        drawn = [(e.replica, e.hook, e.occurrence, e.down_for) for e in plan.events]
        assert drawn == expected

    def test_spec_validation_normalizes_crash_points(self):
        spec = ExperimentSpec(
            protocol="hotstuff-1",
            n=4,
            faults=FaultPlan.randomized(n=4, seed=1),  # instance, not dict
        )
        spec.validate()
        assert isinstance(spec.faults, dict)
        bad = ExperimentSpec(
            protocol="hotstuff-1",
            n=4,
            faults={"events": [{"action": "crash", "replica": 9, "hook": HOOK_MID_CERT,
                                "occurrence": 1, "down_for": 0.1}]},
        )
        with pytest.raises(ConfigurationError):
            bad.validate()


class TestHookCrashes:
    @pytest.mark.parametrize("hook", CRASH_HOOKS)
    def test_single_crash_at_each_hook_recovers_cleanly(self, hook):
        plan = FaultPlan(events=[point(replica=1, hook=hook, occurrence=4, down_for=0.1)])
        result = run_with(plan)
        chaos = result.chaos
        assert chaos["crashes"] == 1, chaos["timeline"]
        assert chaos["incidents"][0]["hook"] == hook
        assert chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True
        assert chaos["wal_vote_violations"] == []

    def test_after_wal_crash_keeps_the_vote_record_across_restart(self):
        """Crash between WAL append and send: the vote is durable, and the
        restarted incarnation must resume past that view, never re-voting it."""
        plan = FaultPlan(
            events=[point(replica=2, hook=HOOK_AFTER_VOTE_WAL, occurrence=6, down_for=0.1)]
        )
        result = run_with(plan)
        assert result.chaos["wal_vote_violations"] == []
        restarted = next(r for r in result.replicas if r.replica_id == 2)
        votes = [rec for rec in restarted.store.wal.records() if rec.kind == "vote"]
        assert len({(rec.view, rec.slot) for rec in votes}) == len(votes)

    def test_fuzz_sweep_holds_invariants_across_seeds(self):
        for fuzz_seed in range(1, 7):
            plan = FaultPlan.randomized(n=4, seed=fuzz_seed, crashes=2, down_for=0.1)
            result = run_with(plan, seed=fuzz_seed)
            chaos = result.chaos
            assert chaos["prefix_agreement"] is True, (fuzz_seed, chaos["timeline"])
            assert chaos["wal_vote_violations"] == [], (fuzz_seed, chaos["wal_vote_violations"])
            assert chaos["skipped_events"] == 0, (fuzz_seed, chaos["skipped"])
            assert chaos["restarts"] == chaos["crashes"]

    @pytest.mark.parametrize("protocol", ["hotstuff-1-basic", "hotstuff-1-slotting"])
    def test_mid_cert_hook_fires_on_non_chained_protocols(self, protocol):
        """Certificate formation is instrumented in the basic and slotted
        leaders too, so `repro fuzz` covers those code paths."""
        plan = FaultPlan(events=[point(replica=1, hook=HOOK_MID_CERT, occurrence=2, down_for=0.1)])
        result = run_with(plan, protocol=protocol)
        chaos = result.chaos
        assert chaos["crashes"] == 1, chaos["timeline"]
        assert chaos["incidents"][0]["hook"] == HOOK_MID_CERT
        assert chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True

    def test_probe_survives_a_restart_scheduled_by_a_composed_fault_plan(self):
        """One plan document: a time-keyed crash/restart of replica 1, then a
        crash point on the same replica.  The time-keyed restart builds a
        fresh replica object; the controller must arm the probe on it, or
        the crash point silently dies."""
        # Replica 1 reaches the hook about 40 times before its crash at 0.05 s,
        # so the 60th firing belongs to the restarted incarnation.
        document = {
            "events": [
                {"at": 0.05, "action": "crash", "replica": 1},
                {"at": 0.1, "action": "restart", "replica": 1},
                {"action": "crash", "replica": 1, "hook": HOOK_BEFORE_VOTE_WAL,
                 "occurrence": 60, "down_for": 0.1},
            ]
        }
        chaos = run_experiment(ExperimentSpec(faults=document, **BASE)).chaos
        first, second = chaos["incidents"]
        assert "hook" not in first
        assert second["hook"] == HOOK_BEFORE_VOTE_WAL
        # the crash point fired on the incarnation the time-keyed restart built
        assert second["crashed_at"] > first["restarted_at"]
        assert chaos["crashes"] == chaos["restarts"] == chaos["recovered"] == 2
        assert chaos["skipped_events"] == 0
        assert chaos["prefix_agreement"] is True

    def test_torn_tail_on_file_backed_store_recovers(self, tmp_path):
        """Torn WAL truncation mid-append against real files: the vote record
        written right before the crash must be gone after replay, and the
        replica must still rejoin and agree."""
        plan = FaultPlan(
            events=[point(replica=1, hook=HOOK_TORN_VOTE_WAL, occurrence=5, down_for=0.1)]
        )
        result = run_with(plan, storage_dir=str(tmp_path))
        chaos = result.chaos
        assert chaos["crashes"] == 1
        assert chaos["recovered"] == 1
        assert chaos["prefix_agreement"] is True
        assert chaos["wal_vote_violations"] == []


    def test_unfired_crash_point_is_reported_as_skipped(self):
        """A crash point the run ends before is a plan that did less than it
        declared: the report lists it and the verdict fails the run."""
        plan = FaultPlan(events=[point(replica=1, hook=HOOK_MID_CERT, occurrence=10_000,
                                       down_for=0.1)])
        result = run_with(plan, duration=0.3)
        chaos = result.chaos
        assert chaos["crashes"] == 0
        assert chaos["skipped"] == [{**plan.events[0].to_dict(), "skipped": "never fired"}]
        [problem] = chaos_problems(result.to_row())
        assert "1 planned event(s) skipped or never fired" in problem


class TestTornTailBackends:
    def test_file_backend_tear_leaves_partial_line_that_replay_drops(self, tmp_path):
        backend = FileLogBackend(str(tmp_path / "wal.jsonl"))
        backend.append({"kind": "vote", "view": 1})
        backend.append({"kind": "vote", "view": 2})
        backend.tear_tail()
        assert backend.replay() == [{"kind": "vote", "view": 1}]
        with open(backend.path) as handle:
            raw = handle.read()
        assert not raw.endswith("\n")  # the torn line is physically present

    def test_file_backend_appends_after_a_tear_stay_readable(self, tmp_path):
        backend = FileLogBackend(str(tmp_path / "wal.jsonl"))
        backend.append({"kind": "vote", "view": 1})
        backend.tear_tail()
        backend.append({"kind": "vote", "view": 2})
        assert backend.replay() == [{"kind": "vote", "view": 2}]

    def test_reopened_file_backend_repairs_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        first = FileLogBackend(path)
        first.append({"kind": "vote", "view": 1})
        first.tear_tail()
        first.close()
        second = FileLogBackend(path)  # a fresh incarnation after a real crash
        second.append({"kind": "vote", "view": 2})
        assert second.replay() == [{"kind": "vote", "view": 2}]

    def test_memory_backend_tear_drops_the_last_record(self):
        backend = MemoryLogBackend()
        backend.append({"kind": "vote", "view": 1})
        backend.append({"kind": "vote", "view": 2})
        backend.tear_tail()
        assert backend.replay() == [{"kind": "vote", "view": 1}]


class TestWalInvariantChecker:
    def test_duplicate_votes_are_reported(self):
        store = ReplicaStore.memory()
        store.record_vote(3, 1, "a" * 64)
        store.record_vote(3, 1, "b" * 64)
        violations = wal_vote_violations({0: store})
        assert len(violations) == 1
        assert violations[0]["replica"] == 0
        assert violations[0]["view"] == 3

    def test_clean_wals_report_nothing(self):
        store = ReplicaStore.memory()
        store.record_vote(3, 1, "a" * 64)
        store.record_vote(4, 1, "b" * 64)
        assert wal_vote_violations({0: store}) == []


class TestFuzzScenarioAndCli:
    def test_chaos_fuzz_kind_sweeps_seeds_through_the_engine(self):
        scenario = chaos_fuzz_spec(
            seeds=(1, 2),
            n=4,
            batch_size=10,
            duration=0.5,
            warmup=0.1,
        )
        rows = execute_scenario(scenario)
        assert [row["fuzz_seed"] for row in rows] == [1, 2]
        for row in rows:
            assert row["prefix_ok"] is True
            assert row["wal_ok"] is True
            assert row["events_skipped"] == 0
            # every planned crash point fired and recovered (the CLI gate
            # fails any seed where that does not hold)
            assert row["crashes"] == row["planned_crashes"]
            assert row["recovered"] == row["crashes"]

    def test_faults_param_joins_the_drawn_crash_points(self):
        scenario = chaos_fuzz_spec(seeds=(1,), n=4, batch_size=10, duration=0.8, warmup=0.1)
        scenario.params["faults"] = FaultPlan.single_crash(2, at=0.3, down_for=0.1).to_dict()
        [row] = execute_scenario(scenario)
        assert row["crashes"] == row["planned_crashes"] + 1 == 3
        assert row["recovered"] == 3
        assert row["events_skipped"] == 0

    def test_fuzz_cli_runs_and_exits_zero(self, capsys):
        exit_code = main(
            [
                "fuzz", "--protocol", "hotstuff-1", "--replicas", "4",
                "--batch", "10", "--duration", "0.5", "--warmup", "0.1",
                "--seeds", "2", "--crashes", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos-fuzz" in output
        assert "wal_ok" in output

    def test_chaos_cli_replays_a_crash_point_plan_from_a_file(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.randomized(n=4, seed=3).to_json())
        exit_code = main(
            [
                "chaos", "--plan", str(path), "--replicas", "4", "--batch", "10",
                "--duration", "0.8", "--warmup", "0.1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos & recovery" in output

    def test_fuzz_cli_rejects_unknown_hooks(self, capsys):
        exit_code = main(["fuzz", "--hooks", "meteor-strike", "--seeds", "1"])
        assert exit_code == 2
        assert "unknown crash hook" in capsys.readouterr().err
