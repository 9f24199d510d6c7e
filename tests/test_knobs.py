"""The single knob declaration: everything derived from ``ExperimentSpec`` fields.

``ExperimentSpec`` is the only place a knob is declared; this module pins
what is derived from it:

* every field carries help, a group and either a flag or an explicit
  "not on the CLI" mark;
* the CLI is flag-for-flag and default-for-default the one the hand-written
  parsers offered (literal tables below — the compatibility contract);
* the JSON hand-off to replica processes round-trips every benchmark workload
  and every registered scenario, and still rejects what cannot cross a
  process boundary;
* input checking is as strict as the hand-written ``validate()`` was;
* a new ``knob(...)`` field needs no further code anywhere;
* the figure suite's ``REPRO_BENCH_*`` environment is refused outside its
  allowed values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass

import pytest

from repro import cli
from repro.core.registry import replica_class_for
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.executor import execute_request
from repro.experiments.runner import (
    KNOB_GROUPS,
    ExperimentSpec,
    add_spec_arguments,
    default_num_clients,
    knob,
    spec_from_args,
)
from repro.experiments.scenarios import SCENARIOS, chaos_fuzz_spec, scenario_spec
from repro.experiments.spec import POINT_BUILDERS, RunRequest, expand_scenario, resolve_point_builder
from repro.faults.crashpoints import CRASH_HOOKS
from repro.faults.plan import FaultPlan
from repro.live.procs import validate_multiprocess_spec
from repro.net.latency import ConstantLatency

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------ (a) metadata
class TestEveryFieldIsDeclaredOnce:
    def test_field_count_is_unchanged(self):
        assert len(dataclasses.fields(ExperimentSpec)) == 35

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentSpec), ids=lambda f: f.name)
    def test_field_has_help_group_and_flag_or_explicit_no_cli_mark(self, field):
        meta = field.metadata
        assert isinstance(meta["help"], str) and len(meta["help"]) > 10
        assert "%" not in meta["help"]  # argparse would try to interpolate it
        assert meta["group"] in KNOB_GROUPS
        assert "flags" in meta  # knob() makes the mark mandatory
        if meta["flags"] is not None:
            assert meta["flags"] and all(flag.startswith("--") for flag in meta["flags"])
        assert isinstance(meta["wire"], bool)

    def test_no_flag_is_claimed_by_two_fields(self):
        flags = [
            flag for field in dataclasses.fields(ExperimentSpec)
            for flag in field.metadata["flags"] or ()
        ]
        assert len(flags) == len(set(flags))

    def test_unknown_group_or_rule_is_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="bad knob declaration: group 'misc'"):
            knob(1, group="misc", flags=None, help="not a real group")
        with pytest.raises(ValueError, match="minimum"):
            knob(1, group="core", flags=None, help="not a real rule", minimum=0)


# ------------------------------------------- (b) CLI compatibility contract
#: Every option string each sub-command accepted at the commit before the
#: flags were derived from the dataclass.  No flag added or renamed; the two
#: removed are ``--codec`` (binary became the only wire format) and
#: ``--trace-sampler`` (spans are head-capped, the one policy every consumer
#: reads), and the one sub-command removed is ``profile`` (``python3 -m
#: bench`` attributes CPU).
PARENT_FLAGS = {
    "run": {
        "-h", "--help", "--batch", "--checkpoint-interval", "--duration", "--faults",
        "--no-detect", "--pipeline-depth", "--protocol", "--replicas", "--seed", "--trace",
        "--trace-bucket", "--trace-max-events", "--trace-max-txns", "--trace-out",
        "--trace-stream", "--view-timeout", "--warmup", "--workload",
    },
    "live": {
        "-h", "--help", "--batch", "--checkpoint-interval", "--client-region", "--clients",
        "--deployment", "--distributed-mempool", "--duration", "--faults",
        "--max-outstanding", "--mempool-limit", "--multiprocess", "--n", "--no-detect",
        "--pipeline-depth", "--protocol", "--rate", "--regions", "--replicas", "--scrape-port",
        "--seed", "--storage-dir", "--target-ops", "--trace", "--trace-bucket",
        "--trace-max-events", "--trace-max-txns", "--trace-out",
        "--trace-stream", "--view-timeout", "--warmup", "--workload",
    },
    "chaos": {
        "-h", "--help", "--at", "--batch", "--checkpoint-interval", "--down-for",
        "--duration", "--emit-plan", "--mode", "--no-detect", "--pipeline-depth", "--plan",
        "--protocol", "--replica", "--replicas", "--scrape-port", "--seed", "--storage-dir",
        "--trace", "--trace-bucket", "--trace-max-events", "--trace-max-txns", "--trace-out",
        "--trace-stream", "--view-timeout", "--warmup", "--workload",
    },
    "fuzz": {
        "-h", "--help", "--batch", "--checkpoint-interval", "--crashes", "--down-for",
        "--duration", "--hooks", "--jobs", "--pipeline-depth", "--protocol", "--replicas",
        "--seed", "--seeds", "--view-timeout", "--warmup", "--workload",
    },
    "compare": {
        "-h", "--help", "--batch", "--checkpoint-interval", "--duration",
        "--pipeline-depth", "--replicas", "--seed", "--view-timeout", "--warmup", "--workload",
    },
    "figure": {"-h", "--help", "--duration", "--jobs", "--out", "--repeats", "--seed"},
    "suite": {
        "-h", "--help", "--config", "--duration", "--format", "--jobs", "--out-dir", "--repeats",
        "--seed",
    },
    "grid": {"-h", "--help", "--config", "--out", "--repeats", "--seed"},
    "predict": {"-h", "--help", "--batch", "--hop-latency", "--replicas"},
    "replica": {"-h", "--help", "--deployment", "--replica-id", "--result", "--spec"},
    "snapshot": {"-h", "--help", "--replica"},
    "trace": {
        "-h", "--help", "--chrome", "--deployment", "--follow", "-f", "--frames", "--interval",
        "--out", "--prom", "--reference", "--since", "--until", "--wan-threshold",
    },
    "watch": {
        "-h", "--help", "--deployment", "--frames", "--interval", "--no-clear", "--scrape",
        "--scrape-port",
    },
}

#: What a bare invocation built at the parent commit, as direct construction
#: (the codec, then a JSON default, is no longer a choice).
SIM_DEFAULTS = dict(protocol="hotstuff-1", n=4, batch_size=100, workload="ycsb", duration=0.5,
                    warmup=0.1, seed=1, view_timeout=0.03, pipeline_depth=1)
LIVE_DEFAULTS = dict(protocol="hotstuff-1", mode="live", n=4, batch_size=100, workload="ycsb",
                     duration=15.0, warmup=0.25, seed=1, view_timeout=0.05, pipeline_depth=1)

#: Every spec flag of each sub-command spelled the way the parent spelled it,
#: with a non-default value, next to the spec it must build.
TRACE_ARGV = ["--trace", "--trace-bucket", "0.05", "--trace-max-txns", "77",
              "--trace-stream", "/tmp/knobs-stream.jsonl", "--trace-max-events", "99",
              "--no-detect"]
TRACE_SPEC = dict(trace=True, trace_bucket=0.05, trace_max_txns=77,
                  trace_stream="/tmp/knobs-stream.jsonl", trace_max_events=99, trace_detect=False)
COMMON_ARGV = ["--replicas", "7", "--batch", "20", "--workload", "tpcc", "--duration", "0.9",
               "--warmup", "0.2", "--seed", "5", "--view-timeout", "0.04",
               "--pipeline-depth", "2", "--checkpoint-interval", "6"]
COMMON_SPEC = dict(n=7, batch_size=20, workload="tpcc", duration=0.9, warmup=0.2, seed=5,
                   view_timeout=0.04, pipeline_depth=2, checkpoint_interval=6)


class _Captured(Exception):
    """Raised by the stubbed run entry points with what the command built."""

    def __init__(self, built, **call) -> None:
        super().__init__("captured")
        self.built, self.call = built, call


@pytest.fixture
def capture(monkeypatch):
    """Run ``repro <argv>`` up to the point where it would start an experiment."""

    def stub(built, **call):
        raise _Captured(built, **call)

    monkeypatch.setattr(cli, "run_experiment", stub)
    monkeypatch.setattr(cli, "execute_scenario", stub)
    monkeypatch.setattr("repro.live.deploy.run_live_experiment", stub)

    def run(argv):
        with pytest.raises(_Captured) as caught:
            cli.main(argv)
        return caught.value

    return run


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestCliIsTheParentsCli:
    def test_every_subcommand_offers_exactly_the_parents_flags(self):
        subparsers = _subparsers()
        assert set(subparsers) == set(PARENT_FLAGS)
        for name, subparser in subparsers.items():
            assert set(subparser._option_string_actions) == PARENT_FLAGS[name], name

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["run"], SIM_DEFAULTS),
            (["compare"], {**SIM_DEFAULTS, "protocol": "hotstuff"}),
            (["live"], LIVE_DEFAULTS),
        ],
        ids=["run", "compare", "live"],
    )
    def test_bare_invocation_builds_the_parents_default_spec(self, capture, argv, expected):
        assert capture(argv).built == ExperimentSpec(**expected)

    def test_bare_chaos_builds_the_parents_default_spec_and_plan(self, capture):
        plan = FaultPlan.single_crash(1, at=0.15, down_for=0.075)
        built = capture(["chaos"]).built
        assert built == ExperimentSpec(**SIM_DEFAULTS, faults=plan.to_dict())

    def test_bare_fuzz_builds_the_parents_default_scenario(self, capture):
        captured = capture(["fuzz"])
        assert captured.built == chaos_fuzz_spec(
            protocols=("hotstuff-1",), seeds=(1, 2, 3, 4, 5), n=4, batch_size=100, duration=0.5,
            warmup=0.1, crashes=2, down_for=None, hooks=CRASH_HOOKS, checkpoint_interval=None,
        )
        assert captured.call == {"jobs": None}

    def test_run_spells_every_flag(self, capture, tmp_path):
        plan = FaultPlan.single_crash(2, at=0.3, down_for=0.1)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        built = capture(["run", "--protocol", "hotstuff2", *COMMON_ARGV, "--faults",
                         str(plan_path), *TRACE_ARGV]).built
        assert built == ExperimentSpec(
            protocol="hotstuff2", faults=plan.to_dict(), **COMMON_SPEC, **TRACE_SPEC)

    def test_trace_out_implies_trace(self, capture, tmp_path):
        built = capture(["run", "--trace-out", str(tmp_path)]).built
        assert built == ExperimentSpec(**SIM_DEFAULTS, trace=True)

    def test_live_spells_every_flag(self, capture):
        captured = capture([
            "live", "--protocol", "hotstuff-1-slotting", "--n", "7", *COMMON_ARGV[2:],
            "--clients", "33", "--storage-dir", "/tmp/knobs-wal", "--scrape-port", "9300",
            "--regions", "virginia, london,", "--client-region", "london",
            "--distributed-mempool", "--mempool-limit", "500", *TRACE_ARGV,
            "--target-ops", "0", "--rate", "250", "--max-outstanding", "40",
        ])
        assert captured.built == ExperimentSpec(
            protocol="hotstuff-1-slotting", mode="live", num_clients=33,
            storage_dir="/tmp/knobs-wal", scrape_port=9300, regions=["virginia", "london"],
            client_region="london", distributed_mempool=True, mempool_limit=500,
            **COMMON_SPEC, **TRACE_SPEC)
        assert captured.call["target_ops"] is None
        assert captured.call["rate"] == 250.0
        assert captured.call["max_outstanding"] == 40

    def test_live_replicas_alias_still_works(self, capture):
        assert capture(["live", "--replicas", "10"]).built.n == 10

    def test_chaos_spells_every_flag(self, capture):
        plan = FaultPlan.leader_crash(0.4, 0.2)
        built = capture([
            "chaos", "kill-leader", "--protocol", "hotstuff-1", "--mode", "live", *COMMON_ARGV,
            "--at", "0.4", "--down-for", "0.2", "--storage-dir", "/tmp/knobs-wal",
            "--scrape-port", "0", *TRACE_ARGV,
        ]).built
        assert built == ExperimentSpec(
            protocol="hotstuff-1", mode="live", faults=plan.to_dict(),
            storage_dir="/tmp/knobs-wal", scrape_port=0, **COMMON_SPEC, **TRACE_SPEC)

    def test_fuzz_spells_every_flag(self, capture):
        captured = capture([
            "fuzz", "--protocol", "hotstuff-2", *COMMON_ARGV, "--seeds", "2", "--crashes", "3",
            "--down-for", "0.1", "--hooks", "mid-snapshot,post-compaction", "--jobs", "2",
        ])
        assert captured.built == chaos_fuzz_spec(
            protocols=("hotstuff-2",), seeds=(5, 6), n=7, batch_size=20, duration=0.9,
            warmup=0.2, crashes=3, down_for=0.1, hooks=("mid-snapshot", "post-compaction"),
            checkpoint_interval=6,
        )
        assert captured.call == {"jobs": 2}

    def test_compare_spells_every_flag(self, capture):
        built = capture(["compare", *COMMON_ARGV]).built
        assert built == ExperimentSpec(protocol="hotstuff", **COMMON_SPEC)

    def test_bad_choice_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--workload", "tatp"])
        assert "--workload" in capsys.readouterr().err

    def test_profile_is_not_a_subcommand(self, capsys):
        """CPU attribution is ``python3 -m bench run --trace 1``'s job."""
        with pytest.raises(SystemExit):
            cli.main(["profile"])
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "live", "chaos", "fuzz", "compare"])
    def test_codec_is_not_a_flag(self, command, capsys):
        """Binary is the only wire format: no sub-command offers a choice."""
        with pytest.raises(SystemExit):
            cli.main([command, "--codec", "binary"])
        assert "unrecognized arguments: --codec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "live", "chaos"])
    def test_trace_sampler_is_not_a_flag(self, command, capsys):
        """Spans are head-capped: no sub-command offers another policy."""
        with pytest.raises(SystemExit):
            cli.main([command, "--trace-sampler", "tail"])
        assert "unrecognized arguments: --trace-sampler" in capsys.readouterr().err


# ------------------------------------------------- (c) JSON process hand-off
def _first_point_spec(name: str) -> ExperimentSpec:
    request = expand_scenario(scenario_spec(name))[0]
    builder = resolve_point_builder(request.kind)
    spec, _ = builder(request.protocol, {**request.params, "seed": request.seed})
    return spec


class TestJsonHandOff:
    def test_every_benchmark_workload_round_trips(self, monkeypatch):
        monkeypatch.syspath_prepend(REPO_ROOT)  # bench/ is a top-level package
        from bench.workloads import WORKLOADS

        assert WORKLOADS
        for name, workload in WORKLOADS.items():
            spec = ExperimentSpec(**workload.spec_kwargs(1, 1.0))
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec, name
            wire = json.loads(json.dumps(spec.to_dict()))
            assert ExperimentSpec.from_dict(wire).validate() == spec.validate(), name

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_one_point_of_every_scenario_round_trips_or_is_rejected(self, name):
        spec = _first_point_spec(name)
        blockers = [
            field.name for field in dataclasses.fields(spec)
            if not field.metadata["wire"] and getattr(spec, field.name)
        ]
        if blockers:  # Byzantine behaviour objects / custom latency models
            with pytest.raises(ConfigurationError, match=blockers[0]):
                spec.to_dict()
        else:
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec
            json.dumps(spec.to_dict())

    def test_to_dict_is_a_deep_copy(self):
        spec = ExperimentSpec(protocol="hotstuff-1", regions=["virginia"], workload_kwargs={"a": 1})
        doc = spec.to_dict()
        doc["regions"].append("london")
        doc["workload_kwargs"]["a"] = 2
        assert spec.regions == ["virginia"] and spec.workload_kwargs == {"a": 1}

    def test_live_objects_cannot_cross_the_process_boundary(self):
        from repro.consensus.byzantine import TailForkingBehavior

        with pytest.raises(ConfigurationError, match="behaviors"):
            ExperimentSpec(protocol="hotstuff-1", behaviors={0: TailForkingBehavior()}).to_dict()
        with pytest.raises(ConfigurationError, match="latency_model"):
            ExperimentSpec(protocol="hotstuff-1", latency_model=ConstantLatency(0.001)).to_dict()

    def test_a_json_codec_document_is_refused(self):
        """Specs written when JSON was a wire format still load, and fail
        validation naming the one codec left."""
        doc = {**ExperimentSpec(protocol="hotstuff-1").to_dict(), "codec": "json"}
        with pytest.raises(ConfigurationError, match=r"unknown codec 'json'; available: \['binary'\]"):
            ExperimentSpec.from_dict(doc).validate()

    @pytest.mark.parametrize("key", ["sneaky", "behaviors", "latency_model"])
    def test_unknown_and_non_wire_keys_are_rejected_not_dropped(self, key):
        doc = ExperimentSpec(protocol="hotstuff-1").to_dict()
        assert key not in doc
        doc[key] = {}
        with pytest.raises(ConfigurationError, match=key):
            ExperimentSpec.from_dict(doc)


# ------------------------------------------------ input checking, unweakened
class TestValidationIsNotWeakened:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(protocol="paxos"), "unknown protocol"),
            (dict(n=3), "n must be >= 4"),
            (dict(batch_size=0), "batch_size must be >= 1"),
            (dict(duration=0.0), "duration must be positive"),
            (dict(duration=-1.0), "duration must be positive"),
            (dict(view_timeout=0.0), "view_timeout must be positive"),
            (dict(duration=0.1, warmup=0.1), "warmup"),
            (dict(warmup=-0.1), "warmup"),
            (dict(workload="tatp"), "unknown workload 'tatp'"),
            (dict(codec="json"), r"unknown codec 'json'; available: \['binary'\]"),
            (dict(mode="cloud"), "unknown mode 'cloud'"),
            (dict(pipeline_depth=0), "pipeline_depth must be >= 1"),
            (dict(pipeline_depth=2), "slotted"),
            (dict(protocol="hotstuff-1-slotting", pipeline_depth=65), "pipeline_depth must be <= 64"),
            (dict(checkpoint_interval=0), "checkpoint_interval must be >= 1"),
            (dict(trace_max_txns=0), "trace_max_txns must be >= 1"),
            (dict(trace_bucket=0.0), "trace_bucket must be positive"),
            (dict(trace_max_events=0), "trace_max_events must be >= 1"),
            (dict(mempool_limit=0), "mempool_limit must be >= 1"),
            (dict(mode="live", scrape_port=-1), "scrape_port must be >= 0"),
            (dict(mode="live", scrape_port=70000), "scrape_port must be <= 65535"),
            (dict(scrape_port=9100), "scrape_port serves HTTP from the live runtime"),
            (dict(mode="live", latency_model=ConstantLatency(0.001)), "latency_model is a simulation-only"),
            (dict(mode="live", delay_injection={"impacted": [1], "extra_delay": 0.01}),
             "delay_injection is a simulation-only"),
            (dict(faults={"events": [{"at": 0.1, "action": "crash", "replica": 9}]}), "replica"),
        ],
    )
    def test_bad_value_raises_configuration_error_naming_the_field(self, kwargs, fragment):
        base = dict(protocol="hotstuff-1", n=4, duration=0.3, warmup=0.05)
        with pytest.raises(ConfigurationError, match=fragment):
            ExperimentSpec(**{**base, **kwargs}).validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(mode="sim"), "mode='live'"),
            (dict(distributed_mempool=False), "distributed_mempool"),
            (dict(crash_points={"points": []}), "single-process"),
            (dict(scrape_port=0), "concrete scrape_port"),
        ],
    )
    def test_multiprocess_restrictions_still_hold(self, overrides, fragment):
        base = dict(protocol="hotstuff-1", mode="live", n=4, duration=2.0, warmup=0.2,
                    distributed_mempool=True)
        with pytest.raises(ConfigurationError, match=fragment):
            validate_multiprocess_spec(ExperimentSpec(**{**base, **overrides}))

    def test_default_clients_are_ninety_percent_of_the_knee(self, monkeypatch):
        """``live-sat`` names its population (270 = 0.9 x 3 blocks x 100)."""
        monkeypatch.syspath_prepend(REPO_ROOT)  # bench/ is a top-level package
        from bench.workloads import WORKLOADS

        spec = ExperimentSpec(**WORKLOADS["live-sat"].spec_kwargs(1, 10.0)).validate()
        assert spec.num_clients is None and spec.batch_size == 100
        assert default_num_clients(spec, replica_class_for(spec.protocol)) == 270

    def test_none_skips_the_range_rules_and_validate_still_normalises(self):
        spec = ExperimentSpec(protocol="hotstuff1", trace_stream="/tmp/knobs.jsonl").validate()
        assert spec.protocol == "hotstuff-1"
        assert spec.trace is True  # implied by trace_stream


# ----------------------------------------- (d) a new knob needs no more code
@dataclass
class ThrowawaySpec(ExperimentSpec):
    """ExperimentSpec plus one extra declared knob, and nothing else."""

    fanout: int = knob(
        3, group="mempool", flags=("--fanout", "--fan"), low=1, high=9,
        help="throwaway knob that exists only in this test",
    )


class TestOneMoreKnobIsZeroMoreCode:
    def test_it_gets_its_flag_and_alias(self):
        parser = argparse.ArgumentParser()
        add_spec_arguments(parser, ("mempool",), spec_class=ThrowawaySpec)
        assert spec_from_args(
            parser.parse_args(["--fanout", "5"]), spec_class=ThrowawaySpec, protocol="hotstuff-1"
        ).fanout == 5
        assert spec_from_args(
            parser.parse_args(["--fan", "2"]), spec_class=ThrowawaySpec, protocol="hotstuff-1"
        ).fanout == 2
        assert "throwaway knob" in parser.format_help()

    def test_it_gets_its_bound_check(self):
        ThrowawaySpec(protocol="hotstuff-1", fanout=9).validate()
        for bad, fragment in ((0, "fanout must be >= 1"), (10, "fanout must be <= 9")):
            with pytest.raises(ConfigurationError, match=fragment):
                ThrowawaySpec(protocol="hotstuff-1", fanout=bad).validate()

    def test_it_round_trips_through_json(self):
        spec = ThrowawaySpec(protocol="hotstuff-1", fanout=4)
        doc = json.loads(json.dumps(spec.to_dict()))
        assert doc["fanout"] == 4
        assert ThrowawaySpec.from_dict(doc) == spec
        with pytest.raises(ConfigurationError, match="fanout"):
            ExperimentSpec.from_dict(doc)  # the plain spec has no such knob

    def test_the_executor_passes_it_through(self, monkeypatch):
        def build(protocol, p):
            return ThrowawaySpec(protocol=protocol, n=p["n"], duration=0.2, warmup=0.05), {}

        def stub(spec):
            raise _Captured(spec)

        monkeypatch.setitem(POINT_BUILDERS, "throwaway", build)
        monkeypatch.setattr(runner, "run_experiment", stub)
        request = RunRequest(
            index=0, group=0, scenario="s", kind="throwaway", protocol="hotstuff-1",
            params={"n": 4, "fanout": 7, "codec": "binary", "duration": 9.0},
            point={}, repeat=0, seed=11,
        )
        with pytest.raises(_Captured) as caught:
            execute_request(request)
        spec = caught.value.built
        assert spec.fanout == 7  # the new knob rides the engine untouched
        assert spec.codec == "binary" and spec.duration == 9.0 and spec.seed == 11
        assert spec.n == 4  # read by the builder, not re-applied


class TestExecutorPassThrough:
    def test_params_the_builder_read_are_not_reapplied(self, monkeypatch):
        """fig9-delay computes its own horizon from ``duration``: the raw
        parameter must not overwrite what the point builder derived."""
        def stub(spec):
            raise _Captured(spec)

        monkeypatch.setattr(runner, "run_experiment", stub)
        request = expand_scenario(
            scenario_spec("fig9-delay", n=4, delays_ms=(50.0,), impacted_counts=(1,),
                          duration=0.3, protocols=("hotstuff-1",))
        )[0]
        with pytest.raises(_Captured) as caught:
            execute_request(request)
        assert caught.value.built.duration == pytest.approx(0.8)  # 16 x 50 ms

    @pytest.mark.parametrize("param", [
        "view_timout", "epoch_sync_enabled", "max_slots_per_view", "knee_factor",
        "broadcast_requests", "trace_reservoir", "trace_sampler",
    ])
    def test_a_param_nothing_reads_is_a_configuration_error(self, param, monkeypatch):
        """A typo, or any of the knobs that no longer exist, is refused by
        name instead of silently running the defaults."""
        def stub(spec):
            raise _Captured(spec)

        monkeypatch.setattr(runner, "run_experiment", stub)
        request = expand_scenario(
            scenario_spec("fig8-scalability", replica_counts=(4,), protocols=("hotstuff-1",))
        )[0]
        request.params[param] = 0.5
        with pytest.raises(ConfigurationError, match=rf"'scalability'.*\['{param}'\]"):
            execute_request(request)

    def test_missing_required_param_is_a_configuration_error(self):
        request = RunRequest(
            index=0, group=0, scenario="s", kind="chaos-fuzz", protocol="hotstuff-1",
            params={"n": 4}, point={}, repeat=0, seed=1,
        )
        with pytest.raises(ConfigurationError, match="hooks"):
            execute_request(request)


# ------------------------------------- (d) the benchmark suite's environment
class TestBenchSuiteEnvironment:
    """``REPRO_BENCH_*`` pick what the golden tables hold, so a value outside
    the allowed set is refused, not read as the default."""

    @pytest.fixture
    def bench_env(self, monkeypatch):
        monkeypatch.syspath_prepend(REPO_ROOT)  # benchmarks/ is a top-level package
        for name in ("REPRO_BENCH_SCALE", "REPRO_BENCH_JOBS", "REPRO_BENCH_REPEATS"):
            monkeypatch.delenv(name, raising=False)
        from benchmarks.conftest import bench_env

        return bench_env

    def test_defaults_and_allowed_values(self, bench_env, monkeypatch):
        assert bench_env() == ("quick", 1, 1)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "3")
        assert bench_env() == ("full", 4, 3)

    @pytest.mark.parametrize(
        "name, value, allowed",
        [
            ("REPRO_BENCH_SCALE", "fulll", "quick|full"),
            ("REPRO_BENCH_SCALE", "", "quick|full"),
            ("REPRO_BENCH_JOBS", "-1", "positive integer"),
            ("REPRO_BENCH_JOBS", "two", "positive integer"),
            ("REPRO_BENCH_REPEATS", "0", "positive integer"),
        ],
    )
    def test_a_value_outside_the_allowed_set_is_a_usage_error(
        self, bench_env, monkeypatch, name, value, allowed
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(pytest.UsageError) as caught:
            bench_env()
        assert name in str(caught.value) and allowed in str(caught.value)
