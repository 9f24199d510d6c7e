"""Scenario definitions: one declarative spec per figure of the paper's §7.

Each figure is a :class:`~repro.experiments.spec.ScenarioSpec` (protocols ×
swept axes × repeats, all plain data) produced by a ``*_spec`` factory, and a
*point builder* registered for the figure's ``kind`` maps one grid point to
the concrete :class:`~repro.experiments.runner.ExperimentSpec` the simulator
consumes.  The :data:`SCENARIOS` registry maps figure names to factories, so
the CLI, the benchmark harness and JSON suite configs all share one source of
truth; run a figure with
``execute_scenario(scenario_spec(name, **overrides), jobs=...)``
(:func:`repro.experiments.executor.execute_scenario` fans independent runs
across a process pool when ``jobs > 1``).

A figure parameter's default lives in exactly one place, its ``*_spec``
factory: the factory writes every parameter into ``ScenarioSpec.params`` and
the point builder reads it back without a fallback of its own.

The defaults are scaled down (shorter simulated duration, the same parameter
grid) so the whole suite runs on a laptop; pass larger ``duration`` /
``replica_counts`` etc. to approach the paper's full setup.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.consensus.byzantine import (
    RollbackAttackBehavior,
    SlowLeaderBehavior,
    TailForkingBehavior,
)
from repro.core.registry import EVALUATION_PROTOCOLS
from repro.errors import ConfigurationError
from repro.faults.crashpoints import CRASH_HOOKS, SNAPSHOT_HOOKS, CrashPointPlan
from repro.faults.plan import chaos_preset
from repro.experiments.runner import ExperimentSpec
from repro.experiments.spec import (
    RunRecord,
    ScenarioSpec,
    SuiteSpec,
    point_builder,
    post_processor,
)
from repro.net.latency import DEFAULT_REGION_ORDER, GeoLatencyModel

#: Default protocols compared in every figure.
DEFAULT_PROTOCOLS: Sequence[str] = EVALUATION_PROTOCOLS


#: Run-shape parameters every figure factory declares.  A hand-written
#: scenario config may omit any of them; the run then uses the
#: :class:`ExperimentSpec` default for that knob.
_RUN_SHAPE = ("n", "batch_size", "duration", "warmup", "seed")


def _spec(protocol: str, p: Dict[str, Any], **fixed) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of one grid point.

    Run-shape parameters come straight from *p* (whose values the ``*_spec``
    factory defaulted — point builders hold no defaults of their own), the
    fields a point builder computes come in through *fixed*.  Any other spec
    knob in *p* is applied by the executor's pass-through.
    """
    shape = {name: p[name] for name in _RUN_SHAPE if name in p and name not in fixed}
    return ExperimentSpec(protocol=protocol, **shape, **fixed)


# --------------------------------------------------------------------------
# Point builders: grid point -> ExperimentSpec + extra report columns
# --------------------------------------------------------------------------
@point_builder("latency-breakdown")  # same runs; its post-processor adds the reduction rows
@point_builder("scalability")
def _build_scalability(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    return _spec(protocol, p), {"n": p["n"]}


@point_builder("batching")
def _build_batching(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    return _spec(protocol, p), {"batch_size": p["batch_size"]}


@point_builder("geo-scale")
def _build_geo_scale(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    region_count = p["region_count"]
    spec = _spec(
        protocol,
        p,
        workload=p["workload"],
        regions=list(DEFAULT_REGION_ORDER[:region_count]),
        view_timeout=p.get("view_timeout", 1.0),
        delta=p.get("delta", 0.3),
    )
    return spec, {"regions": region_count, "workload": spec.workload}


@point_builder("delay-injection")
def _build_delay_injection(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    n = p["n"]
    delay_ms = p["delay_ms"]
    impacted_count = p["impacted"]
    impacted = list(range(n - impacted_count, n))
    # When every certificate needs an impacted replica (k > f) a round takes
    # up to the 4x-delay view timeout, and latency accounting only counts
    # transactions *submitted* after warmup — i.e. second-generation traffic
    # arriving one full round in.  The horizon must therefore fit warmup plus
    # roughly two such rounds (~16x the delay) or the worst grid points
    # measure nothing; event count, not horizon, drives simulation cost, so
    # stalled long-horizon points stay cheap.
    horizon = max(p["duration"], 16 * delay_ms / 1000.0)
    spec = _spec(
        protocol,
        p,
        duration=horizon,
        warmup=min(p["warmup"], horizon / 4),
        delay_injection={"impacted": impacted, "extra_delay": delay_ms / 1000.0},
        view_timeout=max(0.01, 4 * delay_ms / 1000.0),
        delta=max(0.001, delay_ms / 1000.0),
    )
    return spec, {"delay_ms": delay_ms, "impacted": impacted_count}


@point_builder("two-region-split")
def _build_two_region_split(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    n = p["n"]
    remote_count = p["london_replicas"]
    placement = {
        replica_id: ("london" if replica_id >= n - remote_count else "virginia")
        for replica_id in range(n)
    }
    spec = _spec(
        protocol,
        p,
        latency_model=GeoLatencyModel(placement, default_region="virginia"),
        client_region="virginia",
        view_timeout=p.get("view_timeout", 0.5),
        delta=p.get("delta", 0.08),
    )
    return spec, {"london_replicas": remote_count}


@point_builder("leader-slowness")
def _build_leader_slowness(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    view_timeout = p["view_timeout"]
    slow_count = p["slow_leaders"]
    behaviors = {
        replica_id: SlowLeaderBehavior(margin=4 * 0.0005 + 0.0005)
        for replica_id in range(slow_count)
    }
    spec = _spec(
        protocol,
        p,
        duration=max(p["duration"], 20 * view_timeout),
        behaviors=behaviors,
        view_timeout=view_timeout,
    )
    return spec, {"slow_leaders": slow_count, "view_timeout_ms": view_timeout * 1000}


@point_builder("tail-forking")
def _build_tail_forking(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    faulty_count = p["faulty_leaders"]
    behaviors = {replica_id: TailForkingBehavior() for replica_id in range(faulty_count)}
    return _spec(protocol, p, behaviors=behaviors), {"faulty_leaders": faulty_count}


@point_builder("rollback-attack")
def _build_rollback_attack(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    n = p["n"]
    faulty_count = p["faulty_leaders"]
    f = (n - 1) // 3
    colluders = list(range(faulty_count))
    victims = list(range(faulty_count, faulty_count + min(f, n - faulty_count - 1)))
    behaviors = {
        replica_id: RollbackAttackBehavior(victims=victims, colluders=colluders)
        for replica_id in colluders
    }
    return _spec(protocol, p, behaviors=behaviors), {"faulty_leaders": faulty_count}


@point_builder("chaos")
def _build_chaos(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    """Chaos grid point: one fault preset (or an inline plan) per run.

    The ``fault`` axis value is either a preset name (``kill-replica``,
    ``kill-leader``, ``cascade``, ``partition-heal``) or a full fault-plan
    dict, so suites can sweep canned presets and hand-written plans alike.
    """
    duration = p["duration"]
    fault = p["fault"]
    if isinstance(fault, dict):
        faults, label = fault, "custom"
    else:
        plan = chaos_preset(
            fault,
            n=p["n"],
            at=p.get("crash_at", round(duration * 0.3, 6)),
            down_for=p.get("down_for", round(duration * 0.15, 6)),
            replica=p.get("replica", 1),
        )
        faults, label = plan.to_dict(), fault
    return _spec(protocol, p, faults=faults), {"fault": label}


@point_builder("chaos-fuzz")
def _build_chaos_fuzz(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    """Crash-point fuzz grid point: one seed-generated plan per run.

    The ``fuzz_seed`` axis value seeds
    :meth:`~repro.faults.crashpoints.CrashPointPlan.randomized`, so a suite
    sweeps many random crash placements while any single failing seed can be
    replayed bit-for-bit.
    """
    fuzz_seed = int(p.get("fuzz_seed", p["seed"]))
    hooks = tuple(p["hooks"])
    plan = CrashPointPlan.randomized(
        n=p["n"],
        seed=fuzz_seed,
        crashes=p["crashes"],
        down_for=p.get("down_for", round(p["duration"] * 0.15, 6)),
        hooks=hooks,
        max_occurrence=p.get("max_occurrence", 40),
    )
    # Snapshot hooks only fire on deployments that checkpoint; when the hook
    # set can draw them, enable checkpointing so no planned point goes dead.
    checkpoint_interval = p.get("checkpoint_interval")
    if checkpoint_interval is None and any(hook in SNAPSHOT_HOOKS for hook in hooks):
        checkpoint_interval = 4
    spec = _spec(
        protocol, p, crash_points=plan.to_dict(), checkpoint_interval=checkpoint_interval
    )
    return spec, {"fuzz_seed": fuzz_seed, "planned_crashes": len(plan)}


@point_builder("snapshot-recovery")
def _build_snapshot_recovery(protocol: str, p: Dict[str, Any]) -> Tuple[ExperimentSpec, Dict]:
    """Checkpointed-recovery grid point: a long outage healed by state transfer.

    The crashed replica stays down long enough for many checkpoints to
    accumulate (``down_for`` defaults to 45% of the run), so its restart must
    go through the ``SnapshotRequest`` / ``SnapshotResponse`` transfer path
    instead of replaying or fetching the whole history.  The ``fault`` axis
    sweeps presets exactly like the plain chaos scenario.
    """
    duration = p["duration"]
    interval = int(p["checkpoint_interval"])
    fault = p["fault"]
    plan = chaos_preset(
        fault,
        n=p["n"],
        at=p.get("crash_at", round(duration * 0.25, 6)),
        down_for=p.get("down_for", round(duration * 0.45, 6)),
        replica=p.get("replica", 1),
    )
    spec = _spec(protocol, p, faults=plan.to_dict(), checkpoint_interval=interval)
    return spec, {"fault": fault, "checkpoint_interval": interval}


@post_processor("latency-breakdown")
def _reduce_latency_breakdown(
    rows: List[Dict], records: List[RunRecord], scenario: ScenarioSpec
) -> List[Dict]:
    """Insert the paper's latency-reduction rows after each replica count's block.

    Reductions are derived from the unrounded per-record latencies (averaged
    over repeats), matching the historical builder which computed them before
    any rounding.
    """
    protocols = list(scenario.protocols)
    if "hotstuff-1" not in protocols:
        return rows
    latency: Dict[int, Dict[str, List[float]]] = {}
    for record in records:
        n = record.row.get("n")
        latency.setdefault(n, {}).setdefault(record.row["protocol"], []).append(
            record.metrics["latency_ms"]
        )
    out: List[Dict] = []
    per_n = len(protocols)
    for start in range(0, len(rows), per_n):
        block = rows[start : start + per_n]
        out.extend(block)
        n = block[0].get("n")
        baseline = {
            protocol: sum(samples) / len(samples)
            for protocol, samples in latency.get(n, {}).items()
        }
        for other in ("hotstuff", "hotstuff-2"):
            if other in baseline and baseline[other] > 0:
                reduction = 100.0 * (1.0 - baseline["hotstuff-1"] / baseline[other])
                out.append(
                    {
                        "protocol": f"hotstuff-1 vs {other}",
                        "n": n,
                        "latency_reduction_pct": round(reduction, 1),
                    }
                )
    return out


@point_builder("slotting-ablation")
def _build_slotting_ablation(
    protocol: Optional[str], p: Dict[str, Any]
) -> Tuple[ExperimentSpec, Dict]:
    # The variant axis carries (protocol, speculation flag, label); the
    # scenario declares no protocol axis of its own.
    variant_protocol, speculation, label = p["variant"]
    slow_count = p["slow_leader_count"]
    behaviors = {replica_id: SlowLeaderBehavior() for replica_id in range(slow_count)}
    spec = _spec(
        variant_protocol, p, behaviors=behaviors, speculation_enabled=bool(speculation)
    )
    return spec, {"variant": label, "slow_leaders": slow_count}


# --------------------------------------------------------------------------
# Spec factories: one per figure; the only place a figure parameter's default lives
# --------------------------------------------------------------------------
def scalability_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = (4, 16, 32, 64),
    batch_size: int = 100,
    duration: float = 0.5,
    warmup: float = 0.1,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 8 (a, b): throughput/latency versus the number of replicas."""
    return ScenarioSpec(
        name="fig8-scalability",
        kind="scalability",
        protocols=tuple(protocols),
        axes={"n": list(replica_counts)},
        params={"batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def batching_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    batch_sizes: Sequence[int] = (100, 1000, 2000, 5000, 10000),
    n: int = 32,
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 8 (c, d): throughput/latency versus batch size at fixed n."""
    return ScenarioSpec(
        name="fig8-batching",
        kind="batching",
        protocols=tuple(protocols),
        axes={"batch_size": list(batch_sizes)},
        params={"n": n, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def geo_scale_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    region_counts: Sequence[int] = (2, 3, 4, 5),
    workload: str = "ycsb",
    n: int = 32,
    batch_size: int = 100,
    duration: float = 3.0,
    warmup: float = 0.5,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 8 (e-h): geo-scale deployments across 2-5 regions."""
    return ScenarioSpec(
        name=f"fig8-geo-{workload}",
        kind="geo-scale",
        protocols=tuple(protocols),
        axes={"region_count": list(region_counts)},
        params={
            "workload": workload,
            "n": n,
            "batch_size": batch_size,
            "duration": duration,
            "warmup": warmup,
        },
        repeats=repeats,
        seed=seed,
    )


def delay_injection_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    delays_ms: Sequence[float] = (1.0, 5.0, 50.0, 500.0),
    impacted_counts: Optional[Sequence[int]] = None,
    n: int = 31,
    batch_size: int = 100,
    duration: float = 0.5,
    warmup: float = 0.1,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 9 (a-d, f-i): delays injected on k replicas."""
    f = (n - 1) // 3
    if impacted_counts is None:
        impacted_counts = (0, f, f + 1, n - f - 1, n - f, n)
    return ScenarioSpec(
        name="fig9-delay",
        kind="delay-injection",
        protocols=tuple(protocols),
        axes={"delay_ms": list(delays_ms), "impacted": list(impacted_counts)},
        params={"n": n, "batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def two_region_split_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    remote_counts: Optional[Sequence[int]] = None,
    n: int = 31,
    batch_size: int = 100,
    duration: float = 3.0,
    warmup: float = 0.5,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 9 (e, j): Virginia/London split with clients in Virginia."""
    f = (n - 1) // 3
    if remote_counts is None:
        remote_counts = (0, f, f + 1, n - f - 1, n - f, n)
    return ScenarioSpec(
        name="fig9-geo",
        kind="two-region-split",
        protocols=tuple(protocols),
        axes={"london_replicas": list(remote_counts)},
        params={"n": n, "batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def leader_slowness_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    slow_leader_counts: Sequence[int] = (0, 1, 4, 7, 10),
    view_timeouts: Sequence[float] = (0.010, 0.100),
    n: int = 32,
    batch_size: int = 100,
    duration: float = 1.0,
    warmup: float = 0.2,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 10 (a-d): rational slow leaders under two view timers."""
    return ScenarioSpec(
        name="fig10-slowness",
        kind="leader-slowness",
        protocols=tuple(protocols),
        axes={"view_timeout": list(view_timeouts), "slow_leaders": list(slow_leader_counts)},
        params={"n": n, "batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def tail_forking_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    faulty_counts: Sequence[int] = (0, 1, 4, 7, 10),
    n: int = 32,
    batch_size: int = 100,
    duration: float = 1.0,
    warmup: float = 0.2,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 10 (e, f): tail-forking faulty leaders."""
    return ScenarioSpec(
        name="fig10-tailfork",
        kind="tail-forking",
        protocols=tuple(protocols),
        axes={"faulty_leaders": list(faulty_counts)},
        params={"n": n, "batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def rollback_attack_spec(
    protocols: Sequence[str] = ("hotstuff-1", "hotstuff-1-slotting"),
    faulty_counts: Sequence[int] = (0, 1, 4, 7, 10),
    n: int = 32,
    batch_size: int = 100,
    duration: float = 1.0,
    warmup: float = 0.2,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Fig. 10 (g, h): certificate-withholding leaders forcing rollbacks."""
    return ScenarioSpec(
        name="fig10-rollback",
        kind="rollback-attack",
        protocols=tuple(protocols),
        axes={"faulty_leaders": list(faulty_counts)},
        params={"n": n, "batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def chaos_recovery_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    faults: Sequence[str] = (
        "kill-replica",
        "kill-leader",
        "cascade",
        "partition-heal",
        "blackout",
    ),
    n: int = 4,
    batch_size: int = 100,
    duration: float = 1.0,
    warmup: float = 0.2,
    crash_at: Optional[float] = None,
    down_for: Optional[float] = None,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Chaos: crash/restart/partition faults with recovery metrics per point."""
    params: Dict[str, Any] = {
        "n": n,
        "batch_size": batch_size,
        "duration": duration,
        "warmup": warmup,
    }
    if crash_at is not None:
        params["crash_at"] = crash_at
    if down_for is not None:
        params["down_for"] = down_for
    return ScenarioSpec(
        name="chaos-recovery",
        kind="chaos",
        protocols=tuple(protocols),
        axes={"fault": list(faults)},
        params=params,
        repeats=repeats,
        seed=seed,
    )


def chaos_fuzz_spec(
    protocols: Sequence[str] = ("hotstuff-1",),
    seeds: Sequence[int] = tuple(range(1, 6)),
    n: int = 4,
    batch_size: int = 10,
    duration: float = 1.0,
    warmup: float = 0.1,
    crashes: int = 2,
    down_for: Optional[float] = None,
    hooks: Sequence[str] = CRASH_HOOKS,
    checkpoint_interval: Optional[int] = None,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Crash-point fuzz sweep: one randomized plan per ``fuzz_seed`` axis value."""
    params: Dict[str, Any] = {
        "n": n,
        "batch_size": batch_size,
        "duration": duration,
        "warmup": warmup,
        "crashes": crashes,
        "hooks": list(hooks),
    }
    if down_for is not None:
        params["down_for"] = down_for
    if checkpoint_interval is not None:
        params["checkpoint_interval"] = checkpoint_interval
    return ScenarioSpec(
        name="chaos-fuzz",
        kind="chaos-fuzz",
        protocols=tuple(protocols),
        axes={"fuzz_seed": list(seeds)},
        params=params,
        repeats=repeats,
        seed=seed,
    )


def snapshot_recovery_spec(
    protocols: Sequence[str] = ("hotstuff-1",),
    faults: Sequence[str] = ("kill-replica", "kill-leader", "cascade", "blackout"),
    checkpoint_interval: int = 5,
    n: int = 4,
    batch_size: int = 10,
    duration: float = 1.0,
    warmup: float = 0.1,
    crash_at: Optional[float] = None,
    down_for: Optional[float] = None,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Checkpointed recovery: long outages healed via snapshot state transfer."""
    params: Dict[str, Any] = {
        "n": n,
        "batch_size": batch_size,
        "duration": duration,
        "warmup": warmup,
        "checkpoint_interval": checkpoint_interval,
    }
    if crash_at is not None:
        params["crash_at"] = crash_at
    if down_for is not None:
        params["down_for"] = down_for
    return ScenarioSpec(
        name="snapshot-recovery",
        kind="snapshot-recovery",
        protocols=tuple(protocols),
        axes={"fault": list(faults)},
        params=params,
        repeats=repeats,
        seed=seed,
    )


def latency_breakdown_spec(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = (4, 32),
    batch_size: int = 100,
    duration: float = 0.5,
    warmup: float = 0.1,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """§7 narrative: fault-free latency comparison plus reduction rows."""
    return ScenarioSpec(
        name="latency-breakdown",
        kind="latency-breakdown",
        protocols=tuple(protocols),
        axes={"n": list(replica_counts)},
        params={"batch_size": batch_size, "duration": duration, "warmup": warmup},
        repeats=repeats,
        seed=seed,
    )


def slotting_ablation_spec(
    slow_leader_count: int = 4,
    n: int = 16,
    batch_size: int = 100,
    duration: float = 1.0,
    warmup: float = 0.2,
    seed: int = 1,
    repeats: int = 1,
) -> ScenarioSpec:
    """Ablation: speculation × slotting under slow leaders."""
    variants = [
        ["hotstuff-1", True, "speculation on, no slotting"],
        ["hotstuff-1", False, "speculation off, no slotting"],
        ["hotstuff-1-slotting", True, "speculation on, slotting"],
        ["hotstuff-1-slotting", False, "speculation off, slotting"],
    ]
    return ScenarioSpec(
        name="ablation-slotting",
        kind="slotting-ablation",
        protocols=(),
        axes={"variant": variants},
        params={
            "slow_leader_count": slow_leader_count,
            "n": n,
            "batch_size": batch_size,
            "duration": duration,
            "warmup": warmup,
        },
        repeats=repeats,
        seed=seed,
    )


#: Figure name -> spec factory.  Single source of truth for the CLI, the
#: benchmark harness and ``{"figure": ...}`` references in suite configs.
SCENARIOS: Dict[str, Callable[..., ScenarioSpec]] = {
    "fig8-scalability": scalability_spec,
    "fig8-batching": batching_spec,
    "fig8-geo-ycsb": lambda **kw: geo_scale_spec(workload=kw.pop("workload", "ycsb"), **kw),
    "fig8-geo-tpcc": lambda **kw: geo_scale_spec(workload=kw.pop("workload", "tpcc"), **kw),
    "fig9-delay": delay_injection_spec,
    "fig9-geo": two_region_split_spec,
    "fig10-slowness": leader_slowness_spec,
    "fig10-tailfork": tail_forking_spec,
    "fig10-rollback": rollback_attack_spec,
    "latency-breakdown": latency_breakdown_spec,
    "ablation-slotting": slotting_ablation_spec,
    "chaos-recovery": chaos_recovery_spec,
    "chaos-fuzz": chaos_fuzz_spec,
    "snapshot-recovery": snapshot_recovery_spec,
}


def scenario_spec(name: str, **overrides) -> ScenarioSpec:
    """Build the registered scenario *name* with factory-level *overrides*."""
    try:
        factory = SCENARIOS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from exc
    try:
        return factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(f"invalid overrides for scenario {name!r}: {exc}") from exc


def default_suite(
    names: Optional[Sequence[str]] = None,
    suite_name: str = "paper-evaluation",
    **common,
) -> SuiteSpec:
    """A suite covering the named figures (all of them by default).

    ``common`` keyword arguments are passed to every factory that accepts
    them (e.g. ``seed=7, repeats=3``).
    """
    import inspect

    scenarios = []
    for name in names or list(SCENARIOS):
        factory = SCENARIOS[name]
        parameters = inspect.signature(factory).parameters
        if any(p.kind == inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            accepted = set(common)
        else:
            accepted = set(parameters)
        scenarios.append(
            factory(**{key: value for key, value in common.items() if key in accepted})
        )
    return SuiteSpec(name=suite_name, scenarios=scenarios)
