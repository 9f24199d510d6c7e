"""Experiment specs, deployments and the substrate-independent run phases.

One run, whatever hosts it, is *prepare → serve → poll → close → verify →
report*.  The only thing the four drivers differ in is **placement** — the
set of node ids the process hosts: every replica plus the client pool (the
simulator here, in-process live in :mod:`repro.live.deploy`), ``{r}`` (a
``repro replica`` child) or ``{client}`` (the multi-process coordinator,
both in :mod:`repro.live.procs`).  This module holds the phases that need no
sockets — :func:`prepare`, :func:`start`, :func:`verify`, :func:`report` —
and the simulator driver; the wall-clock phases live in
:mod:`repro.live.deploy`.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, get_args, get_type_hints

from repro.consensus.byzantine import ReplicaBehavior
from repro.consensus.certificates import CertificateAuthority
from repro.consensus.client import CLIENT_POOL_NODE_ID, ClientPool
from repro.consensus.config import ProtocolConfig
from repro.consensus.costs import CostModel
from repro.consensus.leader import RoundRobinLeaderElection
from repro.consensus.mempool import Mempool
from repro.consensus.metrics import MetricsCollector, MetricsSummary
from repro.consensus.replica import (
    BaseReplica,
    chains_prefix_consistent,
    honest_committed_chains,
)
from repro.core.registry import (
    PROTOCOLS,
    canonical_protocol,
    client_quorum_for,
    replica_class_for,
)
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError, ConsensusError, SafetyViolationError
from repro.faults.crashpoints import CrashPointInjector, CrashPointPlan
from repro.faults.injector import ChaosController
from repro.faults.plan import FaultPlan, load_plan
from repro.net.faults import FaultInjector
from repro.net.latency import ConstantLatency, GeoLatencyModel, LatencyModel
from repro.sim.scheduler import Simulator
from repro.storage.store import ReplicaStore
from repro.workloads.base import available_workloads, make_workload


#: Knob groups, in the order ``--help`` lists them.
KNOB_GROUPS = ("core", "geo", "durability", "telemetry", "faults", "mempool")


#: Per-knob rules :func:`knob` accepts, with their "no rule" values.
_KNOB_RULES = dict(
    low=None, high=None, positive=False, choices=None, parse=None, metavar=None,
    sim_only=False, wire=True,
)


def knob(
    default=dataclasses.MISSING,
    *,
    group: str,
    help: str,
    flags: Optional[Sequence[str]],
    default_factory=dataclasses.MISSING,
    **rules,
):
    """Declare one :class:`ExperimentSpec` field together with everything derived from it.

    ``flags`` are the CLI spellings (first is canonical, the rest aliases;
    ``None`` marks a knob that is deliberately not on the CLI), ``group`` one
    of :data:`KNOB_GROUPS`, ``help`` the ``--help`` text.  *rules*: ``low`` /
    ``high`` are inclusive bounds, ``positive`` requires ``> 0``, ``choices``
    is a collection or a zero-argument callable returning one (for registries
    that fill after import) — ``None`` values skip all of these; ``parse``
    converts the flag's string (default: the annotation's scalar type) and
    ``metavar`` names it in ``--help``; ``sim_only`` knobs are rejected in
    live mode; ``wire=False`` knobs hold live objects and cannot cross a
    process boundary (:meth:`ExperimentSpec.to_dict`).
    """
    if group not in KNOB_GROUPS or set(rules) - set(_KNOB_RULES):
        raise ValueError(f"bad knob declaration: group {group!r}, rules {sorted(rules)}")
    metadata = {"group": group, "help": help, "flags": tuple(flags) if flags else None}
    return field(
        default=default, default_factory=default_factory,
        metadata={**metadata, **_KNOB_RULES, **rules},
    )


def _trace_samplers() -> Sequence[str]:
    from repro.obs.sampling import SAMPLER_KINDS  # local import: repro.obs imports the report module

    return SAMPLER_KINDS


def _region_list(text: str) -> Optional[List[str]]:
    return [region.strip() for region in text.split(",") if region.strip()] or None


def _plan_file(path: str) -> Dict:
    return load_plan(path).to_dict()


def _check_knob(name: str, meta, value, mode: str) -> None:
    """Apply one field's declared mode / choice / range rules to *value*."""
    if meta["sim_only"] and mode == "live" and value:
        raise ConfigurationError(
            f"{name} is a simulation-only knob: live mode runs over real sockets "
            "(use `regions` for emulated geo delay, shaped at the transport layer)"
        )
    if value is None:
        return
    choices = meta["choices"]
    if choices is not None:
        choices = choices() if callable(choices) else choices
        if value not in choices:
            raise ConfigurationError(f"unknown {name} {value!r}; available: {sorted(choices)}")
    if meta["positive"] and value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    if meta["low"] is not None and value < meta["low"]:
        raise ConfigurationError(f"{name} must be >= {meta['low']}, got {value}")
    if meta["high"] is not None and value > meta["high"]:
        raise ConfigurationError(f"{name} must be <= {meta['high']}, got {value}")


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run (one protocol, one point).

    Attributes mirror the knobs the paper varies in §7: replica count, batch
    size, workload, geography, injected delays, Byzantine behaviours, and the
    view timer.  Scenario builders (:mod:`repro.experiments.scenarios`) fill
    these in for every point of every figure.

    This class is the *only* place a knob is declared: each field's
    :func:`knob` metadata is what the CLI flags (:func:`add_spec_arguments`),
    the range checks in :meth:`validate`, the JSON hand-off to replica
    processes (:meth:`to_dict`) and the scenario engine's param pass-through
    are derived from.  It stays flat and mutable on purpose — callers build
    it from flat keyword arguments and adjust it before :meth:`validate`.
    """

    protocol: str = knob(
        group="core", flags=("--protocol",),
        help=f"protocol name or alias, e.g. hotstuff1 (available: {', '.join(sorted(PROTOCOLS))})",
    )
    n: int = knob(
        4, group="core", flags=("--replicas", "--n"), low=4,
        help="number of replicas (BFT needs n >= 3f + 1 with f >= 1)",
    )
    mode: str = knob(
        "sim", group="core", flags=("--mode",), choices=("sim", "live"),
        help="substrate: discrete-event simulation or localhost TCP",
    )
    batch_size: int = knob(
        100, group="core", flags=("--batch",), low=1, help="transactions per proposed block"
    )
    workload: str = knob(
        "ycsb", group="core", flags=("--workload",), choices=available_workloads,
        help="client workload (state machine and transaction mix)",
    )
    workload_kwargs: Dict = knob(
        default_factory=dict, group="core", flags=None, help="workload constructor arguments"
    )
    duration: float = knob(
        1.0, group="core", flags=("--duration",), positive=True,
        help="measurement window: simulated seconds (sim) or wall-clock cap in seconds (live)",
    )
    warmup: float = knob(
        0.2, group="core", flags=("--warmup",),
        help="leading seconds excluded from the metrics (must stay below the duration)",
    )
    num_clients: Optional[int] = knob(
        None, group="mempool", flags=("--clients",),
        help="closed-loop client population (default: pipeline knee)",
    )
    seed: int = knob(1, group="core", flags=("--seed",), help="base RNG seed")
    view_timeout: float = knob(
        0.030, group="core", flags=("--view-timeout",), positive=True, help="view timer (seconds)"
    )
    delta: float = knob(
        0.001, group="core", flags=None, help="pacemaker's assumed network delay bound (seconds)"
    )
    base_latency: float = knob(
        0.0005, group="geo", flags=None, help="one-way link latency when no regions are set (sim)"
    )
    regions: Optional[Sequence[str]] = knob(
        None, group="geo", flags=("--regions",), parse=_region_list, metavar="R1,R2,...",
        help="emulate geography: replicas placed round-robin across these regions, per-link "
             "delays from the paper's RTT tables (live: shaped at the transports)",
    )
    client_region: str = knob(
        "virginia", group="geo", flags=("--client-region",),
        help="region the client pool sends from (with --regions)",
    )
    delay_injection: Optional[Dict] = knob(
        None, group="geo", flags=None, sim_only=True,
        help="extra one-way delay on chosen replicas: {'impacted': [ids], 'extra_delay': s}",
    )
    behaviors: Dict[int, ReplicaBehavior] = knob(
        default_factory=dict, group="faults", flags=None, wire=False,
        help="Byzantine behaviour object per replica id (the rest are honest)",
    )
    latency_model: Optional[LatencyModel] = knob(
        None, group="geo", flags=None, sim_only=True, wire=False,
        help="custom latency model object (overrides regions / base_latency)",
    )
    speculation_enabled: bool = knob(
        True, group="core", flags=None, help="speculative execution and early client responses"
    )
    epoch_sync_enabled: bool = knob(
        True, group="core", flags=None, help="epoch-based view synchronisation"
    )
    check_safety: bool = knob(
        True, group="core", flags=None,
        help="verify after the run that honest committed ledgers are prefixes of each other",
    )
    max_slots_per_view: int = knob(
        64, group="core", flags=None, help="slots a slotted leader may propose in one view"
    )
    knee_factor: float = knob(
        0.9, group="mempool", flags=None,
        help="default client population as a fraction of the protocol's pipeline knee",
    )
    codec: str = knob(
        "binary", group="core", flags=None, choices=("binary",),
        help="wire codec: binary (per-type struct layouts, envelope versions 10-11) is the only "
             "framed format, for live sockets and the simulator's byte accounting alike",
    )
    pipeline_depth: int = knob(
        1, group="core", flags=("--pipeline-depth",), low=1,
        help="uncertified slot proposals a slotted leader keeps in flight (>1 needs a protocol "
             "with supports_slotting, e.g. hotstuff-1-slotting); 1 is the paper's sequential "
             "slotting, deeper pipelines overlap dissemination with vote aggregation",
    )
    faults: Optional[Dict] = knob(
        None, group="faults", flags=("--faults",), parse=_plan_file, metavar="PLAN.json",
        help="chaos: a FaultPlan (a JSON file on the CLI, a plain dict in code) whose crash/"
             "restart/pause/partition events fire during the run; implies durable stores",
    )
    crash_points: Optional[Dict] = knob(
        None, group="faults", flags=None,
        help="crash-point fuzzing: a CrashPointPlan as a plain dict, crashing replicas at "
             "protocol-relative hooks instead of fixed times; composable with faults",
    )
    storage_dir: Optional[str] = knob(
        None, group="durability", flags=("--storage-dir",),
        help="directory for file-backed replica stores (default: in-memory; the chaos engine "
             "holds stores across restarts either way)",
    )
    checkpoint_interval: Optional[int] = knob(
        None, group="durability", flags=("--checkpoint-interval",), low=1, metavar="COMMITS",
        help="snapshot the state machine and truncate the WAL / block log every N commits per "
             "replica (default: checkpointing off); implies durable stores",
    )
    trace: bool = knob(
        False, group="telemetry", flags=("--trace",),
        help="record per-transaction lifecycle spans, a phase-level latency breakdown and a "
             "windowed time series (off by default; an untraced run pays nothing)",
    )
    trace_max_txns: int = knob(
        2000, group="telemetry", flags=("--trace-max-txns",), low=1,
        help="cap on fully-sampled transaction spans (first post-warmup submissions win; "
             "event counters stay exact past it)",
    )
    trace_bucket: Optional[float] = knob(
        None, group="telemetry", flags=("--trace-bucket",), positive=True, metavar="SECONDS",
        help="time-series bucket width (default: duration/8, clamped to 20ms..1s)",
    )
    trace_sampler: str = knob(
        "head", group="telemetry", flags=("--trace-sampler",), choices=_trace_samplers,
        help="span sampling once the cap fills: head keeps the first N, reservoir a uniform "
             "sample over the whole run, tail the slowest",
    )
    trace_max_events: int = knob(
        4096, group="telemetry", flags=("--trace-max-events",), low=1,
        help="ring size for raw protocol events and trace instants",
    )
    trace_reservoir: int = knob(
        512, group="telemetry", flags=None, low=1, help="per-bucket latency reservoir size"
    )
    trace_stream: Optional[str] = knob(
        None, group="telemetry", flags=("--trace-stream",), metavar="FILE.jsonl",
        help="stream spans, events and closed buckets to this JSONL file as the run progresses "
             "(bounded memory; implies --trace; readable mid-run by `repro trace` / `watch`)",
    )
    trace_detect: bool = knob(
        True, group="telemetry", flags=("--no-detect",),
        help="disable the online SLO detector (commit-stall, view-change-storm, "
             "mempool-saturation, speculation-lead-collapse) over the trace time series",
    )
    scrape_port: Optional[int] = knob(
        None, group="telemetry", flags=("--scrape-port",), low=0, high=65535, metavar="PORT",
        help="live mode: serve per-replica /metrics, /healthz and /readyz on PORT+replica_id "
             "(0: ephemeral ports, printed at startup; default: endpoints off)",
    )
    distributed_mempool: bool = knob(
        False, group="mempool", flags=("--distributed-mempool",),
        help="per-replica transaction pools fed by clients broadcasting every request, leaders "
             "deduplicating against committed / in-flight transactions and the snapshot txn-id "
             "horizon (default: one shared in-process pool, i.e. zero-cost dissemination, so "
             "protocol comparisons measure consensus alone)",
    )
    mempool_limit: Optional[int] = knob(
        None, group="mempool", flags=("--mempool-limit",), low=1, metavar="TXNS",
        help="admission cap on pending transactions per pool; adds beyond it are rejected and "
             "counted (admission_rejected), the backpressure signal for open-loop arrivals",
    )
    broadcast_requests: Optional[bool] = knob(
        None, group="mempool", flags=None,
        help="send every client request to all target replicas instead of round-robin "
             "(implied by distributed_mempool: per-replica pools starve without broadcast)",
    )

    def validate(self) -> "ExperimentSpec":
        """Check the spec for configuration errors before any simulator state exists.

        Raises :class:`~repro.errors.ConfigurationError` with a pointed
        message instead of letting a bad value fail deep inside the
        simulator.  Returns ``self`` so call sites can chain.  Per-field
        range and choice rules come from the :func:`knob` declarations; only
        the rules that relate several fields are spelled out here.
        """
        self.protocol = canonical_protocol(self.protocol)
        for spec_field in dataclasses.fields(self):
            _check_knob(
                spec_field.name, spec_field.metadata, getattr(self, spec_field.name), self.mode
            )
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError(
                f"warmup ({self.warmup}) must satisfy 0 <= warmup < duration ({self.duration})"
            )
        if self.pipeline_depth > self.max_slots_per_view:
            raise ConfigurationError(
                f"pipeline_depth ({self.pipeline_depth}) cannot exceed "
                f"max_slots_per_view ({self.max_slots_per_view})"
            )
        if self.pipeline_depth > 1 and not getattr(
            replica_class_for(self.protocol), "supports_slotting", False
        ):
            raise ConfigurationError(
                f"pipeline_depth > 1 needs a slotted protocol whose leader owns "
                f"consecutive slots (hotstuff-1-slotting); {self.protocol!r} "
                "rotates the leader every view"
            )
        if self.faults is not None:
            plan = FaultPlan.from_dict(self.faults)
            plan.validate(self.n, mode=self.mode)
            self.faults = plan.to_dict()  # normalize (accepts FaultPlan instances)
        if self.crash_points is not None:
            crash_plan = CrashPointPlan.from_dict(self.crash_points)
            crash_plan.validate(self.n, mode=self.mode)
            self.crash_points = crash_plan.to_dict()
        if self.trace_stream:
            self.trace = True
        if self.broadcast_requests is None:
            self.broadcast_requests = self.distributed_mempool
        elif self.distributed_mempool and not self.broadcast_requests:
            raise ConfigurationError(
                "distributed_mempool needs broadcast_requests: with round-robin "
                "submission a rotating leader's local pool would starve"
            )
        if self.scrape_port is not None and self.mode != "live":
            raise ConfigurationError(
                "scrape_port serves HTTP from the live runtime; "
                "sim runs have no replica processes to scrape"
            )
        return self

    def to_dict(self) -> Dict:
        """Flatten the spec to the plain-JSON document replica processes load.

        Only plain data can cross a process boundary: a spec carrying
        configured behaviour objects or a custom latency model (the
        ``wire=False`` knobs) has no serialized form and is rejected.
        """
        doc = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.metadata["wire"]:
                doc[spec_field.name] = copy.deepcopy(value)
            elif value:
                raise ConfigurationError(
                    f"{spec_field.name} holds live objects and cannot be serialized for "
                    "another process; configure it per-process (geo delay: use `regions`, "
                    "carried by the deployment config)"
                )
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "ExperimentSpec":
        """Rebuild a spec shipped by :meth:`to_dict`; unknown or non-wire keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls) if f.metadata["wire"]}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown spec fields in document: {sorted(unknown)}")
        return cls(**doc)


def add_spec_arguments(
    parser, groups: Sequence[str], omit: Sequence[str] = (), spec_class=None, **default_overrides
) -> None:
    """Add one flag per CLI-visible knob of the named *groups* to an argparse *parser*.

    Spelling, aliases, type, choices, metavar and help all come from the
    field's :func:`knob` declaration; ``dest`` is the field name, so
    :func:`spec_from_args` reads the namespace back without a mapping.
    *omit* leaves out whole fields (by name) or single spellings (by flag)
    a sub-command does not offer; *default_overrides* replace the dataclass
    default where a sub-command's differs (e.g. ``duration=15.0`` for
    ``live``).  Bool knobs become switches that flip their default.
    """
    spec_class = spec_class or ExperimentSpec
    hints = get_type_hints(spec_class)
    sections = {group: parser.add_argument_group(f"{group} knobs") for group in groups}
    for spec_field in dataclasses.fields(spec_class):
        meta = spec_field.metadata
        flags = [flag for flag in meta["flags"] or () if flag not in omit]
        if meta["group"] not in sections or spec_field.name in omit or not flags:
            continue
        default = default_overrides.get(spec_field.name, spec_field.default)
        options: Dict = {"dest": spec_field.name, "help": meta["help"]}
        if default is dataclasses.MISSING:
            options["required"] = True
        else:
            options["default"] = default
        if isinstance(spec_field.default, bool):
            options["action"] = "store_false" if spec_field.default else "store_true"
        else:
            hint = hints[spec_field.name]  # Optional[int] -> int
            scalar = next((arg for arg in get_args(hint) if arg is not type(None)), hint)
            options["type"] = meta["parse"] or scalar
            options["metavar"] = meta["metavar"]
            choices = meta["choices"]
            options["choices"] = choices() if callable(choices) else choices
        sections[meta["group"]].add_argument(*flags, **options)


def spec_from_args(args, spec_class=None, **fixed) -> ExperimentSpec:
    """Build the spec a parsed namespace describes (the inverse of :func:`add_spec_arguments`).

    Knobs the sub-command did not offer keep their dataclass default;
    *fixed* values (e.g. ``mode="live"``) win over the namespace.
    """
    spec_class = spec_class or ExperimentSpec
    values = {
        spec_field.name: getattr(args, spec_field.name)
        for spec_field in dataclasses.fields(spec_class)
        if spec_field.metadata["flags"] and hasattr(args, spec_field.name)
    }
    values.update(fixed)
    return spec_class(**values)


@dataclass
class RunResult:
    """Everything a scenario needs back from one run."""

    spec: ExperimentSpec
    summary: MetricsSummary
    replicas: List[BaseReplica]
    client_pool: ClientPool
    network_stats: Dict[str, int]
    #: Chaos summary (:meth:`repro.faults.injector.ChaosController.report`):
    #: incidents, recovery times, ops lost, prefix agreement.  ``None`` for
    #: fault-free runs.
    chaos: Optional[Dict] = None
    #: The run's :class:`~repro.obs.trace.TraceRecorder` when ``spec.trace``
    #: was set, ``None`` otherwise.
    trace: Optional[object] = None
    #: Multi-process coordinator summary
    #: (:func:`repro.live.procs.run_multiprocess_experiment`): per-process
    #: committed chains, counters and the cross-process prefix check.
    #: ``None`` for single-process runs.
    multiproc: Optional[Dict] = None

    @property
    def throughput(self) -> float:
        """Committed transactions per second (post-warmup)."""
        return self.summary.throughput_tps

    @property
    def latency_ms(self) -> float:
        """Average client latency in milliseconds (post-warmup)."""
        return self.summary.avg_latency * 1000.0

    def to_row(self, **extra) -> Dict:
        """Flatten the result into a report row (plus scenario-specific *extra* columns).

        This is the single row shape shared by the scenario engine and the
        CLI tables.
        """
        row = {
            "protocol": self.spec.protocol,
            "throughput_tps": round(self.throughput, 1),
            "avg_latency_ms": round(self.latency_ms, 3),
            "p99_latency_ms": round(self.summary.p99_latency * 1000.0, 3),
            "committed_txns": self.summary.committed_txns,
            "rollbacks": self.summary.rollbacks,
        }
        if self.chaos is not None:
            recovery = self.chaos.get("max_recovery_s")
            if recovery is not None:
                row["recovery_ms"] = round(recovery * 1000.0, 3)
            row["ops_lost"] = self.chaos.get("ops_lost_to_rollback", 0)
            row["prefix_ok"] = bool(self.chaos.get("prefix_agreement", True))
            row["wal_ok"] = not self.chaos.get("wal_vote_violations")
            row["events_skipped"] = self.chaos.get("skipped_events", 0)
            row["crashes"] = self.chaos.get("crashes", 0)
            row["recovered"] = self.chaos.get("recovered", 0)
            row["superseded"] = self.chaos.get("superseded", 0)
        if self.spec.checkpoint_interval is not None:
            row["snapshots"] = sum(
                replica.checkpointer.snapshots_taken
                for replica in self.replicas
                if replica.checkpointer is not None
            )
            row["state_transfers"] = sum(
                replica.snapshots_installed for replica in self.replicas
            )
        if self.trace is not None:
            breakdown = self.trace.phase_breakdown()
            row["trace_resp_ms"] = round(breakdown.response_s * 1000.0, 3)
            row["trace_commit_ms"] = round(breakdown.commit_s * 1000.0, 3)
            row["spec_lead_ms"] = round(breakdown.speculation_lead_s * 1000.0, 3)
        row.update(extra)
        return row


def latency_model_for(spec: ExperimentSpec) -> LatencyModel:
    """The spec's link model: custom, geo (replicas round-robin over ``regions``) or constant."""
    if spec.latency_model is not None:
        return spec.latency_model
    if spec.regions:
        placement = {
            replica_id: spec.regions[replica_id % len(spec.regions)]
            for replica_id in range(spec.n)
        }
        return GeoLatencyModel(placement, default_region=spec.client_region)
    return ConstantLatency(spec.base_latency)


def default_num_clients(spec: ExperimentSpec, replica_class) -> int:
    """Size the closed-loop client population at the protocol's pipeline knee.

    The paper tunes the client count to the saturation knee so that measured
    latency reflects protocol half-phases rather than queueing; the knee is
    roughly ``client_knee_blocks`` full batches in flight (more for protocols
    with more half-phases), scaled by ``knee_factor``.
    """
    knee_blocks = getattr(replica_class, "client_knee_blocks", 4.0)
    return max(16, int(round(spec.knee_factor * knee_blocks * spec.batch_size)))


@dataclass
class Deployment:
    """The consensus-side components of one deployment, substrate-agnostic.

    Built by :func:`build_deployment` for the simulator and the live runtime
    alike, so the two substrates can never drift apart in how they configure
    protocols, crypto, workloads or replicas.
    """

    config: ProtocolConfig
    authority: CertificateAuthority
    leaders: RoundRobinLeaderElection
    workload: object
    mempool: Mempool
    metrics: MetricsCollector
    costs: CostModel
    replica_class: type
    replicas: List[BaseReplica]
    #: Configured per-replica behaviours (so a restarted replica keeps its
    #: adversary model instead of silently turning honest).
    behaviors: Dict[int, ReplicaBehavior] = field(default_factory=dict)
    #: Snapshot-every-N-commits cadence (``None`` disables checkpointing);
    #: restarted replicas get a fresh manager at the same cadence.
    checkpoint_interval: Optional[int] = None
    #: The deployment-wide :class:`~repro.obs.trace.TraceRecorder`, or
    #: ``None`` when tracing is off.  Chaos adapters re-attach it to
    #: replicas they rebuild.
    tracer: Optional[object] = None
    #: Per-replica pools in the distributed-mempool model (``None`` for the
    #: shared pool, where ``mempool`` is the single cluster-wide instance).
    mempools: Optional[Dict[int, Mempool]] = None
    #: Admission cap distributed pools are built with (restarts reuse it).
    mempool_limit: Optional[int] = None
    #: Set by :func:`prepare`: the chaos controller of a run with a fault or
    #: crash-point plan, and the client pool when this process hosts it.
    controller: Optional[ChaosController] = None
    client_pool: Optional[ClientPool] = None

    def mempool_for(self, replica_id: int) -> Mempool:
        """The pool replica *replica_id* proposes from (shared or its own)."""
        if self.mempools is not None:
            return self.mempools[replica_id]
        return self.mempool

    def fresh_mempool_for(self, replica_id: int) -> Mempool:
        """The pool a *restarted* replica starts with.

        Shared model: the same cluster-wide instance — it survives crashes by
        construction.  Distributed model: a fresh, empty pool, because a real
        process crash loses its in-memory pool; recovery re-marks the
        committed prefix and the snapshot txn horizon prunes the rest, and
        client retries / broadcast refill the pending set.
        """
        if self.mempools is None:
            return self.mempool
        pool = Mempool(limit=self.mempool_limit, shared=False)
        pool.tracer = self.tracer
        self.mempools[replica_id] = pool
        return pool


def build_deployment(
    spec: ExperimentSpec, scheduler, network_for, store_for=None, hosted=None
) -> Deployment:
    """Construct config, crypto, workload and the *hosted* replicas of one deployment.

    ``scheduler`` is the shared time source (a :class:`Simulator` or a
    :class:`~repro.live.runtime.WallClock`); ``network_for(replica_id)``
    returns the network endpoint each replica is built against (the one
    shared :class:`SimNetwork`, or that replica's ``AsyncTcpTransport``).
    ``store_for(replica_id)``, when given, supplies each replica's durable
    :class:`~repro.storage.store.ReplicaStore` (chaos runs) — the replica is
    then built over the store's persisted block tree.  ``hosted`` names the
    replica ids this process runs (default: all ``spec.n``); replicas hosted
    elsewhere are not built — keys, workload tables and protocol config
    derive from the spec and seed alone, so every process agrees on them.
    The first honest hosted replica is marked as the metrics reporter.
    """
    hosted = list(range(spec.n) if hosted is None else hosted)
    config = ProtocolConfig(
        n=spec.n,
        batch_size=spec.batch_size,
        view_timeout=spec.view_timeout,
        delta=spec.delta,
        speculation_enabled=spec.speculation_enabled,
        epoch_sync_enabled=spec.epoch_sync_enabled,
        seed=spec.seed,
        max_slots_per_view=spec.max_slots_per_view,
        pipeline_depth=spec.pipeline_depth,
    )
    scheme = ThresholdScheme(n=config.n, threshold=config.quorum, seed=spec.seed)
    authority = CertificateAuthority(scheme)
    leaders = RoundRobinLeaderElection(config.n)
    workload = make_workload(spec.workload, **spec.workload_kwargs)
    mempools: Optional[Dict[int, Mempool]] = None
    if spec.distributed_mempool:
        mempools = {
            replica_id: Mempool(limit=spec.mempool_limit, shared=False) for replica_id in hosted
        }
        mempool = next(iter(mempools.values()), None)
    else:
        mempool = Mempool(limit=spec.mempool_limit)
    metrics = MetricsCollector(warmup=spec.warmup)
    costs = CostModel()
    tracer = None
    if spec.trace:
        from repro.obs.detect import SloDetector
        from repro.obs.sampling import make_sampler
        from repro.obs.stream import StreamingTraceSink
        from repro.obs.trace import TraceRecorder, default_bucket_width

        tracer = TraceRecorder(
            clock=scheduler,
            warmup=spec.warmup,
            bucket=spec.trace_bucket or default_bucket_width(spec.duration),
            max_txns=spec.trace_max_txns,
            max_events=spec.trace_max_events,
            reservoir_per_bucket=spec.trace_reservoir,
        )
        if spec.trace_sampler != "head":
            tracer.sampler = make_sampler(spec.trace_sampler, spec.trace_max_txns, tracer._rng)
        if spec.trace_detect:
            SloDetector(tracer)
        if spec.trace_stream:
            StreamingTraceSink(tracer, spec.trace_stream)
        for pool in mempools.values() if mempools is not None else (mempool,):
            pool.tracer = tracer
    replica_class = replica_class_for(spec.protocol)
    replicas: List[BaseReplica] = []
    for replica_id in hosted:
        store = store_for(replica_id) if store_for is not None else None
        replica = replica_class(
            replica_id,
            scheduler,
            network_for(replica_id),
            config,
            authority,
            leaders,
            workload.make_state_machine(),
            mempools[replica_id] if mempools is not None else mempool,
            metrics,
            costs=costs,
            behavior=spec.behaviors.get(replica_id),
            block_store=store.open_blockstore() if store is not None else None,
            store=store,
        )
        if spec.checkpoint_interval is not None and store is not None:
            from repro.checkpoint.manager import CheckpointManager

            replica.checkpointer = CheckpointManager(replica, spec.checkpoint_interval)
        replica.tracer = tracer
        replicas.append(replica)
    honest = [replica for replica in replicas if not replica.behavior.is_byzantine]
    if replicas:
        (honest or replicas)[0].report_metrics = True
    return Deployment(
        config=config,
        authority=authority,
        leaders=leaders,
        workload=workload,
        mempool=mempool,
        metrics=metrics,
        costs=costs,
        replica_class=replica_class,
        replicas=replicas,
        behaviors=dict(spec.behaviors),
        checkpoint_interval=spec.checkpoint_interval,
        tracer=tracer,
        mempools=mempools,
        mempool_limit=spec.mempool_limit,
    )


def build_replica_stores(spec: ExperimentSpec, hosted: Sequence[int]) -> Dict[int, ReplicaStore]:
    """One durable store per hosted replica: file-backed under ``spec.storage_dir``
    when set, in-memory otherwise (either way the store outlives crashes).

    Every experiment starts from genesis, so file-backed stores left over
    from a *previous* run are cleared — replaying an unrelated run's history
    into fresh replicas would fork their ledgers at the first commit.
    """
    if spec.storage_dir:
        stores = {
            replica_id: ReplicaStore.at_path(spec.storage_dir, replica_id)
            for replica_id in hosted
        }
        for store in stores.values():
            store.clear()
        return stores
    return {replica_id: ReplicaStore.memory() for replica_id in hosted}


def assign_chaos_reporter(deployment: Deployment, avoid: Set[int]) -> None:
    """Re-pick the metrics reporter to dodge the replicas a plan will take down.

    ``build_deployment`` marks the first honest replica; under a fault plan
    that replica may crash and freeze the global counters, so prefer an
    honest replica no plan (time-scheduled or crash-point) statically
    touches.  Dynamic ``"leader"`` targets cannot be predicted — the chaos
    adapters hand the role over at crash time as a fallback.
    """
    honest = [r for r in deployment.replicas if not r.behavior.is_byzantine]
    preferred = [r for r in honest if r.replica_id not in avoid]
    pick = (preferred or honest or deployment.replicas)[0]
    for replica in deployment.replicas:
        replica.report_metrics = replica is pick


def prepare(
    spec: ExperimentSpec,
    scheduler,
    network_for,
    hosted: Sequence[int],
    chaos_adapter=None,
    client_class=None,
    latency: Optional[LatencyModel] = None,
    **client_args,
) -> Deployment:
    """Phase 1: build everything the *hosted* node ids need; schedule nothing.

    Fault / crash-point plan → durable stores → :func:`build_deployment` for
    the hosted replica ids → chaos controller (``chaos_adapter(deployment,
    stores)`` supplies the substrate's adapter) → a ``client_class`` pool when
    :data:`CLIENT_POOL_NODE_ID` is hosted, built against
    ``network_for(CLIENT_POOL_NODE_ID)`` with the substrate's *client_args*
    and submitting to the replicas :func:`_client_targets` picks under
    *latency* — the spec's link model unless the geography comes from
    elsewhere (a coordinator's deployment document).
    :func:`start` arms what this returns.
    """
    replica_ids = [node_id for node_id in hosted if node_id != CLIENT_POOL_NODE_ID]
    chaotic = bool(spec.faults or spec.crash_points)
    stores = None
    if chaotic or spec.storage_dir or spec.checkpoint_interval is not None:
        stores = build_replica_stores(spec, replica_ids)
    deployment = build_deployment(
        spec,
        scheduler,
        network_for,
        store_for=stores.__getitem__ if stores is not None else None,
        hosted=replica_ids,
    )
    if chaotic:
        plan = FaultPlan.from_dict(spec.faults or {})
        crash_plan = CrashPointPlan.from_dict(spec.crash_points or {})
        assign_chaos_reporter(deployment, plan.touched_replicas() | crash_plan.touched_replicas())
        deployment.controller = ChaosController(
            plan, scheduler, chaos_adapter(deployment, stores)
        )
        if crash_plan.points:
            injector = CrashPointInjector(crash_plan, scheduler, deployment.controller)
            injector.attach(deployment.replicas)
    if CLIENT_POOL_NODE_ID in hosted:
        deployment.client_pool = client_class(
            sim=scheduler,
            network=network_for(CLIENT_POOL_NODE_ID),
            workload=deployment.workload,
            config=deployment.config,
            metrics=deployment.metrics,
            num_clients=spec.num_clients or default_num_clients(spec, deployment.replica_class),
            required_quorum=client_quorum_for(spec.protocol, deployment.config),
            broadcast_requests=bool(spec.broadcast_requests),
            target_replicas=_client_targets(
                spec, latency_model_for(spec) if latency is None else latency
            ),
            **client_args,
        )
        deployment.client_pool.tracer = deployment.tracer
    return deployment


def start(deployment: Deployment) -> None:
    """Arm the fault plan, then start the hosted replicas and the client pool.

    The first point of a run at which anything is scheduled, so a wall clock
    can restart its origin right before it and every fault-plan timestamp
    counts from the moment the protocol starts.
    """
    if deployment.controller is not None:
        deployment.controller.install()
    for replica in deployment.replicas:
        replica.start()
    if deployment.client_pool is not None:
        deployment.client_pool.start()


def verify(spec: ExperimentSpec, delivery_errors: Dict[int, Sequence], chains) -> bool:
    """Phase 5: fail the run on any handler exception or divergent committed prefix.

    *delivery_errors* maps node id to what its transport collected (exception
    objects for hosted nodes, their ``repr`` strings when read from a replica
    process's result file); any entry raises :class:`ConsensusError` naming
    the node.  *chains* are the honest replicas' committed hash chains,
    wherever they ran; unless every one is a prefix of the longest,
    :class:`SafetyViolationError` is raised when ``spec.check_safety`` is set
    and ``False`` returned otherwise (this never happens with the implemented
    behaviours; the check guards the reproduction itself).
    """
    for node_id, errors in sorted(delivery_errors.items()):
        if errors:
            first = errors[0]
            who = "client pool" if node_id == CLIENT_POOL_NODE_ID else f"replica {node_id}"
            raise ConsensusError(
                f"{who} (node {node_id}) hit {len(errors)} delivery error(s); "
                f"first: {first if isinstance(first, str) else repr(first)}"
            ) from (first if isinstance(first, BaseException) else None)
    consistent = chains_prefix_consistent(chains)
    if spec.check_safety and not consistent:
        raise SafetyViolationError(
            "honest replicas committed ledgers that are not prefixes of the longest one"
        )
    return consistent


def report(
    spec: ExperimentSpec,
    deployment: Deployment,
    network_stats: Dict,
    elapsed: float,
    multiproc: Optional[Dict] = None,
) -> RunResult:
    """Phase 6: fold counters, finalize the trace and assemble the :class:`RunResult`.

    *network_stats* is the run's traffic snapshot (the simulated network's, or
    the hosted transports' merged at window close), *elapsed* the measured
    window.  The chaos report is where operators look after a fault run, so
    the online detector's alert history is folded into it.
    """
    metrics, replicas, tracer = deployment.metrics, deployment.replicas, deployment.tracer
    honest = [replica for replica in replicas if not replica.behavior.is_byzantine]
    metrics.rollbacks = sum(replica.ledger.rollback_count for replica in honest)
    metrics.rolled_back_txns = sum(replica.ledger.rolled_back_txns for replica in honest)
    metrics.speculative_executions = sum(
        replica.ledger.speculated_block_count for replica in honest
    )
    metrics.pruned_blocks = sum(replica.block_store.pruned_count for replica in honest)
    metrics.messages_sent = network_stats["messages_sent"]
    if tracer is not None:
        tracer.finalize(elapsed)
    summary = metrics.summarize(spec.protocol, elapsed)
    chaos = None
    if deployment.controller is not None:
        chaos = deployment.controller.report(replicas)
        if tracer is not None and tracer.detector is not None:
            chaos["alerts"] = tracer.detector.summary()
    return RunResult(
        spec=spec,
        summary=summary,
        replicas=replicas,
        client_pool=deployment.client_pool,
        network_stats=network_stats,
        chaos=chaos,
        trace=tracer,
        multiproc=multiproc,
    )


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Run one experiment and return its result.

    Raises :class:`SafetyViolationError` if ``spec.check_safety`` is set and
    the committed ledgers of two honest replicas diverge (see :func:`verify`).
    The spec is validated first, so configuration mistakes raise
    :class:`~repro.errors.ConfigurationError` before any simulator state is
    built.

    Specs with ``mode="live"`` are dispatched to the asyncio deployment
    runtime (:func:`repro.live.deploy.run_live_experiment`), which executes
    the same replicas over real localhost TCP sockets and returns through the
    same phases.
    """
    if spec.mode == "live":
        from repro.live.deploy import run_live_experiment  # local import: avoids cycle

        return run_live_experiment(spec)
    from repro.live.codec import wire_codec_scope

    spec.validate()
    with wire_codec_scope(spec.codec):  # fresh per-shape size memo for the run
        return _run_sim(spec)


def _run_sim(spec: ExperimentSpec) -> RunResult:
    """Full placement on the simulated substrate: nothing to serve, poll or close."""
    from repro.faults.sim import SimChaosAdapter  # local imports: avoid cycles
    from repro.net.network import SimNetwork

    sim = Simulator(seed=spec.seed)
    faults = FaultInjector()
    if spec.delay_injection:
        impacted = spec.delay_injection.get("impacted", [])
        extra = spec.delay_injection.get("extra_delay", 0.0)
        if impacted and extra > 0:
            faults.inject_delay(impacted, extra)
    latency = latency_model_for(spec)
    network = SimNetwork(sim, latency=latency, faults=faults)
    deployment = prepare(
        spec,
        sim,
        lambda node_id: network,
        [*range(spec.n), CLIENT_POOL_NODE_ID],
        chaos_adapter=functools.partial(SimChaosAdapter, sim, network),
        client_class=ClientPool,
    )
    start(deployment)
    sim.run(until=spec.duration)
    verify(spec, {}, honest_committed_chains(deployment.replicas))
    return report(spec, deployment, network.stats.as_dict(), spec.duration)


def _client_targets(spec: ExperimentSpec, latency: LatencyModel) -> Optional[List[int]]:
    """Prefer replicas co-located with the clients when a geo model is in use.

    Broadcasting clients (distributed mempool) must reach *every* replica —
    a rotating leader whose pool never hears a request could not propose it —
    so the co-location preference only applies to round-robin submission.
    """
    if spec.broadcast_requests:
        return None
    if not isinstance(latency, GeoLatencyModel):
        return None
    client_region = latency.region_of(CLIENT_POOL_NODE_ID)
    local = [
        replica_id
        for replica_id in range(spec.n)
        if latency.region_of(replica_id) == client_region
    ]
    return local or None
