"""Declarative fault plans.

A :class:`FaultPlan` describes *what goes wrong and when* during one
experiment run, as plain data: a list of :class:`FaultEvent` entries.  Most
events are keyed by time (simulated seconds in ``mode="sim"``, wall-clock
seconds in ``mode="live"``); a *crash point* is a crash keyed by a protocol
step instead.  Plans round-trip through JSON exactly like
:class:`~repro.experiments.spec.ScenarioSpec`, so a chaos campaign can live
in a config file and sweep across the scenario engine's grid.

Actions
-------
``crash``
    Kill a replica: its in-memory state is lost; only its durable
    :class:`~repro.storage.store.ReplicaStore` survives.  ``replica`` may be
    an id or the string ``"leader"``, which resolves *at fire time* to the
    leader of the highest view any live replica is in — the "kill the leader
    mid-speculation" experiment.
``restart``
    Re-spawn a previously crashed replica from its store (WAL replay +
    committed-prefix re-execution + fetch catch-up).  ``"leader"`` restarts
    the replica most recently crashed by a ``"leader"`` crash.
``pause`` / ``resume``
    Network-isolate a replica without killing it (drop all its traffic),
    then reconnect it.  Simulation-only.
``partition`` / ``heal``
    Split the replicas into two groups that cannot communicate, then heal
    every partition.  Simulation-only.

Crash points
------------
``{"action": "crash", "replica": r, "hook": h, "occurrence": k, "down_for": d}``
crashes replica ``r`` at the ``k``-th time its lineage (across restarts)
reaches hook ``h``, and restarts it ``d`` seconds later.  The interesting
recovery bugs live *between* two steps of the protocol, where no wall-clock
time can aim; the consensus layer fires these hooks
(:data:`~repro.consensus.replica.HOOK_BEFORE_VOTE_WAL` and friends):

``before-vote-wal``
    The vote decision is made but nothing is persisted and nothing was sent.
    A recovered replica must be free to vote in that view again.
``after-vote-wal``
    The vote is durable but never left the replica ("between WAL append and
    send").  A recovered replica must *not* vote differently in that view.
``torn-vote-wal``
    Fires at the same spot as ``after-vote-wal`` but the tail of the WAL is
    torn first (crash mid-append): after replay the vote record is gone, so
    recovery must behave exactly as for ``before-vote-wal``.
``mid-cert-formation``
    A leader has aggregated a quorum into a certificate but dies before
    proposing on top of it.
``mid-snapshot``
    A checkpoint snapshot was persisted but the WAL / block log were not yet
    truncated (requires a deployment with ``checkpoint_interval`` set).
    Recovery must prefer the snapshot over the overlapping log prefix.
``post-compaction``
    The logs were just truncated below a fresh snapshot; recovery must work
    from the snapshot plus the suffix alone.

:meth:`FaultPlan.randomized` draws crash points from a seed, so the scenario
engine can sweep seeds (``kind="chaos-fuzz"``) and the ``repro fuzz`` CLI can
replay any failing seed exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.checkpoint.manager import HOOK_MID_SNAPSHOT, HOOK_POST_COMPACTION
from repro.consensus.replica import HOOK_AFTER_VOTE_WAL, HOOK_BEFORE_VOTE_WAL, HOOK_MID_CERT
from repro.errors import ConfigurationError

#: Actions a fault event may carry.
ACTIONS = ("crash", "restart", "pause", "resume", "partition", "heal")

#: Dynamic replica target resolved at fire time.
LEADER = "leader"

#: Actions a live (asyncio) plan may take: pause and partition need the
#: simulated network's fault rules, which live transports do not have.
LIVE_ACTIONS = ("crash", "restart")

#: The torn-write variant of ``after-vote-wal`` (tears the WAL tail first).
HOOK_TORN_VOTE_WAL = "torn-vote-wal"

#: Every hook a crash point may name.
CRASH_HOOKS = (
    HOOK_BEFORE_VOTE_WAL,
    HOOK_AFTER_VOTE_WAL,
    HOOK_TORN_VOTE_WAL,
    HOOK_MID_CERT,
    HOOK_MID_SNAPSHOT,
    HOOK_POST_COMPACTION,
)

#: Hooks that only fire when checkpointing is enabled on the deployment.
SNAPSHOT_HOOKS = (HOOK_MID_SNAPSHOT, HOOK_POST_COMPACTION)

#: Occurrence ceilings for rare hooks: snapshots fire once per
#: ``checkpoint_interval`` commits, so a uniformly drawn occurrence in
#: ``1..max_occurrence`` would routinely plan crashes past the end of a short
#: fuzz run (a planned-but-never-fired point fails the sweep).
_HOOK_OCCURRENCE_CAP = {
    HOOK_MID_SNAPSHOT: 3,
    HOOK_POST_COMPACTION: 3,
}

#: JSON keys of a fault event, in the order :meth:`FaultEvent.to_dict` writes them.
_EVENT_KEYS = ("at", "action", "replica", "groups", "hook", "occurrence", "down_for")


@dataclass(frozen=True)
class FaultEvent:
    """One fault: *action* fires at time *at* — or, for a crash point (*hook*
    set, *at* ``None``), at the *occurrence*-th firing of *hook* on *replica*,
    which then restarts *down_for* seconds later."""

    at: Optional[float]
    action: str
    replica: Optional[Union[int, str]] = None
    groups: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    hook: Optional[str] = None
    occurrence: Optional[int] = None
    down_for: Optional[float] = None

    @classmethod
    def crash_point(cls, replica: int, hook: str, occurrence: int, down_for: float) -> "FaultEvent":
        """Crash *replica* at the *occurrence*-th firing of *hook*, restart after *down_for*."""
        return cls(
            at=None, action="crash", replica=replica, hook=hook,
            occurrence=occurrence, down_for=down_for,
        )

    @property
    def site(self) -> Optional[str]:
        """The instrumented hook a crash point listens on (torn shares after-vote-wal's)."""
        return HOOK_AFTER_VOTE_WAL if self.hook == HOOK_TORN_VOTE_WAL else self.hook

    def to_dict(self) -> Dict[str, Any]:
        event: Dict[str, Any] = {}
        for key in _EVENT_KEYS:
            value = getattr(self, key)
            if value is not None:
                event[key] = [list(group) for group in value] if key == "groups" else value
        return event

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        try:
            if "hook" in data:
                return cls(
                    at=data.get("at"),
                    action=str(data["action"]),
                    replica=int(data["replica"]),
                    hook=str(data["hook"]),
                    occurrence=int(data["occurrence"]),
                    down_for=float(data["down_for"]),
                )
            at = float(data["at"])
            action = str(data["action"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                "a fault event needs 'at' and 'action'; a crash point needs 'action', "
                f"'replica', 'hook', 'occurrence' and 'down_for': {data!r}"
            ) from exc
        replica = data.get("replica")
        if replica is not None and replica != LEADER:
            replica = int(replica)
        groups = data.get("groups")
        if groups is not None:
            groups = tuple(tuple(int(node) for node in group) for group in groups)
        return cls(at=at, action=action, replica=replica, groups=groups)


def _event_order(event: FaultEvent) -> Tuple:
    # Time-keyed events by time (ties keep their order), then crash points.
    if event.hook is None:
        return (0, event.at, 0, "", 0)
    return (1, 0.0, event.replica, event.site, event.occurrence)


@dataclass
class FaultPlan:
    """An ordered fault schedule: time-keyed events by time, then crash points
    by ``(replica, hook site, occurrence)``."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=_event_order)

    # ----------------------------------------------------------- round trips
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Union["FaultPlan", Dict[str, Any]]) -> "FaultPlan":
        if isinstance(data, FaultPlan):
            return data
        if not isinstance(data, dict):
            raise ConfigurationError(f"a fault plan must be a dict, got {type(data).__name__}")
        return cls(events=[FaultEvent.from_dict(entry) for entry in data.get("events", [])])

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -------------------------------------------------------------- analysis
    def touched_replicas(self) -> Set[int]:
        """Static replica ids any crash/pause event targets (``"leader"`` excluded)."""
        touched: Set[int] = set()
        for event in self.events:
            if event.action in ("crash", "pause") and isinstance(event.replica, int):
                touched.add(event.replica)
        return touched

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------ validation
    def validate(self, n: int, mode: str = "sim") -> "FaultPlan":
        """Check the plan against a deployment of *n* replicas in *mode*.

        Raises :class:`~repro.errors.ConfigurationError` on unknown actions,
        out-of-range replicas, malformed partitions, unsupported live
        actions, time-keyed crash/restart/pause/resume sequences that do not
        pair up, and malformed or duplicate crash points.  Crash points work
        on both substrates: the hooks live in the shared consensus code.
        """
        down: Set[Union[int, str]] = set()
        paused: Set[Union[int, str]] = set()
        points: Set[Tuple[int, str, int]] = set()
        for event in self.events:
            if event.action not in ACTIONS:
                raise ConfigurationError(
                    f"unknown fault action {event.action!r}; available: {list(ACTIONS)}"
                )
            if mode == "live" and event.action not in LIVE_ACTIONS:
                raise ConfigurationError(
                    f"fault action {event.action!r} is simulation-only; live mode "
                    f"supports {list(LIVE_ACTIONS)}"
                )
            if event.hook is not None:
                self._validate_crash_point(event, n, points)
                continue
            if event.at is None or event.at < 0:
                raise ConfigurationError(f"fault event time must be >= 0, got {event.at}")
            if event.action in ("crash", "restart", "pause", "resume"):
                self._validate_target(event, n)
                target = event.replica
                if event.action == "crash":
                    if target in down:
                        raise ConfigurationError(
                            f"replica {target!r} crashed at t={event.at} while already down"
                        )
                    down.add(target)
                elif event.action == "restart":
                    if target not in down:
                        raise ConfigurationError(
                            f"replica {target!r} restarted at t={event.at} without a prior crash"
                        )
                    down.discard(target)
                elif event.action == "pause":
                    if target in paused or target in down:
                        raise ConfigurationError(
                            f"replica {target!r} paused at t={event.at} while unavailable"
                        )
                    paused.add(target)
                elif event.action == "resume":
                    if target not in paused:
                        raise ConfigurationError(
                            f"replica {target!r} resumed at t={event.at} without a prior pause"
                        )
                    paused.discard(target)
            elif event.action == "partition":
                self._validate_partition(event, n)
        return self

    @staticmethod
    def _validate_target(event: FaultEvent, n: int) -> None:
        if event.replica is None:
            raise ConfigurationError(f"fault action {event.action!r} needs a 'replica'")
        if event.replica == LEADER:
            if event.action not in ("crash", "restart"):
                raise ConfigurationError(
                    f"the dynamic 'leader' target only supports crash/restart, "
                    f"not {event.action!r}"
                )
            return
        if not isinstance(event.replica, int) or not 0 <= event.replica < n:
            raise ConfigurationError(
                f"fault target {event.replica!r} is not a replica id in [0, {n}) or 'leader'"
            )

    @staticmethod
    def _validate_crash_point(
        event: FaultEvent, n: int, seen: Set[Tuple[int, str, int]]
    ) -> None:
        if event.action != "crash" or event.at is not None:
            raise ConfigurationError(
                f"only a crash can be keyed by a hook, and then not by 'at': {event.to_dict()}"
            )
        if event.hook not in CRASH_HOOKS:
            raise ConfigurationError(
                f"unknown crash hook {event.hook!r}; available: {list(CRASH_HOOKS)}"
            )
        if not isinstance(event.replica, int) or not 0 <= event.replica < n:
            raise ConfigurationError(
                f"crash-point target {event.replica!r} is not a replica id in [0, {n})"
            )
        if event.occurrence is None or event.occurrence < 1:
            raise ConfigurationError(
                f"crash-point occurrence must be >= 1, got {event.occurrence}"
            )
        if event.down_for is None or event.down_for <= 0:
            raise ConfigurationError(
                f"crash-point down_for must be positive, got {event.down_for}"
            )
        key = (event.replica, event.site, event.occurrence)
        if key in seen:
            raise ConfigurationError(
                f"duplicate crash point for replica {event.replica} at "
                f"{event.site!r} occurrence {event.occurrence}"
            )
        seen.add(key)

    @staticmethod
    def _validate_partition(event: FaultEvent, n: int) -> None:
        if not event.groups or len(event.groups) != 2:
            raise ConfigurationError("a partition event needs 'groups': two lists of replica ids")
        group_a, group_b = (set(group) for group in event.groups)
        if not group_a or not group_b:
            raise ConfigurationError("partition groups must be non-empty")
        if group_a & group_b:
            raise ConfigurationError(f"partition groups overlap: {sorted(group_a & group_b)}")
        out_of_range = (group_a | group_b) - set(range(n))
        if out_of_range:
            raise ConfigurationError(
                f"partition groups contain unknown replicas: {sorted(out_of_range)}"
            )

    # --------------------------------------------------------------- builders
    @classmethod
    def single_crash(
        cls, replica: Union[int, str], at: float, down_for: float
    ) -> "FaultPlan":
        """Crash one replica at *at* and restart it ``down_for`` seconds later."""
        return cls(
            events=[
                FaultEvent(at=round(at, 9), action="crash", replica=replica),
                FaultEvent(at=round(at + down_for, 9), action="restart", replica=replica),
            ]
        )

    @classmethod
    def leader_crash(cls, at: float, down_for: float) -> "FaultPlan":
        """Crash whoever leads when the event fires (mid-speculation leader kill)."""
        return cls.single_crash(LEADER, at, down_for)

    @classmethod
    def cascade(
        cls, replicas: Sequence[int], start: float, down_for: float, gap: float
    ) -> "FaultPlan":
        """Crash/restart the given replicas one after another, *gap* seconds apart."""
        events: List[FaultEvent] = []
        for index, replica in enumerate(replicas):
            at = start + index * gap
            events.append(FaultEvent(at=round(at, 9), action="crash", replica=int(replica)))
            events.append(
                FaultEvent(at=round(at + down_for, 9), action="restart", replica=int(replica))
            )
        return cls(events=events)

    @classmethod
    def partition_heal(
        cls, group_a: Iterable[int], group_b: Iterable[int], at: float, heal_at: float
    ) -> "FaultPlan":
        """Partition the cluster into two groups at *at*, heal at *heal_at*."""
        return cls(
            events=[
                FaultEvent(
                    at=at,
                    action="partition",
                    groups=(tuple(int(node) for node in group_a), tuple(int(node) for node in group_b)),
                ),
                FaultEvent(at=round(heal_at, 9), action="heal"),
            ]
        )


    @classmethod
    def randomized(
        cls,
        n: int,
        seed: int,
        crashes: int = 2,
        down_for: float = 0.1,
        hooks: Sequence[str] = CRASH_HOOKS,
        max_occurrence: int = 40,
    ) -> "FaultPlan":
        """Draw a deterministic pseudo-random crash-point plan for *n* replicas.

        ``crashes`` points are drawn with distinct ``(replica, site,
        occurrence)`` keys; the same ``seed`` always yields the same plan, so
        a failing fuzz seed reproduces exactly.  Points may land on different
        replicas at nearby occurrences, which is how fuzz runs exercise
        ``> f`` simultaneous-down windows without scheduling them explicitly.
        """
        if crashes < 1:
            raise ConfigurationError(f"crashes must be >= 1, got {crashes}")
        if not hooks:
            raise ConfigurationError("at least one hook is required")
        for hook in hooks:
            if hook not in CRASH_HOOKS:
                raise ConfigurationError(
                    f"unknown crash hook {hook!r}; available: {list(CRASH_HOOKS)}"
                )
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        used: Set[Tuple[int, str, int]] = set()
        attempts = 0
        while len(events) < crashes and attempts < crashes * 50:
            attempts += 1
            hook = rng.choice(list(hooks))
            cap = min(max_occurrence, _HOOK_OCCURRENCE_CAP.get(hook, max_occurrence))
            event = FaultEvent.crash_point(
                replica=rng.randrange(n),
                hook=hook,
                occurrence=rng.randint(1, cap),
                down_for=round(down_for * rng.uniform(0.5, 1.5), 6),
            )
            key = (event.replica, event.site, event.occurrence)
            if key in used:
                continue
            used.add(key)
            events.append(event)
        return cls(events=events).validate(n)


def load_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault plan {path!r}: {exc}") from exc
    return FaultPlan.from_dict(data)


# ---------------------------------------------------------------------- presets
def _preset_kill_replica(n: int, at: float, down_for: float, replica: int) -> FaultPlan:
    return FaultPlan.single_crash(replica, at, down_for)


def _preset_kill_leader(n: int, at: float, down_for: float, replica: int) -> FaultPlan:
    return FaultPlan.leader_crash(at, down_for)


def _preset_cascade(n: int, at: float, down_for: float, replica: int) -> FaultPlan:
    # Crash f replicas one after another, each restarted before the next dies,
    # so the cluster keeps quorum while every fault budget slot gets exercised.
    f = max(1, (n - 1) // 3)
    return FaultPlan.cascade(list(range(f)), start=at, down_for=down_for, gap=down_for * 1.5)


def _preset_partition_heal(n: int, at: float, down_for: float, replica: int) -> FaultPlan:
    f = max(1, (n - 1) // 3)
    minority = list(range(n - f, n))
    majority = list(range(n - f))
    return FaultPlan.partition_heal(majority, minority, at=at, heal_at=at + down_for)


def _preset_blackout(n: int, at: float, down_for: float, replica: int) -> FaultPlan:
    # Crash f + 1 replicas simultaneously — more than the fault budget, so
    # consensus necessarily halts — then restart them all at once.  The
    # cluster must re-synchronise views (f+1 jump evidence + Wish retries)
    # and resume committing; this is the regression scenario for the
    # ">f simultaneous crashes" liveness stall.
    f = max(1, (n - 1) // 3)
    victims = list(range(f + 1))
    events = [
        FaultEvent(at=round(at, 9), action="crash", replica=victim) for victim in victims
    ] + [
        FaultEvent(at=round(at + down_for, 9), action="restart", replica=victim)
        for victim in victims
    ]
    return FaultPlan(events=events)


#: Named plans the CLI (``repro chaos <preset>``) and the chaos scenario expose.
PRESETS = {
    "kill-replica": _preset_kill_replica,
    "kill-leader": _preset_kill_leader,
    "cascade": _preset_cascade,
    "partition-heal": _preset_partition_heal,
    "blackout": _preset_blackout,
}


def chaos_preset(
    name: str,
    n: int,
    at: Optional[float] = None,
    down_for: Optional[float] = None,
    replica: int = 1,
    duration: Optional[float] = None,
) -> FaultPlan:
    """Build a registered preset plan for an *n*-replica deployment.

    ``at`` is when the first fault fires; ``down_for`` how long the affected
    replica stays down (or the partition lasts); ``replica`` the static
    target of ``kill-replica``.  Left out, ``at`` and ``down_for`` default to
    30 % and 15 % of the run's *duration*.
    """
    if at is None:
        at = round(duration * 0.3, 6)
    if down_for is None:
        down_for = round(duration * 0.15, 6)
    try:
        factory = PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown chaos preset {name!r}; available: {sorted(PRESETS)}"
        ) from exc
    return factory(n, at, down_for, replica)
