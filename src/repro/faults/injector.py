"""Chaos controller: runs a fault plan against one deployment and measures recovery.

The controller is substrate-agnostic.  It drives every
:class:`~repro.faults.plan.FaultEvent` of a plan on whatever scheduler the
deployment runs on (the discrete-event :class:`~repro.sim.scheduler.Simulator`
or the live :class:`~repro.live.runtime.WallClock` — both expose ``now`` /
``schedule`` / ``schedule_at``):

* a time-keyed event is scheduled at its ``at``;
* a crash point arms a probe on its replica.  The consensus layer calls the
  probe at every instrumented hook, and the *occurrence*-th firing of the
  planned hook crashes the replica and schedules its restart ``down_for``
  seconds later.  Firings are counted per replica lineage, and every
  restarted incarnation is re-armed, whichever event restarted it.

It acts through one :class:`DeploymentAdapter`, built over the same
scheduler and ``network_for(replica_id)`` endpoints the deployment's replicas
were built against — the one shared :class:`~repro.net.network.SimNetwork`,
or each replica's :class:`~repro.live.transport.AsyncTcpTransport`.  A crash
halts the replica object and unregisters it from its endpoint, so inbound
traffic is dropped as if the process were gone; a restart builds a fresh
replica over the surviving :class:`~repro.storage.store.ReplicaStore`.
Pauses and partitions use the endpoint's network fault rules
(``network_for(r).faults``); live transports have none, so there a plan may
only crash and restart, which :meth:`ChaosController.install` checks.

Besides driving the plan, the controller is the measurement instrument the
report asks for: per incident it records when the replica crashed, how many
speculated-but-uncommitted operations died with it (ops lost to rollback),
when it restarted, and when it committed its first *new* block after the
restart (recovery time).  :meth:`ChaosController.report` folds this into the
``chaos`` section of a :class:`~repro.experiments.runner.RunResult`,
including committed-prefix agreement across the healed cluster.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.consensus.replica import chains_prefix_consistent, honest_committed_chains
from repro.errors import ConfigurationError
from repro.faults.plan import (
    ACTIONS,
    HOOK_TORN_VOTE_WAL,
    LEADER,
    LIVE_ACTIONS,
    FaultEvent,
    FaultPlan,
)
from repro.storage.recovery import RecoveryManager
from repro.storage.store import ReplicaStore
from repro.storage.wal import KIND_VOTE


class DeploymentAdapter:
    """Crash, restart, pause and partition the replicas of one deployment.

    ``scheduler`` and ``network_for(replica_id)`` are what the deployment's
    replicas were built against; a restarted replica is rebuilt against the
    same, and a crashed one is unregistered from its endpoint.
    """

    def __init__(
        self, deployment, stores: Dict[int, ReplicaStore], scheduler, network_for
    ) -> None:
        self.deployment = deployment
        self.stores = stores
        self.scheduler = scheduler
        self.network_for = network_for
        self._pruned_carry: Dict[int, int] = {}

    @property
    def supported_actions(self) -> Sequence[str]:
        """Every action over a network with fault rules; crash / restart otherwise."""
        return ACTIONS if hasattr(self.network_for(0), "faults") else LIVE_ACTIONS

    # -------------------------------------------------------------- plumbing
    def _replica(self, replica_id: int):
        for replica in self.deployment.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(replica_id)

    def _swap_in(self, replica) -> None:
        replicas = self.deployment.replicas
        for index, existing in enumerate(replicas):
            if existing.replica_id == replica.replica_id:
                replicas[index] = replica
                return
        replicas.append(replica)

    def _running_honest(self) -> List:
        return [
            replica
            for replica in self.deployment.replicas
            if not replica.halted and not replica.behavior.is_byzantine
        ]

    def _live_peer(self, replica_id: int) -> Optional[int]:
        """A running replica to ask for missing blocks (round-robin from id+1)."""
        n = self.deployment.config.n
        for offset in range(1, n):
            candidate = (replica_id + offset) % n
            try:
                if not self._replica(candidate).halted:
                    return candidate
            except KeyError:
                continue
        return None

    # --------------------------------------------------------------- actions
    def crash(self, replica_id: int) -> int:
        """Halt *replica_id* and detach it; return the speculated operations lost with it."""
        replica = self._replica(replica_id)
        ops_lost = sum(block.txn_count for block in replica.ledger.speculated_blocks())
        was_reporter = replica.report_metrics
        self._pruned_carry[replica_id] = replica.block_store.pruned_count
        replica.halt()
        self.network_for(replica_id).unregister(replica_id)
        if was_reporter:
            # Global counters must not freeze with the dead reporter; hand the
            # role to a surviving honest replica (counts stay approximate
            # across the handover, which the chaos report calls out).
            replica.report_metrics = False
            survivors = self._running_honest()
            if survivors:
                survivors[0].report_metrics = True
        return ops_lost

    def restart(self, replica_id: int):
        """Rebuild *replica_id* over its durable store, catch it up, start it; return it."""
        store = self.stores[replica_id]
        deployment = self.deployment
        replica = deployment.build_replica(
            replica_id, self.scheduler, self.network_for(replica_id),
            deployment.fresh_mempool_for(replica_id), store,
        )
        manager = RecoveryManager(store)
        state = manager.restore(replica)
        manager.catch_up(replica, ask=self._live_peer(replica_id))
        # Restore replays orphans from the append-only log and re-prunes
        # them; those were already counted by the dead incarnation, so the
        # carried count replaces (not adds to) the restore-phase prunes.
        replica.block_store.pruned_count = self._pruned_carry.pop(replica_id, 0)
        self._swap_in(replica)
        replica.start(first_view=RecoveryManager.resume_view(state))
        return replica

    def pause(self, replica_id: int) -> None:
        self.network_for(replica_id).faults.drop_node(replica_id)

    def resume(self, replica_id: int) -> None:
        self.network_for(replica_id).faults.restore_node(replica_id)

    def partition(self, groups: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
        group_a, group_b = groups
        self.network_for(group_a[0]).faults.partition(group_a, group_b)

    def heal(self) -> None:
        self.network_for(0).faults.heal_partitions()

    def is_down(self, replica_id: int) -> bool:
        try:
            return self._replica(replica_id).halted
        except KeyError:
            return True

    # ---------------------------------------------------------------- leader
    def current_leader(self) -> int:
        """The leader of the current view — or, if that replica is already
        down, the next upcoming leader that is actually running (killing an
        already-dead replica would make ``"leader"`` events no-ops)."""
        running = self._running_honest()
        running_ids = {replica.replica_id for replica in running}
        view = max((replica.current_view for replica in running), default=1)
        for offset in range(self.deployment.config.n):
            candidate = self.deployment.leaders.leader_of(view + offset)
            if candidate in running_ids:
                return candidate
        return self.deployment.leaders.leader_of(view)


class ChaosController:
    """Runs a :class:`FaultPlan` and records what recovery actually cost."""

    def __init__(self, plan: FaultPlan, scheduler, adapter: DeploymentAdapter) -> None:
        self.plan = plan
        self.scheduler = scheduler
        self.adapter = adapter
        #: Flat audit trail: one entry per fired event.
        self.timeline: List[Dict[str, Any]] = []
        #: One entry per crash, updated through restart and first commit.
        self.incidents: List[Dict[str, Any]] = []
        self._open_incidents: Dict[int, Dict[str, Any]] = {}
        self._last_leader_crash: Optional[int] = None
        #: Planned events that have not fired (a run can end before them).
        self._unfired: List[FaultEvent] = list(plan.events)
        #: Crash points waiting for their hook, per ``(replica, site)``.
        self._armed: Dict[Tuple[int, str], List[FaultEvent]] = {}
        #: Hook firings per ``(replica, site)``, across incarnations.
        self._hook_counts: Dict[Tuple[int, str], int] = {}

    # -------------------------------------------------------------- schedule
    def install(self, replicas: Sequence) -> None:
        """Schedule every time-keyed event and arm the probes of every crash point.

        The plan is checked against the adapter's capabilities first, so a
        plan built around ``ExperimentSpec.validate`` fails here, before any
        timer is armed: inside a timer callback the event loop's exception
        handler would swallow the failure and the run would read as healthy.
        """
        supported = set(self.adapter.supported_actions)
        for event in self.plan.events:
            if event.action not in supported:
                raise ConfigurationError(
                    f"fault action {event.action!r} at t={event.at} is not "
                    f"supported by {type(self.adapter).__name__} "
                    f"(supports {sorted(supported)})"
                )
        for event in self.plan.events:
            if event.hook is None:
                self.scheduler.schedule_at(event.at, self._fire, event)
            else:
                self._armed.setdefault((event.replica, event.site), []).append(event)
        for replica in replicas:
            self._arm(replica)

    def _arm(self, replica) -> None:
        """Install the probe on *replica* if a crash point still waits for it."""
        if any(key[0] == replica.replica_id and bucket for key, bucket in self._armed.items()):
            replica.crash_probe = self._probe

    # ---------------------------------------------------------------- firing
    def _fire(self, event: FaultEvent) -> None:
        self._unfired.remove(event)
        target = self._resolve_target(event)
        # Dynamic "leader" targets can collide with static ones at runtime
        # (validate() cannot see who will lead); a crash of an already-down
        # replica or a restart of a running one is recorded as a skipped
        # event, which the report surfaces as an error.
        if event.action == "crash":
            self.trigger_crash(target)
        elif event.action == "restart":
            self.trigger_restart(target)
        elif event.action == "pause":
            self._record(event.action, target)
            self.adapter.pause(target)
        elif event.action == "resume":
            self._record(event.action, target)
            self.adapter.resume(target)
        elif event.action == "partition":
            self._record(event.action, target)
            self.adapter.partition(event.groups)
        elif event.action == "heal":
            self._record(event.action, target)
            self.adapter.heal()

    def _probe(self, replica, site: str) -> None:
        key = (replica.replica_id, site)
        count = self._hook_counts.get(key, 0) + 1
        self._hook_counts[key] = count
        bucket = self._armed.get(key)
        if not bucket:
            return
        for event in bucket:
            if event.occurrence == count:
                bucket.remove(event)
                self._fire_crash_point(replica, event)
                return

    def _fire_crash_point(self, replica, event: FaultEvent) -> None:
        self._unfired.remove(event)
        if event.hook == HOOK_TORN_VOTE_WAL and replica.store is not None:
            # Crash mid-append: the record that was just written loses its
            # tail, so replay must behave as if the append never happened.
            replica.store.tear_wal_tail()
        self.trigger_crash(replica.replica_id, hook=event.hook)
        self.scheduler.schedule(event.down_for, self.trigger_restart, event.replica)

    def _record(self, action: str, target, hook: Optional[str] = None) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "at": round(self.scheduler.now, 6),
            "action": action,
            "replica": target,
        }
        if hook is not None:
            entry["hook"] = hook
        self.timeline.append(entry)
        # Every fault action is also a first-class trace instant, so Perfetto
        # timelines and `repro watch` show the injection aligned with the
        # throughput dip it caused.
        tracer = getattr(getattr(self.adapter, "deployment", None), "tracer", None)
        if tracer is not None:
            data = {"hook": hook} if hook is not None else {}
            tracer.instant(
                "fault",
                label=action,
                replica=target if isinstance(target, int) else -1,
                data=data,
            )
        return entry

    # ------------------------------------------------------ triggered faults
    def trigger_crash(self, replica_id: int, hook: Optional[str] = None) -> bool:
        """Crash *replica_id* now (time-scheduled events and crash-point probes).

        Returns ``True`` if the crash executed, ``False`` if it was skipped
        because the replica is already down (skips are surfaced by
        :meth:`report`).
        """
        entry = self._record("crash", replica_id, hook=hook)
        if self.adapter.is_down(replica_id):
            entry["skipped"] = "already down"
            return False
        self._crash(replica_id, self.scheduler.now, hook=hook)
        return True

    def trigger_restart(self, replica_id: int):
        """Restart *replica_id* now; returns the new replica or ``None`` on a skip."""
        entry = self._record("restart", replica_id)
        if not self.adapter.is_down(replica_id):
            entry["skipped"] = "not down"
            return None
        return self._restart(replica_id, self.scheduler.now)

    def _resolve_target(self, event: FaultEvent) -> Optional[int]:
        if event.replica != LEADER:
            return event.replica
        if event.action == "crash":
            self._last_leader_crash = self.adapter.current_leader()
            return self._last_leader_crash
        if self._last_leader_crash is None:
            raise ConfigurationError(
                f"'leader' {event.action} at t={event.at} has no preceding 'leader' crash"
            )
        return self._last_leader_crash

    def _crash(self, replica_id: int, now: float, hook: Optional[str] = None) -> None:
        # A replica can be re-crashed (by a later plan event or fuzz point)
        # after restarting but before committing anything new; the earlier
        # incident can then never complete and is marked superseded instead
        # of counting as a failed recovery.
        for earlier in reversed(self.incidents):
            if earlier["replica"] != replica_id:
                continue
            if earlier["restarted_at"] is not None and earlier["first_commit_at"] is None:
                earlier["superseded"] = True
            break
        ops_lost = self.adapter.crash(replica_id)
        incident = {
            "replica": replica_id,
            "crashed_at": round(now, 6),
            "ops_lost": int(ops_lost),
            "restarted_at": None,
            "first_commit_at": None,
            "recovery_s": None,
        }
        if hook is not None:
            incident["hook"] = hook
        self.incidents.append(incident)
        self._open_incidents[replica_id] = incident

    def _restart(self, replica_id: int, now: float):
        replica = self.adapter.restart(replica_id)
        self._arm(replica)
        incident = self._open_incidents.pop(replica_id, None)
        if incident is None:
            return replica
        incident["restarted_at"] = round(now, 6)

        def first_commit(block, committed_at, incident=incident) -> None:
            if incident["first_commit_at"] is None:
                incident["first_commit_at"] = round(committed_at, 6)
                incident["recovery_s"] = round(committed_at - incident["restarted_at"], 6)

        replica.commit_listener = first_commit
        return replica

    # ---------------------------------------------------------------- report
    def report(self, replicas: Sequence) -> Dict[str, Any]:
        """Summarize the run's chaos: incidents, recovery times, prefix agreement.

        Skipped events (runtime target collisions, and planned events the run
        ended before) and WAL vote-dedup violations are part of the report —
        a plan that silently did less than it said, or a replica that
        re-voted a WAL'd view, must fail the run instead of reading as
        healthy.
        """
        recoveries = [
            incident["recovery_s"]
            for incident in self.incidents
            if incident["recovery_s"] is not None
        ]
        chains = honest_committed_chains(replicas)
        agreement = chains_prefix_consistent(chains)
        skipped = [dict(entry) for entry in self.timeline if "skipped" in entry]
        skipped += [{**event.to_dict(), "skipped": "never fired"} for event in self._unfired]
        stores = getattr(self.adapter, "stores", None)
        wal_violations = wal_vote_violations(stores) if stores else []
        return {
            "timeline": list(self.timeline),
            "incidents": [dict(incident) for incident in self.incidents],
            "crashes": len(self.incidents),
            "restarts": sum(
                1 for incident in self.incidents if incident["restarted_at"] is not None
            ),
            "recovered": len(recoveries),
            "superseded": sum(
                1 for incident in self.incidents if incident.get("superseded")
            ),
            "ops_lost_to_rollback": sum(incident["ops_lost"] for incident in self.incidents),
            "max_recovery_s": max(recoveries) if recoveries else None,
            "mean_recovery_s": sum(recoveries) / len(recoveries) if recoveries else None,
            "prefix_agreement": agreement,
            "committed_blocks_min": min((len(chain) for chain in chains), default=0),
            "committed_blocks_max": max((len(chain) for chain in chains), default=0),
            "skipped_events": len(skipped),
            "skipped": skipped,
            "wal_vote_violations": wal_violations,
        }


def wal_vote_violations(stores: Dict[int, Any]) -> List[Dict[str, Any]]:
    """Scan every replica's WAL for never-vote-twice violations.

    The invariant: after any sequence of crashes, restarts and torn appends,
    each ``(view, slot)`` appears in a replica's replayed WAL at most once.
    A second record for the same pair means a restarted incarnation re-voted
    where its predecessor already had — the equivocation the WAL-before-send
    discipline exists to prevent.  Returns one dict per violation (empty when
    the invariant holds).
    """
    violations: List[Dict[str, Any]] = []
    for replica_id, store in sorted(stores.items()):
        seen: Dict[Tuple[int, int], str] = {}
        for record in store.wal.records():
            if record.kind != KIND_VOTE:
                continue
            key = (record.view, record.slot)
            if key in seen:
                violations.append(
                    {
                        "replica": replica_id,
                        "view": record.view,
                        "slot": record.slot,
                        "hashes": sorted({seen[key], record.block_hash}),
                    }
                )
            else:
                seen[key] = record.block_hash
    return violations
