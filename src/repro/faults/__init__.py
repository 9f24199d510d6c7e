"""Chaos engine: one declarative fault plan and the controller that runs it.

A :class:`~repro.faults.plan.FaultPlan` is a pure-data list of fault events
— crash, restart, pause, resume, partition, heal — with the same JSON
round-trip discipline as :class:`~repro.experiments.spec.ScenarioSpec`.  An
event is keyed either by time or, for a crash point, by the *n*-th firing of
a protocol hook (before / after the vote WAL append, mid-certificate, around
a snapshot), which is what ``repro fuzz`` draws from a seed.  The
:class:`~repro.faults.injector.ChaosController` runs a plan on either
substrate through one :class:`~repro.faults.injector.DeploymentAdapter`:
crashed replicas are halted and detached from their network endpoint, and
restarted ones are rebuilt from their
:class:`~repro.storage.store.ReplicaStore` via
:class:`~repro.storage.recovery.RecoveryManager`.  The controller reports
recovery time, operations lost to rollback, committed-prefix agreement and
the never-vote-twice WAL invariant.
"""

from repro.faults.injector import ChaosController, DeploymentAdapter, wal_vote_violations
from repro.faults.plan import FaultEvent, FaultPlan, load_plan

__all__ = [
    "ChaosController",
    "DeploymentAdapter",
    "FaultEvent",
    "FaultPlan",
    "load_plan",
    "wal_vote_violations",
]
