"""Workload interface and factory."""

from __future__ import annotations

import itertools
from typing import Dict, Type

from repro.errors import WorkloadError
from repro.ledger.state_machine import StateMachine
from repro.ledger.transaction import Transaction
from repro.sim.rng import SeededRng


class Workload:
    """Base class for transaction generators.

    A workload knows how to (1) build the matching state machine and (2)
    produce an endless stream of transactions for logical clients.
    """

    #: Registry name, e.g. ``"ycsb"``.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Transaction ids of this instance (one per run): a run numbers its
        #: transactions from 0, whatever ran before it in the process, so its
        #: block hashes are a function of (spec, seed) alone.
        self._txn_ids = itertools.count()

    def make_state_machine(self) -> StateMachine:
        """Return a fresh state machine able to execute this workload's transactions."""
        raise NotImplementedError

    def next_transaction(self, client_id: int, rng: SeededRng, now: float = 0.0) -> Transaction:
        """Generate the next transaction for *client_id* at simulated time *now*."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the :func:`make_workload` registry."""
    _REGISTRY[cls.name] = cls
    return cls


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by name (``"ycsb"`` or ``"tpcc"``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc
    return cls(**kwargs)


def available_workloads() -> list:
    """Names of all registered workloads."""
    return sorted(_REGISTRY)
