"""Abstract replicated state machine interface.

The consensus layer orders blocks; the state machine executes them.  The
block is the unit of execution, as in the paper: a replica executes a whole
block speculatively, answers its clients for that block, and rolls back only
whole blocks.  :meth:`StateMachine.execute_block` therefore runs a block's
transactions in order and returns their success bits and outputs together
with **one** undo log for the whole block; :meth:`StateMachine.undo` reverses
such a log.

A transaction that cannot execute (an unknown operation, a payload missing a
field) does not stop the block: it becomes the failed outcome ``(False,
{"error": <exception type name>})``, its partial writes are undone, and the
rest of the block executes.  Any client, or a Byzantine leader, can put such
a transaction in a block, so it must not halt the replicas that execute it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_fields
from repro.ledger.transaction import Transaction


#: Old value recorded for a key a write created (undo removes it).
_MISSING = object()


class BlockExecution(NamedTuple):
    """What executing one block produced.

    ``successes`` and ``outputs`` hold one entry per transaction, in block
    order.  ``changes`` is the block's undo log: one ``(table_name, key,
    old_value)`` per write, in write order, ``old_value`` being
    :data:`_MISSING` when the write created the key.
    """

    successes: List[bool]
    outputs: List[Any]
    changes: List[tuple]


class StateMachine:
    """Base class for deterministic, undoable state machines."""

    #: Per-transaction execution cost charged to the simulated CPU (seconds).
    execution_cost: float = 1.0e-6

    def execute_block(self, txns: Sequence[Transaction]) -> BlockExecution:
        """Execute *txns* in order; return their outcomes and the block's undo log."""
        raise NotImplementedError

    def undo(self, changes: List[tuple]) -> None:
        """Reverse a block given the undo log :meth:`execute_block` returned."""
        raise NotImplementedError

    def state_digest(self) -> str:
        """Digest of the full state, used by safety checkers to compare replicas."""
        raise NotImplementedError

    def snapshot_state(self) -> Dict[str, Any]:
        """Serialize the full state into a JSON-compatible payload.

        The payload must round-trip through :meth:`restore_state` to a machine
        whose :meth:`state_digest` matches the original exactly — that is what
        lets a transferred snapshot be verified against its sealed digest.
        """
        raise NotImplementedError

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Replace the full state with a payload from :meth:`snapshot_state`."""
        raise NotImplementedError


def tables_digest(tables: Mapping[str, Iterable[Tuple[Any, Any]]]) -> str:
    """Digest of named tables, each given as its ``(key, value)`` items.

    Empty tables are indistinguishable from absent ones, so undoing a
    transaction that touched a new table restores the exact
    pre-transaction digest.
    """
    return hash_fields("state", *(
        hash_fields(name, sorted((repr(key), repr(value)) for key, value in tables[name]))
        for name in sorted(tables)
        if tables[name]
    ))


class RecordingStateMachine(StateMachine):
    """Helper base class implementing undo bookkeeping over a key/value core.

    Subclasses represent their state as named tables of ``key -> value`` and
    implement :meth:`_execute`, calling :meth:`_write` for every mutation so
    the base class can capture old values in the block's undo log.
    """

    def __init__(self) -> None:
        # A table exists from its first access; an empty one is
        # indistinguishable from an absent one (digests and snapshots skip it).
        self._tables: Dict[str, Dict[Any, Any]] = defaultdict(dict)
        self._changes: Optional[List[tuple]] = None

    # -------------------------------------------------------------- plumbing
    def table(self, name: str) -> Dict[Any, Any]:
        """Return (creating if needed) the named table."""
        return self._tables[name]

    def _write(self, table_name: str, key: Any, value: Any) -> None:
        """Write ``table[key] = value`` recording the previous value for undo."""
        table = self._tables[table_name]
        changes = self._changes
        if changes is not None:
            changes.append((table_name, key, table.get(key, _MISSING)))
        table[key] = value

    def _read(self, table_name: str, key: Any, default: Any = None) -> Any:
        """Read ``table[key]`` with a default."""
        return self._tables[table_name].get(key, default)

    # ------------------------------------------------------------------- api
    def execute_block(self, txns: Sequence[Transaction]) -> BlockExecution:
        changes: List[tuple] = []
        successes: List[bool] = []
        outputs: List[Any] = []
        execute = self._execute
        self._changes = changes
        try:
            for txn in txns:
                mark = len(changes)
                try:
                    success, output = execute(txn)
                except Exception as exc:  # client input: any failure is the txn's outcome
                    success, output = False, {"error": type(exc).__name__}
                if not success:
                    # A failed transaction leaves no writes; the rest of the block's stay.
                    self.undo(changes[mark:])
                    del changes[mark:]
                successes.append(success)
                outputs.append(output)
        finally:
            self._changes = None
        return BlockExecution(successes, outputs, changes)

    def apply(self, txn: Transaction) -> tuple:
        """Execute *txn* as a one-transaction block; return ``(success, output)``."""
        execution = self.execute_block((txn,))
        return execution.successes[0], execution.outputs[0]

    def undo(self, changes: List[tuple]) -> None:
        tables = self._tables
        for table_name, key, old_value in reversed(changes):
            if old_value is _MISSING:
                tables[table_name].pop(key, None)
            else:
                tables[table_name][key] = old_value

    def state_digest(self) -> str:
        return tables_digest({name: table.items() for name, table in self._tables.items()})

    # ------------------------------------------------------------- snapshots
    # Table keys are strings, ints or (for TPC-C) tuples of ints; JSON only
    # has string object keys, so tables serialize as ``[key, value]`` item
    # pairs with tuple keys tagged explicitly.  Values are already
    # JSON-compatible (strings / numbers / dicts of those).
    @staticmethod
    def _encode_key(key: Any) -> Any:
        if isinstance(key, tuple):
            return {"__tuple__": list(key)}
        return key

    @staticmethod
    def _decode_key(key: Any) -> Any:
        if isinstance(key, dict) and "__tuple__" in key:
            return tuple(key["__tuple__"])
        return key

    def snapshot_state(self) -> Dict[str, Any]:
        payload_tables = {
            name: [[self._encode_key(key), value] for key, value in table.items()]
            for name, table in self._tables.items()
            if table  # empty tables are indistinguishable from absent ones
        }
        return {"tables": payload_tables}

    def restore_state(self, payload: Dict[str, Any]) -> None:
        self._tables = defaultdict(
            dict,
            {
                name: {self._decode_key(key): value for key, value in items}
                for name, items in payload.get("tables", {}).items()
            },
        )
        self._changes = None

    @classmethod
    def payload_digest(cls, payload: Dict[str, Any]) -> str:
        """Digest a :meth:`snapshot_state` payload without building a machine.

        The same :func:`tables_digest` as :meth:`state_digest`, so a receiver
        can verify a transferred snapshot against its sealed digest before
        adopting it.
        """
        return tables_digest({
            name: [(cls._decode_key(key), value) for key, value in items]
            for name, items in payload.get("tables", {}).items()
        })

    # ------------------------------------------------------------- subclass
    def _execute(self, txn: Transaction) -> tuple:
        """Execute *txn* against the tables; return ``(success, output)``."""
        raise NotImplementedError
