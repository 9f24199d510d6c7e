"""Abstract replicated state machine interface.

The consensus layer orders transactions; the state machine executes them.  To
support the paper's speculative execution with rollback, every state machine
must be able to *undo* the effect of a previously applied transaction.  The
concrete machines implement this with per-transaction undo records.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.hashing import hash_fields
from repro.errors import ExecutionError
from repro.ledger.transaction import Transaction


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one transaction.

    Attributes
    ----------
    txn_id:
        The executed transaction.
    success:
        Whether the operation succeeded (e.g. TPC-C new-order may abort).
    output:
        Operation-specific result value (small and hashable-friendly).
    result_digest:
        Digest the client uses to match responses across replicas.
    """

    txn_id: int
    success: bool
    output: Any
    result_digest: str

    @staticmethod
    def of(txn: Transaction, success: bool, output: Any) -> "ExecutionResult":
        """Build a result for *txn*, computing the matching digest.

        The digest is ``hash_fields("result", txn_id, success, output)``; this
        runs once per transaction on every replica, so the same bytes are
        rendered by one f-string instead of a generator and a ``join``.
        """
        txn_id = txn.txn_id
        rendered = f"'result'\x1f{txn_id!r}\x1f{success!r}\x1f{output!r}"
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        return ExecutionResult(txn_id, success, output, digest)


#: Old value recorded for a key the transaction created (undo removes it).
_MISSING = object()


@dataclass
class UndoRecord:
    """Inverse of an applied transaction, sufficient to restore prior state.

    ``changes`` holds one ``(table_name, key, old_value)`` per write, in write
    order; ``old_value`` is :data:`_MISSING` when the write created the key.
    """

    txn_id: int
    changes: List[tuple]


class StateMachine:
    """Base class for deterministic, undoable state machines."""

    #: Per-transaction execution cost charged to the simulated CPU (seconds).
    execution_cost: float = 1.0e-6

    def apply(self, txn: Transaction) -> ExecutionResult:
        """Execute *txn*, record an undo entry internally, and return its result."""
        raise NotImplementedError

    def undo(self, record: "UndoRecord") -> None:
        """Reverse a previously applied transaction given its undo record."""
        raise NotImplementedError

    def apply_with_undo(self, txn: Transaction) -> tuple:
        """Execute *txn* and return ``(result, undo_record)``."""
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

    def apply_batch(self, txns: Sequence[Transaction]) -> List[ExecutionResult]:
        """Execute a batch in order and return the per-transaction results."""
        return [self.apply(txn) for txn in txns]


class RecordingStateMachine(StateMachine):
    """Helper base class implementing undo bookkeeping over a key/value core.

    Subclasses represent their state as named tables of ``key -> value`` and
    implement :meth:`_execute`, calling :meth:`_write` for every mutation so
    the base class can capture old values for undo.
    """

    def __init__(self) -> None:
        # A table exists from its first access; an empty one is
        # indistinguishable from an absent one (digests and snapshots skip it).
        self._tables: Dict[str, Dict[Any, Any]] = defaultdict(dict)
        self._current_changes: Optional[List[tuple]] = None

    # -------------------------------------------------------------- plumbing
    def table(self, name: str) -> Dict[Any, Any]:
        """Return (creating if needed) the named table."""
        return self._tables[name]

    def _write(self, table_name: str, key: Any, value: Any) -> None:
        """Write ``table[key] = value`` recording the previous value for undo."""
        table = self._tables[table_name]
        changes = self._current_changes
        if changes is not None:
            changes.append((table_name, key, table.get(key, _MISSING)))
        table[key] = value

    def _read(self, table_name: str, key: Any, default: Any = None) -> Any:
        """Read ``table[key]`` with a default."""
        return self._tables[table_name].get(key, default)

    # ------------------------------------------------------------------- api
    def apply(self, txn: Transaction) -> ExecutionResult:
        result, _ = self.apply_with_undo(txn)
        return result

    def apply_with_undo(self, txn: Transaction) -> tuple:
        changes = self._current_changes = []
        try:
            success, output = self._execute(txn)
        except ExecutionError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise ExecutionError(f"transaction {txn.txn_id} failed: {exc}") from exc
        finally:
            self._current_changes = None
        return ExecutionResult.of(txn, success, output), UndoRecord(txn.txn_id, changes)

    def undo(self, record: UndoRecord) -> None:
        tables = self._tables
        for table_name, key, old_value in reversed(record.changes):
            if old_value is _MISSING:
                tables[table_name].pop(key, None)
            else:
                tables[table_name][key] = old_value

    def state_digest(self) -> str:
        parts = []
        for table_name in sorted(self._tables):
            table = self._tables[table_name]
            if not table:
                # Empty tables are indistinguishable from absent ones so that
                # undoing a transaction that touched a new table restores the
                # exact pre-transaction digest.
                continue
            parts.append(hash_fields(table_name, sorted((repr(k), repr(v)) for k, v in table.items())))
        return hash_fields("state", *parts)

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
        self._current_changes = None

    @classmethod
    def payload_digest(cls, payload: Dict[str, Any]) -> str:
        """Digest a :meth:`snapshot_state` payload without building a machine.

        Mirrors :meth:`state_digest` exactly, so a receiver can verify a
        transferred snapshot against its sealed digest before adopting it.
        """
        tables = payload.get("tables", {})
        parts = []
        for table_name in sorted(tables):
            items = tables[table_name]
            if not items:
                continue
            parts.append(
                hash_fields(
                    table_name,
                    sorted((repr(cls._decode_key(key)), repr(value)) for key, value in items),
                )
            )
        return hash_fields("state", *parts)

    # ------------------------------------------------------------- subclass
    def _execute(self, txn: Transaction) -> tuple:
        """Execute *txn* against the tables; return ``(success, output)``."""
        raise NotImplementedError
