"""Client transactions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.crypto.hashing import hash_fields
from repro.types import Digest

_TXN_COUNTER = itertools.count()

#: Declared operations: name -> (opcode, payload fields as ``(key, kind)`` in
#: payload order).  Plain data: each state machine declares the operations it
#: interprets next to its ``_execute``, and the binary wire codec
#: (:mod:`repro.live.layout` defines the kinds) compiles one layout per entry.
OPERATION_SCHEMAS: Dict[str, Tuple[int, Tuple[Tuple[str, Any], ...]]] = {}


def record(**fields: Any) -> Tuple:
    """Kind of a dict with exactly these keys, in this order."""
    return ("record", tuple(fields.items()))


def seq(kind: Any) -> Tuple:
    """Kind of a list of *kind*."""
    return ("seq", kind, list)


def declare_operation(name: str, opcode: int, **fields: Any) -> None:
    """Declare operation *name*'s payload schema and its one-byte *opcode*.

    The opcode is what every process puts on the wire for *name*, so it is an
    explicit constant of the declaration (1..255, never reused; 0 marks a
    transaction sent in the self-describing form), not an import order.
    The codec compiles the declarations it finds when it is imported:
    declare in a module :mod:`repro.ledger` imports.
    """
    taken = {code: other for other, (code, _) in OPERATION_SCHEMAS.items() if other != name}
    if not 0 < opcode < 256 or opcode in taken:
        raise ValueError(f"operation {name!r}: opcode {opcode} is out of range or taken by {taken.get(opcode)!r}")
    OPERATION_SCHEMAS[name] = (opcode, tuple(fields.items()))


@dataclass(frozen=True)
class Transaction:
    """A client request that the replicated state machine must execute.

    Attributes
    ----------
    txn_id:
        Globally unique transaction identifier (assigned by the client pool).
    client_id:
        Logical client that issued the request (used to route the response).
    operation:
        Name of the state-machine operation, e.g. ``"ycsb_write"`` or
        ``"tpcc_new_order"``.
    payload:
        Operation arguments as an immutable mapping-like dict; interpreted by
        the state machine that executes the transaction.
    submitted_at:
        Simulated time at which the client issued the request; latency is
        measured from this point to the client's matching quorum.
    """

    txn_id: int
    client_id: int
    operation: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    submitted_at: float = 0.0

    @staticmethod
    def create(
        client_id: int,
        operation: str,
        payload: Optional[Mapping[str, Any]] = None,
        submitted_at: float = 0.0,
        txn_id: Optional[int] = None,
    ) -> "Transaction":
        """Create a transaction with an auto-assigned id unless one is given."""
        identifier = next(_TXN_COUNTER) if txn_id is None else int(txn_id)
        return Transaction(
            txn_id=identifier,
            client_id=int(client_id),
            operation=operation,
            payload=dict(payload or {}),
            submitted_at=float(submitted_at),
        )

    def digest(self) -> Digest:
        """Stable digest of the transaction identity and payload."""
        return hash_fields(self.txn_id, self.client_id, self.operation, sorted(self.payload.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction(id={self.txn_id}, client={self.client_id}, op={self.operation})"
