"""Certificate-anchored state-machine snapshots.

A :class:`Snapshot` is the durable, transferable form of a replica's committed
prefix at a checkpoint height:

* the **checkpoint block** (the committed head at snapshot time) plus the
  **certificate** formed over exactly that block — the quorum's signature is
  what makes a shipped snapshot trustworthy without replaying history;
* the full serialized **state** of the committed state machine and its
  **digest**, so a receiver can verify the payload byte-for-byte against the
  sealed digest before adopting it (speculative effects are excluded at
  capture time — see
  :meth:`~repro.ledger.speculative.SpeculativeLedger.snapshot_committed_state`);
* the committed **hash chain** up to the checkpoint, which keeps cross-replica
  prefix-agreement checks exact even after the block objects below the
  snapshot leave the compacted log.

A snapshot has one serialisation, the binary layout of
:mod:`repro.live.codec`: the ``SnapshotResponse`` wire message carries it,
and the snapshot log stores it as hex (:func:`repro.live.codec.record_of`).
A run clears its file-backed logs before it starts, so a stored snapshot is
only ever read by the code that wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Optional

from repro.consensus.certificates import Certificate
from repro.ledger.block import Block
from repro.ledger.state_machine import RecordingStateMachine


@dataclass(frozen=True)
class Snapshot:
    """One sealed checkpoint of the committed state machine."""

    #: Committed ledger height covered (number of blocks up to and including
    #: the checkpoint block).
    height: int
    #: The checkpoint block itself (the committed head at capture time); kept
    #: whole so a restored replica's block tree has the anchor the first
    #: suffix block extends.
    block: Block
    #: Certificate formed over the checkpoint block — the anchor that makes
    #: the snapshot verifiable without replaying history.
    cert: Certificate
    #: Digest of ``state`` (must equal recomputing it from the payload).
    state_digest: str
    #: JSON-compatible committed state (``StateMachine.snapshot_state``).
    state: Dict[str, Any]
    #: Committed block hashes for positions ``0 .. height - 1``.
    committed_hashes: List[str]
    #: Highest transaction id committed at or below the checkpoint, or ``-1``
    #: when unknown (pre-horizon snapshots).  Transaction ids are globally
    #: monotonic, so a rejoiner installing this snapshot can prune every
    #: pending transaction with ``txn_id <= txn_horizon`` from its own
    #: (distributed-mempool) pool instead of re-proposing committed work.
    txn_horizon: int = -1

    @property
    def block_hash(self) -> str:
        """Hash of the checkpoint block."""
        return self.block.block_hash

    @property
    def view(self) -> int:
        """View of the checkpoint block."""
        return self.block.view

    @cached_property
    def _covered(self) -> FrozenSet[str]:
        return frozenset(self.committed_hashes)

    def covered(self) -> FrozenSet[str]:
        """The committed hashes this snapshot subsumes (cached set)."""
        return self._covered


def verify_snapshot(snapshot: Optional[Snapshot], authority) -> Optional[str]:
    """Check a snapshot's internal consistency; return a rejection reason or ``None``.

    Verifies everything a receiver can check without trusting the sender: the
    certificate's threshold signature, that the certificate covers exactly the
    checkpoint block, that the hash chain ends at that block (and that the
    block's parent link matches the chain's second-to-last entry) with the
    declared height, and that the state payload re-digests to the sealed
    digest.  A non-``None`` reason means the receiver must fall back to
    block-by-block fetch.

    Trust boundary: the quorum certificate signs the checkpoint *block hash*
    only.  Block headers do not commit to an executed-state digest, so the
    interior of the hash chain and the state payload are checked for
    self-consistency (and, in :meth:`BaseReplica.handle_snapshot_response`,
    against the receiver's own committed prefix) but are not quorum-signed —
    sufficient for the crash-fault recovery this subsystem targets; fully
    Byzantine-proof state transfer needs certified state digests in block
    headers (a ROADMAP follow-on).
    """
    if snapshot is None:
        return "no snapshot offered"
    if snapshot.height < 1 or len(snapshot.committed_hashes) != snapshot.height:
        return "hash chain length does not match the declared height"
    if snapshot.committed_hashes[-1] != snapshot.block_hash:
        return "hash chain does not end at the checkpoint block"
    previous = (
        snapshot.committed_hashes[-2] if snapshot.height > 1 else None
    )
    if previous is not None and snapshot.block.parent_hash != previous:
        return "checkpoint block does not extend the chain's previous entry"
    if snapshot.cert.block_hash != snapshot.block_hash:
        return "certificate does not cover the checkpoint block"
    if not authority.verify_certificate(snapshot.cert):
        return "invalid certificate signature"
    if RecordingStateMachine.payload_digest(snapshot.state) != snapshot.state_digest:
        return "state digest mismatch"
    return None
