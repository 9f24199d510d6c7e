"""Checkpoint manager: periodic snapshots plus log compaction for one replica.

Every ``interval`` newly committed blocks the manager captures the committed
state machine (speculative effects excluded), seals it with the certificate
formed over the checkpoint block, persists it to the replica's durable store,
and then truncates the write-ahead log and block log below the checkpoint —
restart cost becomes O(state + suffix) instead of O(history), and fork blocks
pruned over the run finally leave the append-only block log.

Two crash-point hooks bracket the dangerous window for the fuzzer
(crash points of a :class:`~repro.faults.plan.FaultPlan`):

``mid-snapshot``
    The snapshot is durable but the logs are still full length.  Recovery
    must prefer the snapshot and treat the overlapping WAL prefix as covered.
``post-compaction``
    The logs were just truncated.  Recovery has *only* the snapshot plus the
    suffix — the committed-prefix and never-vote-twice invariants must hold
    from that alone.
"""

from __future__ import annotations

from typing import Optional

from repro.checkpoint.snapshot import Snapshot

#: Crash hook: snapshot persisted, logs not yet compacted.
HOOK_MID_SNAPSHOT = "mid-snapshot"
#: Crash hook: WAL and block log just truncated below the snapshot.
HOOK_POST_COMPACTION = "post-compaction"


class CheckpointManager:
    """Takes certificate-anchored snapshots every *interval* commits."""

    def __init__(self, replica, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {interval}")
        self.replica = replica
        self.interval = int(interval)
        #: Committed height the latest checkpoint covers (a restored replica
        #: starts from its snapshot/base height, not from zero).
        self.last_height = len(replica.ledger.committed)
        self.snapshots_taken = 0
        self.compactions = 0

    # ------------------------------------------------------------- lifecycle
    def note_installed(self, height: int) -> None:
        """A transferred snapshot of *height* was just installed; re-base the cadence."""
        self.last_height = max(self.last_height, int(height))

    def maybe_checkpoint(self) -> Optional[Snapshot]:
        """Take a checkpoint if ``interval`` commits accumulated since the last.

        Returns the snapshot taken, or ``None``.  The checkpoint block is the
        committed head; if no certificate is known for it yet (possible in
        principle, though committed blocks are certified before they commit)
        the checkpoint is simply retried at the next commit.
        """
        replica = self.replica
        if replica.store is None or replica.halted:
            return None
        height = len(replica.ledger.committed)
        if height - self.last_height < self.interval:
            return None
        head = replica.ledger.committed.head
        if head is None:
            return None  # nothing materialised above the restored base yet
        cert = replica.certs_by_block.get(head.block_hash)
        if cert is None:
            return None
        state, digest = replica.ledger.snapshot_committed_state()
        snapshot = Snapshot(
            height=height,
            block=head,
            cert=cert,
            state_digest=digest,
            state=state,
            committed_hashes=replica.ledger.committed.hashes(),
            # The contiguous watermark, not the raw maximum: every id at or
            # below it is known committed, so a rejoiner can prune its own
            # pool against it without dropping still-pending transactions.
            txn_horizon=replica.mempool.committed_contiguous,
        )
        replica.store.save_snapshot(snapshot)
        self.snapshots_taken += 1
        self.last_height = height
        replica.fault_point(HOOK_MID_SNAPSHOT)
        if replica.halted:
            return snapshot  # crashed mid-snapshot: logs stay full length
        self.compact(snapshot)
        return snapshot

    def compact(self, snapshot: Snapshot) -> None:
        """Truncate the WAL and block log below *snapshot* and drop covered metadata."""
        replica = self.replica
        replica.store.compact_below(snapshot)
        # Demote committed block objects below the checkpoint to hash-only
        # positions (the checkpoint block itself stays materialised as the
        # anchor the next commit extends), then drop them from the tree.
        replica.ledger.committed.collapse_below(snapshot.height - 1)
        removed = replica.block_store.drop_history_below(snapshot.block)
        for block_hash in removed:
            replica.forget_block(block_hash)
        compact_log = getattr(replica.block_store, "compact_log", None)
        if compact_log is not None:
            compact_log()
        self.compactions += 1
        replica.fault_point(HOOK_POST_COMPACTION)
