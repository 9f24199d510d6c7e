"""Recovery: rebuild a replica from its durable store after a crash.

:class:`RecoveryManager` takes a *freshly constructed* replica (new state
machine, new ledger, block store already replayed from the same
:class:`~repro.storage.store.ReplicaStore`) and restores everything the WAL
remembers:

* the voted views/slots and the last voted view, so the recovered replica
  can never vote twice in a view it voted in before the crash
  (no equivocation — the safety half of recovery);
* the highest prepare / commit certificates (``prepare_qc`` / ``locked_qc``),
  so its vote rule resumes from where it stopped;
* the committed prefix, re-executed block by block through the replica's own
  ledger so the state machine ends up byte-identical to the pre-crash state.

Whatever the cluster committed *while the replica was down* is not in the
store; :meth:`catch_up` primes the existing ``FetchRequest`` /
``FetchResponse`` path (extended with chained ancestor fetching in
:meth:`~repro.consensus.replica.BaseReplica.handle_fetch_response`) so the
missing suffix streams in, after which the normal commit rule folds it into
the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.storage.store import ReplicaStore
from repro.storage.wal import WalState

#: Re-exported summary type (what :meth:`RecoveryManager.restore` returns).
RecoveredState = WalState


class RecoveryManager:
    """Replays a :class:`ReplicaStore` into a freshly built replica."""

    def __init__(self, store: ReplicaStore) -> None:
        self.store = store

    # ---------------------------------------------------------------- restore
    def restore(self, replica) -> RecoveredState:
        """Restore certificates, vote history and the committed prefix.

        The replica must have been constructed against
        ``store.open_blockstore()`` so every persisted block is already in its
        tree.  Appends are suspended for the duration: re-committing the
        prefix must not re-log the records being read.

        When the store holds a checkpoint snapshot, the committed prefix up to
        the snapshot height is restored *from the snapshot* (state machine
        payload plus hash chain) and only the post-snapshot suffix is
        re-executed from the WAL — restart cost is O(state + suffix), not
        O(history).  The WAL may still contain records the snapshot covers (a
        crash between snapshot persist and log compaction); those replay as
        no-ops.
        """
        state = self.store.load_state()
        snapshot = self.store.latest_snapshot()
        with self.store.suspended():
            if snapshot is not None:
                replica.ledger.install_snapshot(snapshot.committed_hashes, snapshot.state)
                replica.block_store.add(snapshot.block)
                replica.record_certificate(snapshot.cert)
                if replica.checkpointer is not None:
                    replica.checkpointer.note_installed(snapshot.height)
                # Transactions at or below the snapshot's txn-id horizon are
                # committed below the checkpoint; prune them from the fresh
                # pool so a restarted leader with a distributed mempool does
                # not re-propose them (no-op for the shared pool).
                replica.mempool.prune_below(snapshot.txn_horizon)
                # Fold the snapshot's view into the recovered summary so
                # resume_view stays past views whose vote records the log
                # compaction dropped.
                state.entered_view = max(state.entered_view, snapshot.view)
            if state.high_cert is not None:
                replica.record_certificate(state.high_cert)
            if state.commit_cert is not None and hasattr(replica, "high_commit_cert"):
                current = replica.high_commit_cert
                if current is None or state.commit_cert.position > current.position:
                    replica.high_commit_cert = state.commit_cert
            # Each protocol re-arms its own vote-dedup guards (the explicit
            # BaseReplica hook, extended by chained/basic/slotted variants).
            replica.restore_vote_state(state)
            # Prime the pacemaker's per-sender view table with the pre-crash
            # snapshot (views are monotonic, so old evidence is still valid);
            # the jump itself happens when the replica starts.
            replica.pacemaker.restore_view_table(state.peer_views)
            self._recommit_prefix(replica, state, snapshot)
        return state

    def _recommit_prefix(self, replica, state: RecoveredState, snapshot=None) -> None:
        """Re-execute the WAL'd committed prefix through the replica's ledger.

        The append-only block log also resurrects fork blocks that were
        pruned before the crash; pruning each committed block's siblings as
        the prefix replays drops them again, so a restarted replica's tree
        holds the same orphan-free shape the dead incarnation had.  With a
        snapshot installed, commits the snapshot already covers are skipped.
        """
        covered = set(snapshot.committed_hashes) if snapshot is not None else ()
        for block_hash in state.committed_hashes:
            if block_hash in covered:
                continue
            block = replica.block_store.maybe_get(block_hash)
            if block is None:
                # Torn persist: the block log lost the tail the WAL refers to.
                # Everything from here on re-enters through consensus catch-up.
                break
            replica.ledger.commit(block)
            replica.mempool.note_committed(block.block_hash, block.transactions)
            replica.block_store.prune_siblings_of(block)

    # --------------------------------------------------------------- catch up
    def catch_up(self, replica, ask: Optional[int] = None) -> None:
        """Request the history the cluster built while this replica was down.

        With checkpointing enabled the replica first asks a live peer for a
        snapshot newer than its own committed height — a far-behind rejoiner
        then installs a digest-checked checkpoint instead of re-fetching the
        suffix block by block (and falls back to block fetch when the peer has
        nothing newer or the snapshot fails verification).  Without
        checkpointing the behaviour is unchanged: if the highest known
        certificate points at a missing block, ask one live peer for it and
        let the chained ancestor fetch walk the gap.
        """
        if ask is None:
            ask = (replica.replica_id + 1) % replica.config.n
        if replica.checkpointer is not None:
            replica.request_snapshot(ask)
            return
        cert = replica.high_cert
        if cert.is_genesis or cert.block_hash in replica.block_store:
            return
        replica.request_block(cert.block_hash, ask)

    # ------------------------------------------------------------ view choice
    @staticmethod
    def resume_view(state: RecoveredState, snapshot=None) -> int:
        """First view the recovered replica should enter (always fresh ground).

        One past everything it ever voted in, saw certified, or *entered*, so
        re-entering the view loop can never contradict a pre-crash action.
        Entered views matter when the cluster was circling on timeouts: a
        replica can reach a high view without ever voting there, and rejoining
        at its last *voted* view would strand it far behind the survivors.
        A checkpoint's view counts too: log compaction drops vote records
        below the snapshot view, so the snapshot itself must keep the replica
        from ever re-entering them.
        """
        highest = max(state.last_voted_view, state.entered_view)
        if state.high_cert is not None:
            highest = max(highest, state.high_cert.view)
        if snapshot is not None:
            highest = max(highest, snapshot.view)
        return highest + 1
