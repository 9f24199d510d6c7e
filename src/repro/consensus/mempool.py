"""Transaction mempool: one shared pool, or one pool per replica.

The paper separates data dissemination from consensus (and cites Autobahn and
DAG-based mempools as orthogonal work); ResilientDB broadcasts client
requests to all replicas before ordering.  The reproduction models that
substrate two ways:

* **Shared** (the default, ``shared=True``): a single :class:`Mempool`
  instance visible to every replica — perfect, zero-cost dissemination — so
  that measured differences between protocols come from consensus, which is
  exactly what the paper evaluates.
* **Distributed** (``shared=False``): each replica owns its own pool, fed by
  clients broadcasting requests to all replicas.  Leaders deduplicate against
  committed transactions, in-flight proposals they have observed, and the
  committed-txn-id horizon carried by installed snapshots; an optional
  ``limit`` applies admission-control backpressure when the pool saturates.

The client-to-replica and replica-to-client network hops are paid through the
network layer in both models (they are part of the latency metric).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ledger.transaction import Transaction


class Mempool:
    """FIFO pool of pending client transactions.

    Deduplication state (all per-pool):

    * ``_pending`` — admitted, not yet proposed (FIFO proposal order);
    * ``_inflight`` — observed inside a proposed-but-uncommitted block; kept
      out of ``_pending`` so a rotated leader does not re-propose them, and
      rescued back into ``_pending`` if their block is abandoned;
    * ``_contiguous`` — the committed watermark: every id at or below it is
      known-committed, either seen committing here or covered by the
      committed-txn-id horizon of an installed snapshot (transaction ids are
      globally monotonic, one counter per client process, so the horizon
      covers ids this pool never saw).  Ids at or below it are answered by
      comparison;
    * ``_committed_ids`` — the committed ids *above* the watermark (commits
      land out of id order), never re-admitted.  An id leaves the set when
      the watermark passes it, so the set holds the out-of-order window, not
      the run's history;
    * ``_inflight_blocks`` — per proposed, uncommitted block, the pool
      generation its entry was stored in and the ids it parked in flight.
      The generation counts the :meth:`requeue` and :meth:`release_block`
      calls, the only ways an in-flight id goes back to ``_pending``.
    """

    def __init__(self, limit: Optional[int] = None, shared: bool = True) -> None:
        self._pending: "OrderedDict[int, Transaction]" = OrderedDict()
        self._committed_ids: set = set()
        self._inflight: Dict[int, Transaction] = {}
        self._inflight_blocks: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        self._generation = 0
        self._ever_added = 0
        #: Admission-control cap on pending transactions (``None`` = unbounded).
        self.limit = limit
        #: ``True`` for the single cluster-wide pool (perfect dissemination);
        #: ``False`` for a per-replica pool in a distributed-mempool deployment.
        self.shared = shared
        #: Adds rejected because the pool was at ``limit`` (backpressure signal).
        self.admission_rejected = 0
        #: Highest transaction id this pool has seen commit.
        self.highest_committed_id = -1
        self._contiguous = -1
        #: Optional :class:`~repro.obs.trace.TraceRecorder` (the tracer holds
        #: the deployment clock; the mempool itself has no time source).
        self.tracer = None

    # ----------------------------------------------------------------- write
    def add(self, txn: Transaction) -> bool:
        """Add *txn* to the pool; duplicates, in-flight and committed txns are ignored.

        Returns ``True`` if the transaction was newly added.  A full pool
        (``limit`` reached) rejects the add and counts it in
        ``admission_rejected`` — the backpressure signal an open-loop load
        generator saturating the cluster shows up in.
        """
        txn_id = txn.txn_id
        if (
            txn_id <= self._contiguous
            or txn_id in self._pending
            or txn_id in self._committed_ids
            or txn_id in self._inflight
        ):
            return False
        if self.limit is not None and len(self._pending) >= self.limit:
            self.admission_rejected += 1
            return False
        self._pending[txn_id] = txn
        self._ever_added += 1
        if self.tracer is not None:
            self.tracer.txn_mempool(txn_id)
        return True

    def requeue(self, txns: List[Transaction]) -> None:
        """Put transactions back at the head of the pool (after an abandoned block)."""
        self._generation += 1
        for txn in reversed(txns):
            self._inflight.pop(txn.txn_id, None)
            if (
                txn.txn_id > self._contiguous
                and txn.txn_id not in self._pending
                and txn.txn_id not in self._committed_ids
            ):
                self._pending[txn.txn_id] = txn
                self._pending.move_to_end(txn.txn_id, last=False)

    def note_proposed(self, block_hash: str, txns: Iterable[Transaction]) -> None:
        """Record that *txns* are riding in proposed block *block_hash*.

        Called when a block enters the local block tree (own proposal,
        accepted proposal, fetched catch-up block).  The transactions move
        out of ``_pending`` into the in-flight set so a different leader does
        not propose them again while the block awaits commitment; if the
        block is later pruned as a fork, :meth:`release_block` (or the
        sibling requeue path) returns them to the pool.

        On a shared pool every replica notes each block.  A call for a block
        whose entry was stored after the latest :meth:`requeue` or
        :meth:`release_block` returns at once: nothing has put its ids back
        in ``_pending`` since, and no other call takes one out of
        ``_inflight`` except to mark it committed, which a repeat pass would
        skip too.  A repeat after a requeue or release runs in full.
        """
        entry = self._inflight_blocks.get(block_hash)
        if entry is not None and entry[0] == self._generation:
            return
        ids = []
        for txn in txns:
            txn_id = txn.txn_id
            self._pending.pop(txn_id, None)
            if txn_id <= self._contiguous or txn_id in self._committed_ids:
                continue
            self._inflight[txn_id] = txn
            ids.append(txn_id)
        if ids:
            self._inflight_blocks[block_hash] = (self._generation, tuple(ids))

    def release_block(self, block_hash: str) -> None:
        """Rescue the in-flight transactions of a pruned fork block.

        Transactions that did not commit elsewhere in the meantime go back to
        the head of the pool (they were admitted first).
        """
        self._generation += 1
        _, ids = self._inflight_blocks.pop(block_hash, (0, ()))
        for txn_id in ids:
            txn = self._inflight.pop(txn_id, None)
            if txn is not None and txn_id > self._contiguous and txn_id not in self._committed_ids:
                self._pending[txn_id] = txn
                self._pending.move_to_end(txn_id, last=False)

    def note_committed(self, block_hash: str, txns: Iterable[Transaction]) -> None:
        """Record that block *block_hash* committed *txns*; its in-flight entry goes with it."""
        self._inflight_blocks.pop(block_hash, None)
        self.mark_committed(txn.txn_id for txn in txns)

    def mark_committed(self, txn_ids) -> None:
        """Record that transactions committed so they are never re-admitted.

        An id already known committed (at or below the watermark, or in
        ``_committed_ids``) is skipped: :meth:`add`, :meth:`requeue`,
        :meth:`release_block` and :meth:`note_proposed` all refuse such an
        id, so it is in neither ``_pending`` nor ``_inflight``, and
        ``highest_committed_id`` already covers it.  On a shared pool every
        replica reports each committed block, so replicas 2..n pay one
        comparison per id, as they pay one lookup in :meth:`note_proposed`.
        """
        contiguous, committed = self._contiguous, self._committed_ids
        pending, inflight = self._pending, self._inflight
        for txn_id in txn_ids:
            if txn_id <= contiguous or txn_id in committed:
                continue
            committed.add(txn_id)
            pending.pop(txn_id, None)
            inflight.pop(txn_id, None)
            if txn_id > self.highest_committed_id:
                self.highest_committed_id = txn_id
        self._advance_watermark()

    def _advance_watermark(self) -> None:
        """Move the watermark over the committed ids that now follow it."""
        committed = self._committed_ids
        while self._contiguous + 1 in committed:
            self._contiguous += 1
            committed.discard(self._contiguous)

    @property
    def committed_contiguous(self) -> int:
        """Highest id H such that *every* transaction with id ``<= H`` committed.

        Commits can land out of id order (forks, retries, speculation), so the
        raw maximum is not a safe prune horizon — this contiguous watermark
        is: it never covers an id that might still be pending somewhere.  It
        is what checkpoints export as :attr:`Snapshot.txn_horizon`.
        """
        return self._contiguous

    def is_committed(self, txn_id: int) -> bool:
        """Return ``True`` if the transaction is known to have committed."""
        return txn_id <= self._contiguous or txn_id in self._committed_ids

    def prune_below(self, horizon: int) -> int:
        """Adopt a snapshot's committed-txn-id *horizon*: drop covered txns.

        A rejoiner that installed a checkpoint knows every transaction with
        ``txn_id <= horizon`` committed below it (ids are monotonic), even
        though the snapshot does not enumerate them.  Pending and in-flight
        entries at or below the horizon are dropped and future adds of such
        ids are rejected, so the rejoiner never re-proposes them.

        Shared pools are a no-op: with perfect dissemination the committed-id
        set is cluster-wide already, and pruning would throw away other
        replicas' pending transactions.  Returns the number of dropped txns.
        """
        if self.shared or horizon is None or horizon <= self._contiguous:
            return 0
        dropped = [txn_id for txn_id in self._pending if txn_id <= horizon]
        for txn_id in dropped:
            del self._pending[txn_id]
        stale_inflight = [txn_id for txn_id in self._inflight if txn_id <= horizon]
        for txn_id in stale_inflight:
            del self._inflight[txn_id]
        if horizon > self.highest_committed_id:
            self.highest_committed_id = horizon
        self._contiguous = horizon
        self._committed_ids = {txn_id for txn_id in self._committed_ids if txn_id > horizon}
        self._advance_watermark()
        return len(dropped) + len(stale_inflight)

    # ------------------------------------------------------------------ read
    def next_batch(self, batch_size: int) -> List[Transaction]:
        """Pop up to *batch_size* transactions in FIFO order."""
        batch: List[Transaction] = []
        while self._pending and len(batch) < batch_size:
            _, txn = self._pending.popitem(last=False)
            batch.append(txn)
        return batch

    def peek_count(self) -> int:
        """Number of transactions currently pending."""
        return len(self._pending)

    def inflight_count(self) -> int:
        """Number of transactions parked inside proposed-but-uncommitted blocks."""
        return len(self._inflight)

    @property
    def total_submitted(self) -> int:
        """Number of distinct transactions ever added."""
        return self._ever_added

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._pending
