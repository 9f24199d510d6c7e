"""Durable block tree: a :class:`~repro.ledger.blockstore.BlockStore` that
persists every inserted block to an append-only backend.

The backend is the durable medium; a fresh :class:`DurableBlockStore` built
over the same backend replays it and reconstructs the tree, which is exactly
how a restarted replica gets its blocks back.  Pruning (see
:meth:`BlockStore.prune_siblings_of`) only trims the in-memory tree — the
append-only log keeps the raw history and pruned orphans are simply re-pruned
as the committed chain replays after a restart.  Each block is logged as its
wire layout in hex (:func:`repro.live.codec.record_of`), the record form all
three durable logs share.
"""

from __future__ import annotations

from typing import Optional

from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.live.codec import from_record, record_of
from repro.storage.backend import LogBackend


class DurableBlockStore(BlockStore):
    """Block tree whose inserts are mirrored to an append-only backend."""

    def __init__(self, backend: LogBackend, genesis: Optional[Block] = None) -> None:
        super().__init__(genesis)
        self._backend = backend
        for record in backend.replay():
            super().add(from_record(record, Block))

    def add(self, block: Block) -> Block:
        """Insert *block*, persisting it on first sight (duplicates are no-ops)."""
        if block.block_hash in self._blocks:
            return self._blocks[block.block_hash]
        stored = super().add(block)
        if not block.is_genesis:
            self._backend.append(record_of(block))
        return stored

    def compact_log(self) -> int:
        """Rewrite the backend to hold exactly the live in-memory tree.

        Checkpointing calls this after dropping the covered history
        (:meth:`~repro.ledger.blockstore.BlockStore.drop_history_below`), which
        is also the moment fork blocks pruned over the run finally leave the
        append-only log.  Returns the number of log records dropped.
        """
        persisted = len(self._backend.replay())
        records = [record_of(block) for block in self.blocks() if not block.is_genesis]
        self._backend.compact(records)
        return persisted - len(records)
