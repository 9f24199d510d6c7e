"""Per-replica durable store: one WAL plus one block log.

A :class:`ReplicaStore` owns the two backends a replica persists through and
survives the replica object itself — in simulation the chaos engine holds the
store across a crash/restart, in a live deployment the store points at files
on disk.  ``open_blockstore()`` hands every incarnation of the replica a
fresh :class:`~repro.storage.blockstore.DurableBlockStore` rebuilt from the
persisted log, and :attr:`wal` carries the consensus decisions.

``suspended()`` turns all appends into no-ops while recovery replays history
*through* the replica's normal code paths (re-committing the prefix must not
re-log the commits it is reading).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.checkpoint.snapshot import Snapshot
from repro.consensus.certificates import Certificate
from repro.errors import ConfigurationError
from repro.live.codec import CodecError, from_record, record_of
from repro.storage.backend import FileLogBackend, LogBackend, MemoryLogBackend, read_jsonl_log
from repro.storage.blockstore import DurableBlockStore
from repro.storage.wal import WalState, WriteAheadLog

#: File names of one replica's WAL, block log and snapshot log under
#: ``<storage_dir>/replica-<id>/`` (in :class:`ReplicaStore` argument order).
LOG_FILES = ("wal.jsonl", "blocks.jsonl", "snapshots.jsonl")


def _last_intact_snapshot(records: List) -> Optional[Snapshot]:
    """Decode the newest snapshot record; records that do not decode are skipped."""
    latest = None
    for record in records:
        try:
            latest = from_record(record, Snapshot)
        except CodecError:
            continue  # keep the last intact one
    return latest


def inspect_storage_dir(directory: str, replica_id: Optional[int] = None) -> List[Dict]:
    """One summary row per ``replica-*`` store under *directory* (backs ``repro snapshot``).

    Read-only: the logs are parsed directly instead of opening a
    :class:`ReplicaStore` (which would create files).  Each row carries the
    latest snapshot's height/view/digests and the (compacted) WAL and
    block-log record counts.
    """
    if not os.path.isdir(directory):
        raise ConfigurationError(f"storage directory {directory!r} does not exist")
    if replica_id is not None:
        names = [f"replica-{replica_id}"]
    else:
        names = sorted(
            name for name in os.listdir(directory)
            if name.startswith("replica-") and os.path.isdir(os.path.join(directory, name))
        )
    if not names:
        raise ConfigurationError(f"no replica-* directories under {directory!r}")
    rows: List[Dict] = []
    for name in names:
        wal, blocks, snapshots = (
            read_jsonl_log(os.path.join(directory, name, log)) for log in LOG_FILES
        )
        row: Dict = {
            "replica": name.split("-", 1)[1],
            "wal_records": len(wal),
            "block_records": len(blocks),
        }
        snapshot = _last_intact_snapshot(snapshots)
        if snapshot is None:
            row.update(snapshot_height="-", snapshot_view="-", state_digest="-")
        else:
            row.update(
                snapshot_height=snapshot.height,
                snapshot_view=snapshot.view,
                block_hash=snapshot.block_hash[:12],
                state_digest=snapshot.state_digest[:12],
                cert_ok=snapshot.cert.block_hash == snapshot.block_hash,
            )
        rows.append(row)
    return rows


class ReplicaStore:
    """Durable state of one replica (WAL + block log + snapshot log)."""

    def __init__(
        self,
        wal_backend: LogBackend,
        block_backend: LogBackend,
        snapshot_backend: Optional[LogBackend] = None,
    ) -> None:
        self.wal = WriteAheadLog(wal_backend)
        self._block_backend = block_backend
        self._snapshot_backend = snapshot_backend or MemoryLogBackend()
        self._suspended = False
        #: Decoded latest snapshot (fetch serving hits this on every request).
        self._snapshot_cache = None
        self._snapshot_cache_valid = False

    # ----------------------------------------------------------- constructors
    @classmethod
    def memory(cls) -> "ReplicaStore":
        """In-memory store for simulated deployments (survives the replica object)."""
        return cls(MemoryLogBackend(), MemoryLogBackend(), MemoryLogBackend())

    @classmethod
    def at_path(cls, directory: str, replica_id: int, fsync: bool = False) -> "ReplicaStore":
        """File-backed store under ``directory/replica-<id>/`` for live deployments."""
        base = os.path.join(str(directory), f"replica-{int(replica_id)}")
        return cls(*(FileLogBackend(os.path.join(base, name), fsync=fsync) for name in LOG_FILES))

    # -------------------------------------------------------------- lifecycle
    def open_blockstore(self) -> DurableBlockStore:
        """Build a block tree over the block log (replays everything persisted)."""
        return DurableBlockStore(self._block_backend)

    def load_state(self) -> WalState:
        """Reduce the WAL into the latest-state summary recovery restores."""
        return self.wal.reduce()

    def close(self) -> None:
        """Close every backend (no-op for memory backends)."""
        self.wal.backend.close()
        self._block_backend.close()
        self._snapshot_backend.close()

    def clear(self) -> None:
        """Wipe all persisted state (tests only)."""
        self.wal.backend.clear()
        self._block_backend.clear()
        self._snapshot_backend.clear()
        self._snapshot_cache = None
        self._snapshot_cache_valid = False

    # -------------------------------------------------------------- snapshots
    def save_snapshot(self, snapshot) -> None:
        """Durably persist *snapshot* (a :class:`~repro.checkpoint.snapshot.Snapshot`).

        One atomic :meth:`~repro.storage.backend.LogBackend.compact` replaces
        the log with just the newest snapshot: a crash mid-write leaves the
        previous snapshot intact (the swap is all-or-nothing).
        """
        if self._suspended:
            return
        self._snapshot_backend.compact([record_of(snapshot)])
        self._snapshot_cache = snapshot
        self._snapshot_cache_valid = True

    def latest_snapshot(self):
        """The newest durable snapshot, or ``None`` (torn records are skipped)."""
        if not self._snapshot_cache_valid:
            self._snapshot_cache = _last_intact_snapshot(self._snapshot_backend.replay())
            self._snapshot_cache_valid = True
        return self._snapshot_cache

    def compact_below(self, snapshot) -> int:
        """Truncate the WAL below *snapshot*; returns the WAL records dropped.

        The block log is compacted separately by the checkpoint manager (it
        owns the live block tree); this call only rewrites the WAL so that
        replay cost stops growing with history.
        """
        return self.wal.compact_below(snapshot.view, set(snapshot.committed_hashes))

    # ---------------------------------------------------------------- appends
    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Silence appends while recovery replays history through live code paths."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def record_vote(self, view: int, slot: int, block_hash: str) -> None:
        """WAL a vote decision (must be called before the vote is sent)."""
        if not self._suspended:
            self.wal.append_vote(view, slot, block_hash)

    def record_high_cert(self, cert: Certificate) -> None:
        """WAL an advance of the highest prepare certificate."""
        if not self._suspended:
            self.wal.append_high_cert(cert)

    def record_commit_cert(self, cert: Certificate) -> None:
        """WAL an advance of the highest commit certificate."""
        if not self._suspended:
            self.wal.append_commit_cert(cert)

    def record_commit(self, block_hash: str) -> None:
        """WAL a block joining the committed ledger."""
        if not self._suspended:
            self.wal.append_commit(block_hash)

    def record_entered_view(self, view: int) -> None:
        """WAL a pacemaker view entry (restart resumes past every entered view)."""
        if not self._suspended:
            self.wal.append_entered_view(view)

    def record_peer_views(self, peer_views) -> None:
        """WAL a snapshot of the pacemaker's per-sender view table."""
        if not self._suspended:
            self.wal.append_peer_views(dict(peer_views))

    # ----------------------------------------------------------------- faults
    def tear_wal_tail(self) -> None:
        """Destroy the tail of the last WAL record (crash mid-append).

        Used by the crash-point fuzzer to model a torn write: after replay the
        last record must be gone, exactly as
        :meth:`~repro.storage.backend.FileLogBackend.replay` treats a
        truncated final line.
        """
        self.wal.backend.tear_tail()
