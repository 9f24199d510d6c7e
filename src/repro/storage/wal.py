"""Write-ahead log of consensus decisions.

The WAL records, in append order, the decisions a replica must remember
across a crash:

* ``vote`` — the replica created a vote share for ``(view, slot)`` over a
  block.  Written *before* the vote leaves the replica, so a recovered
  replica can never be tricked into voting twice in the same view/slot
  (equivocation), the safety-critical half of recovery.
* ``high_cert`` — the highest prepare certificate advanced (the paper's
  ``P(v_lp)``; HotStuff's ``prepare_qc`` and, for the two-chain protocols,
  the effective lock).
* ``commit_cert`` — the highest *commit* certificate advanced (basic
  HotStuff-1's ``C(v_lc)`` / a classic ``locked_qc``).
* ``commit`` — a block hash was appended to the committed ledger.

Each record is a small JSON object; a certificate rides in it as its wire
layout in hex (:func:`repro.live.codec.record_of`).  A run clears its
file-backed logs before it starts, so a record is only ever read by the code
that wrote it and needs no tolerance across layout versions.
:meth:`WriteAheadLog.reduce` folds the record stream into the latest-state
summary recovery needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.consensus.certificates import Certificate
from repro.live.codec import from_record, record_of
from repro.storage.backend import LogBackend

#: Record kinds understood by :meth:`WriteAheadLog.reduce`.
KIND_VOTE = "vote"
KIND_HIGH_CERT = "high_cert"
KIND_COMMIT_CERT = "commit_cert"
KIND_COMMIT = "commit"
KIND_ENTERED_VIEW = "entered_view"
KIND_PEER_VIEWS = "peer_views"


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL entry."""

    kind: str
    view: int = 0
    slot: int = 0
    block_hash: str = ""
    cert: Optional[Certificate] = None
    peer_views: Optional[Dict[int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind}
        if self.kind == KIND_VOTE:
            record.update(view=self.view, slot=self.slot, block_hash=self.block_hash)
        elif self.kind in (KIND_HIGH_CERT, KIND_COMMIT_CERT):
            record["cert"] = record_of(self.cert)
        elif self.kind == KIND_COMMIT:
            record["block_hash"] = self.block_hash
        elif self.kind == KIND_ENTERED_VIEW:
            record["view"] = self.view
        elif self.kind == KIND_PEER_VIEWS:
            # JSON object keys are strings; decode restores the int ids.
            record["views"] = {str(sender): view for sender, view in (self.peer_views or {}).items()}
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "WalRecord":
        kind = record.get("kind", "")
        if kind == KIND_VOTE:
            return cls(
                kind=kind,
                view=int(record["view"]),
                slot=int(record["slot"]),
                block_hash=str(record["block_hash"]),
            )
        if kind in (KIND_HIGH_CERT, KIND_COMMIT_CERT):
            return cls(kind=kind, cert=from_record(record["cert"], Certificate))
        if kind == KIND_COMMIT:
            return cls(kind=kind, block_hash=str(record["block_hash"]))
        if kind == KIND_ENTERED_VIEW:
            return cls(kind=kind, view=int(record["view"]))
        if kind == KIND_PEER_VIEWS:
            return cls(
                kind=kind,
                peer_views={
                    int(sender): int(view)
                    for sender, view in record.get("views", {}).items()
                },
            )
        return cls(kind=kind)


@dataclass
class WalState:
    """Latest-state summary of a WAL (the input to recovery)."""

    last_voted_view: int = 0
    voted: Set[Tuple[int, int]] = field(default_factory=set)
    highest_voted_hash: str = ""
    high_cert: Optional[Certificate] = None
    commit_cert: Optional[Certificate] = None
    committed_hashes: List[str] = field(default_factory=list)
    #: Highest view the replica ever entered (>= anything it voted in).
    entered_view: int = 0
    #: Last persisted per-sender view table snapshot (folded max per sender).
    peer_views: Dict[int, int] = field(default_factory=dict)


class WriteAheadLog:
    """Typed facade over an append-only :class:`~repro.storage.backend.LogBackend`."""

    def __init__(self, backend: LogBackend) -> None:
        self.backend = backend

    # -------------------------------------------------------------- appends
    def append_vote(self, view: int, slot: int, block_hash: str) -> None:
        """Record a vote for ``(view, slot)`` over *block_hash* (call before sending)."""
        self.backend.append(
            WalRecord(kind=KIND_VOTE, view=view, slot=slot, block_hash=block_hash).to_dict()
        )

    def append_high_cert(self, cert: Certificate) -> None:
        """Record that the highest prepare certificate advanced to *cert*."""
        self.backend.append(WalRecord(kind=KIND_HIGH_CERT, cert=cert).to_dict())

    def append_commit_cert(self, cert: Certificate) -> None:
        """Record that the highest commit certificate advanced to *cert*."""
        self.backend.append(WalRecord(kind=KIND_COMMIT_CERT, cert=cert).to_dict())

    def append_commit(self, block_hash: str) -> None:
        """Record that *block_hash* joined the committed ledger."""
        self.backend.append(WalRecord(kind=KIND_COMMIT, block_hash=block_hash).to_dict())

    def append_entered_view(self, view: int) -> None:
        """Record that the pacemaker entered *view*."""
        self.backend.append(WalRecord(kind=KIND_ENTERED_VIEW, view=view).to_dict())

    def append_peer_views(self, peer_views: Dict[int, int]) -> None:
        """Record a snapshot of the pacemaker's per-sender view table."""
        self.backend.append(
            WalRecord(kind=KIND_PEER_VIEWS, peer_views=dict(peer_views)).to_dict()
        )

    # ----------------------------------------------------------- compaction
    def compact_below(self, snapshot_view: int, covered_hashes: Set[str]) -> int:
        """Drop every record a snapshot through *snapshot_view* subsumes.

        Kept are: the latest high/commit certificate (re-emitted once), the
        folded ``entered_view`` / ``peer_views`` records, vote records with
        ``view >= snapshot_view`` (the snapshot view itself may still collect
        votes in higher slots, and never-vote-twice must keep covering them),
        commit records for hashes outside *covered_hashes* (the post-snapshot
        suffix, in order), and any unknown record kinds verbatim.  Older vote
        records are safe to drop because a recovered replica resumes strictly
        past the snapshot view and views are monotonic — it can never be asked
        to vote below the snapshot again.  Returns the number of records
        dropped.
        """
        raw_records = self.backend.replay()  # one read serves fold, filter and count
        state = self._reduce_records([WalRecord.from_dict(raw) for raw in raw_records])
        compacted: List[Dict[str, Any]] = []
        if state.high_cert is not None:
            compacted.append(WalRecord(kind=KIND_HIGH_CERT, cert=state.high_cert).to_dict())
        if state.commit_cert is not None:
            compacted.append(
                WalRecord(kind=KIND_COMMIT_CERT, cert=state.commit_cert).to_dict()
            )
        if state.entered_view:
            compacted.append(
                WalRecord(kind=KIND_ENTERED_VIEW, view=state.entered_view).to_dict()
            )
        if state.peer_views:
            compacted.append(
                WalRecord(kind=KIND_PEER_VIEWS, peer_views=state.peer_views).to_dict()
            )
        for raw in raw_records:
            record = WalRecord.from_dict(raw)
            if record.kind == KIND_VOTE:
                if record.view >= snapshot_view:
                    compacted.append(raw)
            elif record.kind == KIND_COMMIT:
                if record.block_hash not in covered_hashes:
                    compacted.append(raw)
            elif record.kind in (
                KIND_HIGH_CERT,
                KIND_COMMIT_CERT,
                KIND_ENTERED_VIEW,
                KIND_PEER_VIEWS,
            ):
                continue  # folded into the single records above
            else:
                compacted.append(raw)  # unknown kinds stay, inert
        dropped = len(raw_records) - len(compacted)
        self.backend.compact(compacted)
        return dropped

    # --------------------------------------------------------------- replay
    def records(self) -> List[WalRecord]:
        """Decode every appended record, in order (unknown kinds are kept, inert)."""
        return [WalRecord.from_dict(record) for record in self.backend.replay()]

    def reduce(self) -> WalState:
        """Fold the record stream into the latest state recovery restores."""
        return self._reduce_records(self.records())

    @staticmethod
    def _reduce_records(records: List[WalRecord]) -> WalState:
        state = WalState()
        highest_voted: Tuple[int, int] = (0, 0)
        committed_seen: Set[str] = set()
        for record in records:
            if record.kind == KIND_VOTE:
                state.voted.add((record.view, record.slot))
                state.last_voted_view = max(state.last_voted_view, record.view)
                if (record.view, record.slot) >= highest_voted:
                    highest_voted = (record.view, record.slot)
                    state.highest_voted_hash = record.block_hash
            elif record.kind == KIND_HIGH_CERT:
                if state.high_cert is None or record.cert.position > state.high_cert.position:
                    state.high_cert = record.cert
            elif record.kind == KIND_COMMIT_CERT:
                if state.commit_cert is None or record.cert.position > state.commit_cert.position:
                    state.commit_cert = record.cert
            elif record.kind == KIND_COMMIT:
                if record.block_hash not in committed_seen:
                    committed_seen.add(record.block_hash)
                    state.committed_hashes.append(record.block_hash)
            elif record.kind == KIND_ENTERED_VIEW:
                state.entered_view = max(state.entered_view, record.view)
            elif record.kind == KIND_PEER_VIEWS:
                for sender, view in (record.peer_views or {}).items():
                    state.peer_views[sender] = max(state.peer_views.get(sender, 0), view)
        return state
