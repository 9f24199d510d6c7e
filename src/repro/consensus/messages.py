"""Protocol message types.

One module defines every message used by the protocol family so that the
network layer, the replicas and the tests all share the same vocabulary.
Messages are plain dataclasses; authentication is implicit (the simulated
network never mis-attributes a sender), while quorum statements inside
messages carry explicit threshold signature shares / certificates that are
verified by receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.checkpoint.snapshot import Snapshot
from repro.consensus.certificates import Certificate
from repro.crypto.threshold import SignatureShare
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction
from repro.types import NULL_DIGEST


@dataclass(frozen=True)
class ClientRequest:
    """A client submits a transaction for ordering and execution."""

    txn: Transaction


@dataclass(frozen=True)
class ClientRequestBatch:
    """Several client transactions submitted in one network frame.

    The live transport's client pool coalesces the burst of closed-loop
    re-submissions that follows each response batch (and each open-loop
    injector tick) into one of these per target replica, so a 200-entry
    response batch costs the wire 1 frame back per replica instead of 200.
    Semantically equivalent to that many :class:`ClientRequest` messages.
    """

    txns: Tuple[Transaction, ...]


@dataclass(frozen=True)
class ResponseEntry:
    """Per-transaction part of a :class:`ClientResponseBatch`.

    The transaction's result is covered by the batch's ``results_root``;
    ``result_digest`` stays :data:`NULL_DIGEST` in what replicas send and is
    reserved for a per-transaction proof against the root.
    """

    txn_id: int
    client_id: int
    result_digest: str = NULL_DIGEST
    success: bool = True


@dataclass(frozen=True)
class ClientResponseBatch:
    """A replica's responses to the clients for one block.

    ``speculative`` distinguishes early finality confirmations (HotStuff-1's
    commit-votes with speculative results) from post-commit responses.
    ``results_root`` is ``combine_digests([block_hash, *result digests in
    block order])``: one digest over the whole block's execution, which is
    what clients match across replicas (:mod:`repro.consensus.client`,
    "Matching responses").
    """

    replica_id: int
    view: int
    slot: int
    block_hash: str
    speculative: bool
    entries: Tuple[ResponseEntry, ...]
    results_root: str = NULL_DIGEST


@dataclass(frozen=True)
class Propose:
    """Leader proposal for a (view, slot).

    ``justify`` is the certificate the block extends (``P(v_lp)``); basic
    HotStuff-1 additionally carries the highest commit certificate
    ``commit_cert`` (``C(v_lc)``); slotted proposals may carry the hash of a
    *carry block* (§6.1, way (ii)).
    """

    view: int
    slot: int
    block: Block
    justify: Certificate
    commit_cert: Optional[Certificate] = None
    carry_hash: str = NULL_DIGEST


@dataclass(frozen=True)
class ProposeVote:
    """Basic HotStuff-1 first-phase vote, sent to the current leader."""

    view: int
    voter: int
    block_hash: str
    share: SignatureShare


@dataclass(frozen=True)
class Prepare:
    """Basic HotStuff-1 second-phase message: the leader broadcasts ``P(v)``."""

    view: int
    cert: Certificate


@dataclass(frozen=True)
class NewView:
    """Vote-and-view-change message sent to the leader of the next view.

    In the streamlined protocols this message doubles as the vote for the
    current proposal (``share`` over the proposed block); on timeout the share
    is ``None`` and only the highest known certificate is reported.  For the
    slotting design it also carries the hash of the sender's highest voted
    block (``highest_voted_hash``) so the next leader can identify carry
    blocks.
    """

    view: int
    voter: int
    high_cert: Certificate
    share: Optional[SignatureShare] = None
    voted_block_hash: str = NULL_DIGEST
    highest_voted_hash: str = NULL_DIGEST
    commit_share: Optional[SignatureShare] = None


@dataclass(frozen=True)
class NewSlot:
    """Slotting design: a replica's vote for slot ``(slot, view)`` sent to the same leader."""

    view: int
    slot: int
    voter: int
    high_cert: Certificate
    share: SignatureShare
    voted_block_hash: str = NULL_DIGEST


@dataclass(frozen=True)
class Reject:
    """Slotting design: a replica rejects an unsafe proposal and reports its highest certificate."""

    view: int
    slot: int
    voter: int
    high_cert: Certificate


@dataclass(frozen=True)
class Wish:
    """Pacemaker: a replica wishes to enter *view* (start of an epoch).

    ``current_view`` and ``high_cert`` are view-synchronisation evidence: the
    sender's current view and highest known certificate, which receivers fold
    into their per-sender view table (see
    :meth:`~repro.consensus.pacemaker.Pacemaker.note_peer_view`).
    """

    view: int
    voter: int
    share: SignatureShare
    current_view: int = 0
    high_cert: Optional[Certificate] = None


@dataclass(frozen=True)
class TimeoutCertificateMsg:
    """Pacemaker: broadcast / relay of the timeout certificate ``TC_v``.

    ``sender_view`` / ``high_cert`` carry the broadcasting (or relaying)
    replica's own view evidence, like every other pacemaker message.
    """

    view: int
    cert: Certificate
    sender_view: int = 0
    high_cert: Optional[Certificate] = None


@dataclass(frozen=True)
class ViewSync:
    """Pacemaker: view-synchronisation beacon.

    Broadcast whenever a view timer expires and periodically while a replica
    is parked at an epoch boundary waiting for a timeout certificate.  A
    replica that collects ``f + 1`` distinct senders reporting views above its
    own jumps to the ``(f + 1)``-th highest reported view (at least one honest
    replica reached it), which is what lets a recovered replica catch up to
    survivors circling at high views after ``> f`` simultaneous crashes.
    """

    view: int
    voter: int
    high_cert: Optional[Certificate] = None


@dataclass(frozen=True)
class FetchRequest:
    """Recovery: ask another replica for a block by hash."""

    block_hash: str
    requester: int


@dataclass(frozen=True)
class FetchResponse:
    """Recovery: a block returned in response to a :class:`FetchRequest`."""

    block: Block


@dataclass(frozen=True)
class SnapshotRequest:
    """State transfer: ask a peer for its newest checkpoint snapshot.

    ``have_height`` is the requester's current committed height; a responder
    whose snapshot does not exceed it answers with an empty response so the
    requester falls back to block-by-block fetch without waiting.
    """

    requester: int
    have_height: int = 0


@dataclass(frozen=True)
class SnapshotResponse:
    """State transfer: a checkpoint snapshot (or the lack of one).

    ``snapshot`` is a :class:`~repro.checkpoint.snapshot.Snapshot`, or
    ``None`` when the responder has nothing newer than the requester — the
    signal to fall back to the ``FetchRequest`` path.
    """

    responder: int
    snapshot: Optional[Snapshot] = None
