"""Certificates: threshold-signed quorum statements over blocks.

The paper uses several certificate kinds:

* **prepare certificate** ``P(v)`` — n−f replicas voted to prepare the block
  proposed in view ``v`` (Definition 4.1);
* **commit certificate** ``C(v)`` — n−f replicas voted to commit ``P(v)``
  (basic HotStuff-1 only);
* **New-View certificate** — formed from New-View signature shares during the
  slotting design's view transitions (annotated with the view ``fv`` in which
  it was formed);
* **New-Slot certificate** — formed from New-Slot shares for slot transitions
  within a view;
* **timeout certificate** ``TC_v`` — the pacemaker's view-synchronisation
  certificate (Figure 3).

:class:`CertificateAuthority` wraps the threshold-signature scheme and knows
how to create vote shares, aggregate them into certificates, and verify
certificates received from other replicas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_fields
from repro.crypto.threshold import SignatureShare, ThresholdScheme, ThresholdSignature
from repro.errors import InvalidCertificateError
from repro.ledger.block import Block


class CertKind(str, enum.Enum):
    """The certificate kinds used across the protocol variants."""

    PREPARE = "prepare"
    COMMIT = "commit"
    NEW_VIEW = "new-view"
    NEW_SLOT = "new-slot"
    TIMEOUT = "timeout"
    GENESIS = "genesis"


@dataclass(frozen=True)
class Certificate:
    """A threshold-signed statement about a block (or a view, for timeouts).

    Attributes
    ----------
    kind:
        Which quorum statement this certificate represents.
    view:
        View in which the certified block was proposed (for timeout
        certificates, the view being synchronised).
    slot:
        Slot of the certified block (1 for non-slotted protocols, 0 for the
        genesis certificate).
    block_hash:
        Hash of the certified block (empty for timeout certificates).
    signature:
        The aggregated threshold signature; ``None`` only for the hard-coded
        genesis certificate that all replicas assume valid.
    formed_in_view:
        For New-View certificates, the view ``fv`` whose leader formed the
        certificate (§6.1); equals ``view`` otherwise.
    """

    kind: CertKind
    view: int
    slot: int
    block_hash: str
    signature: Optional[ThresholdSignature] = None
    formed_in_view: int = -1

    @property
    def position(self) -> Tuple[int, int]:
        """Lexicographic (view, slot) position used to compare certificates."""
        return (self.view, self.slot)

    @property
    def is_genesis(self) -> bool:
        """``True`` for the hard-coded genesis certificate."""
        return self.kind is CertKind.GENESIS

    def is_higher_than(self, other: "Certificate") -> bool:
        """Return ``True`` if this certificate is lexicographically higher than *other*."""
        return self.position > other.position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Certificate({self.kind.value}, view={self.view}, slot={self.slot}, "
            f"block={self.block_hash[:8]})"
        )


def vote_payload(kind: CertKind, view: int, slot: int, block_hash: str, extra: str = "") -> str:
    """Digest that replicas sign when voting for a certificate of *kind*.

    The kind is part of the payload, providing the domain separation the
    slotting design requires between New-Slot and New-View votes over the same
    block.
    """
    return hash_fields("vote", kind.value, view, slot, block_hash, extra)


#: Certificates whose positive verification a :class:`CertificateAuthority`
#: remembers (oldest forgotten first).
VERIFIED_MEMO_MAX = 64


class CertificateAuthority:
    """Creates vote shares and certificates, and verifies incoming certificates."""

    def __init__(self, scheme: ThresholdScheme) -> None:
        self.scheme = scheme
        self._verified: Dict[Tuple[Certificate, str], bool] = {}

    # ---------------------------------------------------------------- voting
    def create_vote(
        self,
        signer: int,
        kind: CertKind,
        view: int,
        slot: int,
        block_hash: str,
        extra: str = "",
    ) -> SignatureShare:
        """Create *signer*'s threshold share voting for the given statement."""
        payload = vote_payload(kind, view, slot, block_hash, extra)
        return self.scheme.create_share(signer, payload, context=kind.value)

    def verify_vote(
        self,
        share: SignatureShare,
        kind: CertKind,
        view: int,
        slot: int,
        block_hash: str,
        extra: str = "",
    ) -> bool:
        """Check that *share* is a valid vote for the given statement."""
        expected_payload = vote_payload(kind, view, slot, block_hash, extra)
        if share.payload != expected_payload or share.context != kind.value:
            return False
        return self.scheme.verify_share(share)

    # ----------------------------------------------------------- aggregation
    def form_certificate(
        self,
        kind: CertKind,
        view: int,
        slot: int,
        block_hash: str,
        shares: Sequence[SignatureShare],
        formed_in_view: Optional[int] = None,
        extra: str = "",
    ) -> Certificate:
        """Aggregate n−f vote shares into a certificate.

        Raises :class:`InvalidCertificateError` if the shares do not match the
        statement or are insufficient.
        """
        expected_payload = vote_payload(kind, view, slot, block_hash, extra)
        usable = [share for share in shares if share is not None and share.payload == expected_payload]
        try:
            aggregate = self.scheme.aggregate(usable)
        except Exception as exc:
            raise InvalidCertificateError(
                f"cannot form {kind.value} certificate for view {view} slot {slot}: {exc}"
            ) from exc
        return Certificate(
            kind=kind,
            view=view,
            slot=slot,
            block_hash=block_hash,
            signature=aggregate,
            formed_in_view=view if formed_in_view is None else int(formed_in_view),
        )

    def verify_certificate(self, cert: Certificate, extra: str = "") -> bool:
        """Verify a certificate received from another replica.

        Every replica of a deployment receives the same certificates, and the
        replicas that share a process share one authority, so a positive
        result is remembered, keyed by the certificate and *extra*:
        :class:`Certificate` is frozen and compares by value, so a copy that
        differs in any field (the signature's signers and fingerprint
        included) is a new key and is verified afresh.  Failures are not
        remembered, and at most :data:`VERIFIED_MEMO_MAX` results are kept.
        """
        if cert.is_genesis:
            return True
        key = (cert, extra)
        if key in self._verified:
            return True
        if cert.signature is None:
            return False
        expected_payload = vote_payload(cert.kind, cert.view, cert.slot, cert.block_hash, extra)
        if cert.signature.payload != expected_payload:
            return False
        if cert.signature.context != cert.kind.value:
            return False
        if cert.signature.share_count < self.scheme.threshold:
            return False
        if not self.scheme.verify_aggregate(cert.signature):
            return False
        verified = self._verified
        if len(verified) >= VERIFIED_MEMO_MAX:
            del verified[next(iter(verified))]
        verified[key] = True
        return True

    # ----------------------------------------------------------------- misc
    @staticmethod
    def genesis_certificate(genesis_block: Block) -> Certificate:
        """The hard-coded certificate for the genesis block (assumed valid)."""
        return Certificate(
            kind=CertKind.GENESIS,
            view=genesis_block.view,
            slot=genesis_block.slot,
            block_hash=genesis_block.block_hash,
            signature=None,
            formed_in_view=genesis_block.view,
        )

    def form_timeout_certificate(self, view: int, shares: Iterable[SignatureShare]) -> Certificate:
        """Aggregate pacemaker Wish shares into a timeout certificate ``TC_v``."""
        return self.form_certificate(CertKind.TIMEOUT, view, 0, "", list(shares))

    def create_timeout_vote(self, signer: int, view: int) -> SignatureShare:
        """Create a pacemaker Wish share for *view*."""
        return self.create_vote(signer, CertKind.TIMEOUT, view, 0, "")
