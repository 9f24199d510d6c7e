"""Simulated (n, t) threshold signature scheme.

The paper uses BLS threshold signatures: each replica contributes a signature
share over a payload; an aggregator combines ``t`` distinct shares into a
single threshold signature that any receiver can verify against the group
public key.  HotStuff-1 builds every certificate (prepare, commit, New-View,
New-Slot, timeout) out of such signatures.

Without a pairing library we simulate the scheme:

* a *share* is an HMAC over ``(payload digest, context)`` keyed by the
  replica's secret share key;
* an *aggregate* is the verified multiset of at least ``threshold`` shares
  from distinct signers, fingerprinted into a compact digest;
* *verification* recomputes every contained share against the group's
  registered share keys and checks the distinct-signer threshold.

The interface (share / aggregate / verify) and the failure modes (too few
shares, duplicate signer, corrupted share) match what the protocol relies on.
The simulated CPU cost of signing and verifying is charged by replicas through
:class:`repro.consensus.costs.CostModel`, not here.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.crypto.hashing import combine_digests
from repro.errors import ThresholdError


@dataclass(frozen=True)
class SignatureShare:
    """One replica's contribution towards a threshold signature.

    Attributes
    ----------
    signer:
        Replica id that produced the share.
    payload:
        Digest of the signed payload (e.g. a block hash plus view number).
    context:
        Domain-separation tag; the slotting design signs distinct contexts
        (``"new-slot"`` vs ``"new-view"``) over the same payload, and the two
        must not be interchangeable.
    value:
        Hex HMAC share value.
    """

    signer: int
    payload: str
    context: str
    value: str


@dataclass(frozen=True)
class ThresholdSignature:
    """An aggregated threshold signature (the paper's "certificate" body).

    Attributes
    ----------
    payload:
        The common payload digest all shares signed.
    context:
        The common domain-separation tag.
    signers:
        Sorted tuple of the distinct replica ids whose shares were combined.
    threshold:
        The threshold the aggregate was checked against at creation time.
    fingerprint:
        A compact digest binding payload, context and signer set.
    """

    payload: str
    context: str
    signers: Tuple[int, ...]
    threshold: int
    fingerprint: str

    @property
    def share_count(self) -> int:
        """Number of distinct signers that contributed."""
        return len(self.signers)


class ThresholdScheme:
    """The (n, t) threshold-signature scheme for one deployment.

    Parameters
    ----------
    n:
        Total number of replicas.
    threshold:
        Minimum number of distinct shares required to aggregate (``n - f``).
    seed:
        Deployment seed used to derive per-replica share keys.
    """

    def __init__(self, n: int, threshold: int, seed: int = 0) -> None:
        if n <= 0:
            raise ThresholdError(f"n must be positive, got {n}")
        if not 1 <= threshold <= n:
            raise ThresholdError(f"threshold must be in [1, {n}], got {threshold}")
        self.n = int(n)
        self.threshold = int(threshold)
        self.seed = int(seed)
        self._share_keys: Dict[int, bytes] = {
            replica_id: hashlib.sha256(
                f"threshold-share-key|{seed}|{replica_id}".encode("utf-8")
            ).digest()
            for replica_id in range(n)
        }

    # ---------------------------------------------------------------- shares
    def create_share(self, signer: int, payload: str, context: str = "") -> SignatureShare:
        """Create *signer*'s share over ``(payload, context)``."""
        key = self._key_for(signer)
        value = hmac.new(
            key, f"share|{context}|{payload}".encode("utf-8"), hashlib.sha256
        ).hexdigest()
        return SignatureShare(signer=signer, payload=payload, context=context, value=value)

    def verify_share(self, share: SignatureShare) -> bool:
        """Return ``True`` iff *share* is a valid share from its claimed signer."""
        try:
            key = self._key_for(share.signer)
        except ThresholdError:
            return False
        expected = hmac.new(
            key, f"share|{share.context}|{share.payload}".encode("utf-8"), hashlib.sha256
        ).hexdigest()
        return hmac.compare_digest(expected, share.value)

    # ------------------------------------------------------------- aggregate
    def aggregate(
        self,
        shares: Sequence[SignatureShare],
        threshold: int | None = None,
    ) -> ThresholdSignature:
        """Combine *shares* into a threshold signature.

        Raises :class:`ThresholdError` when the shares disagree on payload or
        context, contain invalid values, or cover fewer distinct signers than
        the threshold.
        """
        required = self.threshold if threshold is None else int(threshold)
        distinct = self._distinct_valid_shares(shares)
        if len(distinct) < required:
            raise ThresholdError(
                f"need {required} distinct valid shares, got {len(distinct)}"
            )
        payload = distinct[0].payload
        context = distinct[0].context
        signers = tuple(sorted(share.signer for share in distinct))
        fingerprint = combine_digests(
            [payload, context, ",".join(str(signer) for signer in signers)]
        )
        return ThresholdSignature(
            payload=payload,
            context=context,
            signers=signers,
            threshold=required,
            fingerprint=fingerprint,
        )

    def verify_aggregate(self, aggregate: ThresholdSignature) -> bool:
        """Verify an aggregate against the group's share keys.

        Recomputes each contained signer's share, checks the fingerprint and
        the distinct-signer threshold.
        """
        if aggregate.share_count < aggregate.threshold:
            return False
        if len(set(aggregate.signers)) != len(aggregate.signers):
            return False
        for signer in aggregate.signers:
            if signer not in self._share_keys:
                return False
        expected_fingerprint = combine_digests(
            [
                aggregate.payload,
                aggregate.context,
                ",".join(str(signer) for signer in sorted(aggregate.signers)),
            ]
        )
        return hmac.compare_digest(expected_fingerprint, aggregate.fingerprint)

    # -------------------------------------------------------------- internal
    def _key_for(self, signer: int) -> bytes:
        if signer not in self._share_keys:
            raise ThresholdError(f"unknown signer id {signer!r}")
        return self._share_keys[signer]

    def _distinct_valid_shares(
        self, shares: Iterable[SignatureShare]
    ) -> List[SignatureShare]:
        seen: Dict[int, SignatureShare] = {}
        payload: str | None = None
        context: str | None = None
        for share in shares:
            if share is None:
                continue
            if not self.verify_share(share):
                raise ThresholdError(f"invalid share from signer {share.signer}")
            if payload is None:
                payload, context = share.payload, share.context
            elif share.payload != payload or share.context != context:
                raise ThresholdError(
                    "cannot aggregate shares over different payloads/contexts"
                )
            seen.setdefault(share.signer, share)
        return list(seen.values())
