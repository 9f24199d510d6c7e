"""Cryptography substrate.

The paper assumes authenticated channels, collision-resistant hashing and an
(n, t) BLS threshold-signature scheme.  This package provides the hashing
helpers and the threshold scheme every certificate is built from.  The
threshold scheme is *simulated* (HMAC-keyed shares plus an explicit threshold
check at aggregation time) because no third-party pairing library is
available offline; :mod:`repro.crypto.threshold` documents the substitution,
which preserves the properties the protocol relies on: a certificate proves
that at least ``n - f`` distinct replicas signed the same payload, and
correct replicas' shares cannot be forged by the simulated adversary.

The :class:`~repro.crypto.threshold.ThresholdScheme` also exposes cost
constants consumed by the consensus cost model so that signing/verification
work shows up in the simulated timeline exactly where the paper's
implementation pays for it.
"""

from repro.crypto.hashing import hash_bytes, hash_fields, hash_json
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdScheme,
    ThresholdSignature,
)

__all__ = [
    "SignatureShare",
    "ThresholdScheme",
    "ThresholdSignature",
    "hash_bytes",
    "hash_fields",
    "hash_json",
]
