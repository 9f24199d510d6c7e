"""Unit tests for the cryptography substrate."""

from __future__ import annotations

import pytest

from repro.crypto.hashing import combine_digests, hash_bytes, hash_fields, hash_json, hash_text
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ThresholdError


class TestHashing:
    def test_hash_bytes_is_hex_sha256(self):
        digest = hash_bytes(b"hello")
        assert len(digest) == 64
        assert digest == hash_bytes(b"hello")

    def test_different_inputs_different_digests(self):
        assert hash_text("a") != hash_text("b")

    def test_hash_fields_is_order_sensitive(self):
        assert hash_fields("a", "b") != hash_fields("b", "a")

    def test_hash_fields_separates_adjacent_fields(self):
        assert hash_fields("ab", "c") != hash_fields("a", "bc")

    def test_hash_json_is_key_order_insensitive(self):
        assert hash_json({"a": 1, "b": 2}) == hash_json({"b": 2, "a": 1})

    def test_combine_digests_depends_on_order(self):
        digests = [hash_text("x"), hash_text("y")]
        assert combine_digests(digests) != combine_digests(reversed(digests))


class TestThresholdScheme:
    def make_scheme(self, n=4, threshold=3):
        return ThresholdScheme(n=n, threshold=threshold, seed=11)

    def test_share_verifies(self):
        scheme = self.make_scheme()
        share = scheme.create_share(0, "payload", "ctx")
        assert scheme.verify_share(share)

    def test_share_from_unknown_signer_rejected(self):
        scheme = self.make_scheme()
        share = scheme.create_share(1, "payload", "ctx")
        forged = type(share)(signer=99, payload=share.payload, context=share.context, value=share.value)
        assert not scheme.verify_share(forged)

    def test_aggregate_requires_threshold_distinct_signers(self):
        scheme = self.make_scheme()
        shares = [scheme.create_share(i, "payload") for i in range(2)]
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_duplicate_signers_do_not_count_twice(self):
        scheme = self.make_scheme()
        shares = [scheme.create_share(0, "payload")] * 3
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_aggregate_and_verify(self):
        scheme = self.make_scheme()
        shares = [scheme.create_share(i, "payload", "prepare") for i in range(3)]
        aggregate = scheme.aggregate(shares)
        assert aggregate.share_count == 3
        assert scheme.verify_aggregate(aggregate)

    def test_mixed_payload_shares_rejected(self):
        scheme = self.make_scheme()
        shares = [scheme.create_share(0, "a"), scheme.create_share(1, "a"), scheme.create_share(2, "b")]
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_invalid_share_rejected_at_aggregation(self):
        scheme = self.make_scheme()
        good = [scheme.create_share(i, "payload") for i in range(2)]
        bad = type(good[0])(signer=3, payload="payload", context="", value="0" * 64)
        with pytest.raises(ThresholdError):
            scheme.aggregate(good + [bad])

    def test_tampered_aggregate_fails_verification(self):
        scheme = self.make_scheme()
        shares = [scheme.create_share(i, "payload") for i in range(3)]
        aggregate = scheme.aggregate(shares)
        forged = type(aggregate)(
            payload="other",
            context=aggregate.context,
            signers=aggregate.signers,
            threshold=aggregate.threshold,
            fingerprint=aggregate.fingerprint,
        )
        assert not scheme.verify_aggregate(forged)

    def test_context_separates_domains(self):
        scheme = self.make_scheme()
        slot_share = scheme.create_share(0, "payload", "new-slot")
        view_share = scheme.create_share(0, "payload", "new-view")
        assert slot_share.value != view_share.value

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ThresholdError):
            ThresholdScheme(n=0, threshold=1)
        with pytest.raises(ThresholdError):
            ThresholdScheme(n=4, threshold=5)
