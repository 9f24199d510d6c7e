"""Wire-codec round-trips for every protocol message type."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.consensus.certificates import CertKind, Certificate
from repro.consensus.messages import (
    ClientRequest,
    ClientRequestBatch,
    ClientResponseBatch,
    FetchRequest,
    FetchResponse,
    NewSlot,
    NewView,
    Prepare,
    Propose,
    ProposeVote,
    Reject,
    ResponseEntry,
    SnapshotRequest,
    SnapshotResponse,
    TimeoutCertificateMsg,
    ViewSync,
    Wish,
)
from repro.checkpoint.snapshot import Snapshot
from repro.core.streamlined import HotStuff1Replica
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError
from repro.experiments.report import format_network_breakdown
from repro.ledger import transaction as transaction_module
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.transaction import OPERATION_SCHEMAS, Transaction
from repro.live import codec, layout
from repro.sim.rng import SeededRng
from repro.types import NULL_DIGEST
from repro.workloads.base import make_workload
from tests.helpers import ReplicaHarness, binary_round_trip


def _fixture_objects():
    """Build one of everything: shares, an aggregate, a block, a certificate."""
    scheme = ThresholdScheme(n=4, threshold=3, seed=7)
    shares = [scheme.create_share(signer, "digest-of-vote", context="prepare") for signer in range(3)]
    aggregate = scheme.aggregate(shares)
    txns = tuple(
        Transaction.create(
            client_id=-1_000_000 - i,
            operation="ycsb_write",
            payload={"key": 40 + i, "value": "v" * 16},
            submitted_at=0.25,
        )
        for i in range(3)
    )
    block = Block.build(
        view=5,
        slot=2,
        parent_hash=make_genesis_block().block_hash,
        proposer=1,
        transactions=txns,
        carry_hash=NULL_DIGEST,
    )
    cert = Certificate(
        kind=CertKind.PREPARE,
        view=5,
        slot=2,
        block_hash=block.block_hash,
        signature=aggregate,
        formed_in_view=6,
    )
    return shares, block, cert, txns


def _all_messages():
    shares, block, cert, txns = _fixture_objects()
    entries = tuple(
        ResponseEntry(txn_id=txn.txn_id, client_id=txn.client_id, result_digest="r" * 64, success=True)
        for txn in txns
    )
    return [
        ClientRequest(txn=txns[0]),
        ClientRequestBatch(txns=txns),
        ClientResponseBatch(
            replica_id=2, view=5, slot=2, block_hash=block.block_hash, speculative=True, entries=entries
        ),
        Propose(view=5, slot=2, block=block, justify=cert, commit_cert=cert, carry_hash=block.block_hash),
        Propose(view=5, slot=2, block=block, justify=cert),  # optional fields absent
        ProposeVote(view=5, voter=3, block_hash=block.block_hash, share=shares[0]),
        Prepare(view=5, cert=cert),
        NewView(view=6, voter=1, high_cert=cert, share=shares[1], voted_block_hash=block.block_hash),
        NewView(view=6, voter=1, high_cert=cert, share=None),  # timeout vote
        NewSlot(view=5, slot=3, voter=0, high_cert=cert, share=shares[2], voted_block_hash=block.block_hash),
        Reject(view=5, slot=3, voter=2, high_cert=cert),
        Wish(view=6, voter=3, share=shares[0]),
        Wish(view=6, voter=3, share=shares[0], current_view=5, high_cert=cert),
        TimeoutCertificateMsg(view=6, cert=cert),
        TimeoutCertificateMsg(view=6, cert=cert, sender_view=5, high_cert=cert),
        ViewSync(view=7, voter=2, high_cert=cert),
        ViewSync(view=7, voter=2),  # beacon before any certificate is known
        FetchRequest(block_hash=block.block_hash, requester=1),
        FetchResponse(block=block),
        SnapshotRequest(requester=2, have_height=7),
        SnapshotResponse(responder=1),  # "nothing newer": fall back to fetch
        SnapshotResponse(
            responder=1,
            snapshot=Snapshot(
                height=1,
                block=block,
                cert=cert,
                state_digest="d" * 64,
                state={"tables": {"usertable": [["user1", "v1"], [{"__tuple__": [1, 2]}, {"ytd": 0.5}]]}},
                committed_hashes=[block.block_hash],
            ),
        ),
    ]


class TestMessageRoundTrip:
    def test_every_message_type_round_trips(self):
        seen_types = set()
        for message in _all_messages():
            data = codec.encode_message(message)
            assert data[0] >= codec.BINARY_TAG_BASE  # the type tag
            assert codec.decode_message(data) == message
            seen_types.add(type(message))
        assert seen_types == set(codec.MESSAGE_TYPES)

    def test_nested_objects_are_reconstructed_with_their_types(self):
        _, block, cert, _ = _fixture_objects()
        proposal = codec.decode_message(codec.encode_message(Propose(view=5, slot=2, block=block, justify=cert)))
        assert isinstance(proposal.block, Block)
        assert isinstance(proposal.block.transactions, tuple)
        assert isinstance(proposal.block.transactions[0], Transaction)
        assert isinstance(proposal.justify, Certificate)
        assert proposal.justify.kind is CertKind.PREPARE
        assert isinstance(proposal.justify.signature.signers, tuple)

    def test_transaction_payload_keys_survive_including_non_string(self):
        txn = Transaction.create(client_id=1, operation="op", payload={1: "a", "b": [1, 2], "c": {"d": 0.5}})
        decoded = codec.decode_message(codec.encode_message(ClientRequest(txn=txn)))
        assert decoded.txn.payload == {1: "a", "b": [1, 2], "c": {"d": 0.5}}

    def test_unknown_type_raises(self):
        with pytest.raises(codec.UnknownWireTypeError):
            codec.encode_message(object())

    def test_garbage_bytes_raise_codec_error(self):
        with pytest.raises(codec.CodecError):
            codec.decode_message(b"not json at all{")

    def test_the_bytes_did_not_move(self, monkeypatch):
        """One digest over every message's encoding and its untraced and
        traced frames: a layout change must bump the envelope versions and
        this digest together."""
        monkeypatch.setattr(transaction_module, "_TXN_COUNTER", itertools.count())  # ids from 0
        digest = hashlib.sha256()
        for message in _all_messages():
            wire = codec.encode_message(message)
            digest.update(wire)
            digest.update(codec.frame_from_message(3, -1, wire, 1.25))
            digest.update(codec.frame_from_message(3, -1, wire, 1.25, seq=7))
        assert digest.hexdigest() == "1e0365bbe3e0f0dff122b20ed91f0d5d66d19d2a58470ab99e0a4261a54b1c0e"

    @pytest.mark.parametrize("seq", [None, 3], ids=["untraced", "traced"])
    def test_frame_size_is_the_framed_length(self, seq):
        """Live ``bytes_per_op`` charges ``frame_size`` without building the
        frame: it must equal the length of the frame actually written."""
        codec.reset_size_cache()
        for message in _all_messages():
            wire = codec.encode_message(message)
            frame = codec.frame_from_message(0, 1, wire, 0.5, seq=seq)
            assert codec.frame_size(0, 1, wire, 0.5, seq=seq) == len(frame), type(message).__name__


def _frame_body(message):
    return codec.frame_from_message(0, 1, codec.encode_message(message), 0.0)[4:]


#: A client request as a JSON body: any such body opens with ``{`` (0x7b).
_JSON_MESSAGE = {
    "type": "client_request",
    "txn": {"txn_id": 3, "client_id": -1000000, "operation": "ycsb_write",
            "payload": {"key": 40, "value": "v" * 16}, "submitted_at": 0.25},
}


class TestEnvelopeFrames:
    """Envelope versions 10 (untraced) and 11 (traced): the only framed format."""

    def test_frame_round_trip_preserves_routing_fields(self):
        codec.reset_size_cache()
        for message in (_all_messages()[0], _all_messages()[3]):  # a request, a Propose with a full block
            frame = codec.frame_from_message(3, -1, codec.encode_message(message), 1.25)
            (length,) = codec.FRAME_HEADER.unpack(frame[:4])
            assert length == len(frame) - 4
            assert frame[4] == codec.BINARY_MAGIC and frame[5] == codec.BINARY_WIRE_VERSION
            assert codec.decode_envelope(frame[4:]) == (3, -1, 1.25, None, message)

    def test_envelope_versions_are_10_and_11(self):
        # Numbered past the retired binary versions (4, 5: self-describing;
        # 6, 7: tagged payloads; 8, 9: a result digest per response entry).
        assert (codec.BINARY_WIRE_VERSION, codec.BINARY_TRACED_WIRE_VERSION) == (10, 11)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_json_envelope_bodies_are_refused_by_their_first_byte(self, version):
        """The JSON envelope (versions 1-5) is no longer a wire format: its
        body is refused before anything in it is parsed."""
        body = json.dumps({"v": version, "s": 0, "r": 1, "a": 0.5, "m": _JSON_MESSAGE}).encode("utf-8")
        with pytest.raises(codec.CodecError, match="starts with 0x7b, not the envelope magic 0xb1"):
            codec.decode_envelope(body)

    def test_json_message_bodies_are_refused_by_their_type_tag(self):
        document = json.dumps(_JSON_MESSAGE).encode("utf-8")
        with pytest.raises(codec.CodecError, match="type tag 0x7b"):
            codec.decode_message(document)
        head = codec._ENVELOPE.pack(codec.BINARY_MAGIC, codec.BINARY_WIRE_VERSION, 0, 2, 0.0)
        with pytest.raises(codec.CodecError, match="type tag 0x7b"):
            codec.decode_envelope(head + document)

    @pytest.mark.parametrize("retired", [4, 5, 6, 7, 8, 9])
    def test_retired_binary_layout_rejected(self, retired):
        """Versions 4 and 5 were the self-describing binary encoding (varint
        ids, then a 0x09 object), 6 and 7 spelled every transaction payload
        out, 8 and 9 sent a 41-byte record per response entry: a body in any
        of these layouts is refused with an error naming its version
        (tests/test_properties.py restamps current frames)."""
        old_head = bytes((codec.BINARY_MAGIC, retired, 0, 4)) + layout.DOUBLE.pack(0.5)
        with pytest.raises(codec.CodecError, match=f"envelope version {retired}"):
            codec.decode_envelope(old_head + b"\x09\x06\x03\x02")

    def test_unsupported_binary_wire_version_rejected(self):
        body = bytearray(_frame_body(_all_messages()[0]))
        assert body[1] == codec.BINARY_WIRE_VERSION
        body[1] = 99
        with pytest.raises(codec.CodecError, match="version"):
            codec.decode_envelope(bytes(body))

    def test_truncated_binary_frames_raise_codec_error(self):
        body = _frame_body(_all_messages()[2])
        for cut in (len(body) // 2, len(body) - 1, 12):
            with pytest.raises(codec.CodecError):
                codec.decode_envelope(body[:cut])

    def test_trailing_bytes_after_binary_payload_rejected(self):
        codec.reset_size_cache()
        with pytest.raises(codec.CodecError, match="trailing"):
            codec.decode_envelope(_frame_body(_all_messages()[0]) + b"\x00")
        with pytest.raises(codec.CodecError, match="trailing"):
            codec.decode_message(codec.encode_message(_all_messages()[0]) + b"\x00")

    def test_unknown_binary_type_tag_rejected(self):
        unregistered = codec.BINARY_TAG_BASE + len(codec._DECODERS)
        head = codec._ENVELOPE.pack(codec.BINARY_MAGIC, codec.BINARY_WIRE_VERSION, 0, 2, 0.0)
        with pytest.raises(codec.CodecError, match="type tag"):
            codec.decode_envelope(head + bytes((unregistered,)))
        with pytest.raises(codec.CodecError, match="type tag"):
            codec.decode_message(b"\xff")

    def test_oversized_frame_raises_configuration_error(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 64)
        with pytest.raises(codec.FrameTooLargeError) as excinfo:
            _frame_body(_all_messages()[2])
        assert isinstance(excinfo.value, ConfigurationError)
        assert isinstance(excinfo.value, codec.CodecError)

    @pytest.mark.parametrize("slack, fits", [(0, True), (-1, False)])
    def test_message_fits_frame_agrees_with_the_traced_frame(self, monkeypatch, slack, fits):
        """The pre-flight bound is the traced envelope head (26 bytes), the
        largest a frame wraps a message in: a snapshot that frames is never
        declined, one that does not is never sent."""
        response = _all_messages()[-1]
        encoded = codec.encode_message(response)
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", len(encoded) + 26 + slack)
        assert codec.message_fits_frame(response) is fits
        if fits:
            codec.frame_from_message(0, 1, encoded, 0.5, seq=1)
        else:
            with pytest.raises(codec.FrameTooLargeError):
                codec.frame_from_message(0, 1, encoded, 0.5, seq=1)

    def test_broadcast_payloads_share_one_decoded_object(self):
        """Per-receiver frames spliced around one encoded message decode to
        the same object, mirroring the simulator's single delivered message."""
        codec.reset_size_cache()
        message = _all_messages()[2]
        encoded = codec.encode_message(message)
        body_a = codec.frame_from_message(0, 1, encoded, 0.25)[4:]
        body_b = codec.frame_from_message(0, 2, encoded, 0.25)[4:]
        payload_a = codec.decode_envelope(body_a)[4]
        payload_b = codec.decode_envelope(body_b)[4]
        assert payload_a == message
        assert payload_a is payload_b


class TestWireCodecScope:
    def test_only_binary_is_a_wire_codec(self):
        with pytest.raises(ConfigurationError, match=r"unknown wire codec 'json'; available: \['binary'\]"):
            with codec.wire_codec_scope("json"):
                pass

    def test_the_scope_is_a_fresh_set_of_caches(self):
        message = _all_messages()[2]
        codec.encoded_size(message)
        codec.decode_envelope(_frame_body(message))
        with codec.wire_codec_scope("binary"):
            assert not codec._size_cache and not codec._decode_cache
            codec.encoded_size(message)
        assert not codec._size_cache


class TestResponseColumns:
    """A replica's response batch on the wire: packed id columns, a success
    column and a result-digest column."""

    def test_response_entries_are_packed_columns(self):
        """One byte per txn id and per client id while neighbours stay within
        an i8 of each other; a wider difference repacks that column alone; a
        failed transaction adds a bitmap, a digest of its own one `digest`."""
        def batch_size(ids, client_ids=None, **entry):
            client_ids = ids if client_ids is None else client_ids
            entries = tuple(ResponseEntry(txn_id=i, client_id=c, **entry) for i, c in zip(ids, client_ids))
            batch = ClientResponseBatch(replica_id=0, view=1, slot=1, block_hash="c" * 64, speculative=False,
                                        entries=entries, results_root="d" * 64)
            data = codec.encode_message(batch)
            assert codec.decode_message(data) == batch
            return len(data)

        sizes = [batch_size(range(count)) for count in range(1, 7)]
        assert [b - a for a, b in zip(sizes, sizes[1:])] == [2] * 5
        assert sizes[0] - batch_size([]) == 1 + 2 * (1 + 8) + 2  # size, two columns of one id, two constants
        ids = list(range(6))
        assert batch_size([0, 1, 2, 3, 4, 200], ids) - sizes[-1] == 5  # txn ids as i16 differences
        assert batch_size(ids, [0, 40_000, 0, 0, 0, 0]) - sizes[-1] == 5 * 3  # client ids as i32 differences
        assert batch_size([0, 1, 2, 3, 4, 2**40], ids) - sizes[-1] == 5 * 7  # txn ids as i64 values
        assert batch_size(ids, success=False) - sizes[-1] == 1
        assert batch_size(ids, result_digest="a" * 64) - sizes[-1] == 33
        assert batch_size(ids, result_digest="not-a-digest") - sizes[-1] == 2 + len("not-a-digest")

    def test_response_entries_cache_keeps_distinct_batches_distinct(self):
        """Equal packed columns share one decoded tuple; a batch differing in
        one flag, or in one digest (raw or riding as text), does not."""
        codec.reset_size_cache()
        entries_a = tuple(
            ResponseEntry(txn_id=i, client_id=-1 - i, result_digest="a" * 64, success=True)
            for i in range(5)
        )
        entries_b = entries_a[:-1] + (
            ResponseEntry(txn_id=4, client_id=-5, result_digest="b" * 64, success=False),
        )
        entries_c = entries_a[:-1] + (
            ResponseEntry(txn_id=4, client_id=-5, result_digest="not-a-digest", success=True),
        )
        entries_d = entries_a[:-1] + (
            ResponseEntry(txn_id=4, client_id=-5, result_digest="A" * 64, success=True),
        )
        batches = [
            ClientResponseBatch(replica_id=r, view=1, slot=1, block_hash="c" * 64,
                                speculative=False, entries=entries)
            for entries in (entries_a, entries_b, entries_c, entries_d)
            for r in range(3)
        ]
        decoded = [codec.decode_message(codec.encode_message(batch)) for batch in batches]
        assert decoded == batches
        assert decoded[0].entries is decoded[1].entries  # one decode per block


class TestScalarCodes:
    def test_unknown_value_code_rejected(self):
        """Schemaless fields keep one-byte value codes; an unassigned one is refused."""
        txn = Transaction.create(client_id=1, operation="op", payload={"k": 7})
        data = bytearray(codec.encode_message(ClientRequest(txn=txn)))
        assert data[-2:] == bytes((layout.B_INT, 14))  # zigzag(7)
        data[-2] = 0x7F
        with pytest.raises(codec.CodecError, match="value code"):
            codec.decode_message(bytes(data))

    def test_overlong_varint_rejected(self):
        txn = Transaction.create(client_id=1, operation="op", payload={"k": 7})
        data = codec.encode_message(ClientRequest(txn=txn))
        with pytest.raises(codec.CodecError, match="varint"):
            codec.decode_message(data[:-1] + b"\x80" * 11)

    def test_count_beyond_the_frame_rejected(self):
        """A corrupt item count must not size a loop."""
        data = bytearray(codec.encode_message(ClientRequestBatch(txns=())))
        assert data[1:] == b"\x00"  # the empty batch is its count
        data[1:] = b"\xff\xff\xff\x7f"
        with pytest.raises(codec.CodecError, match="count"):
            codec.decode_message(bytes(data))


def _workload_txns(name, count, seed=1):
    """The first *count* transactions of workload *name*'s seeded stream (a
    fresh workload numbers its transactions from 0)."""
    workload, rng = make_workload(name), SeededRng(seed).fork("clients")
    return tuple(
        workload.next_transaction(client_id=-1_000_000 - i % 7, rng=rng, now=0.5) for i in range(count)
    )


def _canonical_propose(name, count=100):
    _, block, cert, _ = _fixture_objects()
    body = Block.build(view=5, slot=2, parent_hash=block.parent_hash, proposer=1, transactions=_workload_txns(name, count))
    return Propose(view=5, slot=2, block=body, justify=cert, commit_cert=cert)


#: One payload per declared operation that is exactly its schema.
_CONFORMING = {
    "ycsb_write": {"key": "user17", "value": "v" * 64},
    "ycsb_read": {"key": "k" * 300},
    "ycsb_rmw": {"key": "", "value": "é"},
    "noop": {},
    "tpcc_new_order": {
        "w_id": 2, "d_id": 10, "c_id": 3000,
        "lines": [{"i_id": 100_000, "quantity": 10, "supply_w_id": 1}, {"i_id": 1, "quantity": 1, "supply_w_id": 2}],
    },
    "tpcc_payment": {"w_id": 1, "d_id": 1, "c_id": 30, "amount": 4999.99},
    "tpcc_order_status": {"w_id": 1, "d_id": 2, "c_id": 3},
    "tpcc_delivery": {"w_id": 2**40},
    "tpcc_stock_level": {"w_id": 1, "threshold": 15},
}


class TestOperationSchemas:
    """Declared operations ride as an opcode + their compiled record; anything
    else takes opcode 0 and the self-describing form."""

    def test_opcodes_are_the_declared_constants(self):
        # What `repro replica` children must agree on without talking: a
        # renumbering is a wire-format change (bump the envelope versions).
        assert {name: opcode for name, (opcode, _) in OPERATION_SCHEMAS.items()} == {
            "ycsb_write": 1, "ycsb_read": 2, "ycsb_rmw": 3, "noop": 4,
            "tpcc_new_order": 16, "tpcc_payment": 17, "tpcc_order_status": 18,
            "tpcc_delivery": 19, "tpcc_stock_level": 20,
        }
        assert set(_CONFORMING) == set(OPERATION_SCHEMAS)

    @pytest.mark.parametrize("operation", sorted(_CONFORMING))
    def test_conforming_payload_rides_its_opcode(self, operation):
        txn = Transaction.create(client_id=-5, operation=operation, payload=_CONFORMING[operation], txn_id=2**40)
        opcode, decoded = binary_round_trip(txn)
        assert opcode == OPERATION_SCHEMAS[operation][0]
        assert decoded.digest() == txn.digest()
        assert repr(decoded.payload) == repr(txn.payload)  # classes and key order, not only ==

    def test_workload_streams_never_take_the_escape(self):
        for name in ("ycsb", "tpcc"):
            assert 0 not in {binary_round_trip(txn)[0] for txn in _workload_txns(name, 300)}

    @pytest.mark.parametrize(
        "operation, payload",
        [
            ("unregistered", {"key": "a"}),
            ("ycsb_write", {"key": "a"}),  # missing key
            ("ycsb_write", {"key": "a", "value": "b", "ttl": 3}),  # extra key
            ("ycsb_write", {"key": 40, "value": "b"}),  # not a str
            ("ycsb_read", {1: "a"}),  # not a str key
            ("noop", {"x": None}),
            ("tpcc_delivery", {"w_id": True}),  # True is not 1
            ("tpcc_delivery", {"w_id": -1}),
            ("tpcc_payment", {"w_id": 1, "d_id": 1, "c_id": 1, "amount": 10}),  # 10 is not 10.0
            ("tpcc_payment", {"d_id": 1, "w_id": 1, "c_id": 1, "amount": 1.5}),  # declared order
            ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"quantity": 1, "i_id": 1, "supply_w_id": 1}]}),
            ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"i_id": 1, "quantity": False, "supply_w_id": 1}]}),
            ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"i_id": 2**64, "quantity": 1, "supply_w_id": 1}]}),
            ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"i_id": 1, "quantity": 1}]}),
            ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [[1, 1, 1]]}),
        ],
    )
    def test_any_other_payload_takes_the_escape_and_survives(self, operation, payload):
        txn = Transaction.create(client_id=1, operation=operation, payload=payload, txn_id=9)
        opcode, decoded = binary_round_trip(txn)
        assert opcode == 0
        assert decoded.digest() == txn.digest()

    def test_a_tuple_of_lines_is_not_a_list_of_lines(self):
        """The self-describing form has always decoded tuples as lists; the
        record array must not make that a silent `list` either way."""
        lines = ({"i_id": 1, "quantity": 1, "supply_w_id": 1},)
        txn = Transaction.create(1, "tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": lines}, txn_id=9)
        wire = codec.encode_message(ClientRequest(txn=txn))
        assert wire[codec._TXN_NARROW.size] == 0

    def test_order_lines_repack_as_i64_before_escaping(self):
        lines = [{"i_id": -7, "quantity": 2**40, "supply_w_id": 300}]
        txn = Transaction.create(1, "tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": lines}, txn_id=1)
        assert binary_round_trip(txn)[0] == 16

    def test_unknown_opcode_rejected(self):
        txn = Transaction.create(client_id=1, operation="noop", txn_id=3)
        data = bytearray(codec.encode_message(ClientRequest(txn=txn)))
        assert data[-1] == 4  # a noop is its header
        data[-1] = 0xEE
        with pytest.raises(codec.CodecError, match="operation code 238"):
            codec.decode_message(bytes(data))

    def test_every_single_byte_corruption_decodes_or_raises_codec_error(self):
        """Never IndexError / struct.error / UnicodeDecodeError, whichever byte
        of a proposal (headers, opcodes, counts, width bytes, records) flips."""
        wire = codec.encode_message(_canonical_propose("tpcc", count=12))
        for position in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(wire)
                damaged[position] ^= flip
                try:
                    codec.decode_message(bytes(damaged))
                except codec.CodecError:
                    pass


def _canonical_response_batch():
    """What a replica answers its clients after executing a 100-transaction
    block of a 270-client closed-loop pool (ids a few apart, clients in any
    order), built by the replica itself."""
    harness = ReplicaHarness(HotStuff1Replica)
    sent = []
    harness.replica.send = lambda receiver, payload: sent.append(payload)
    rng = SeededRng(1).fork("clients")
    txns = tuple(
        Transaction(5000 + 3 * i + rng.randint(0, 2), -1_000_000 - rng.randint(0, 269), t.operation, t.payload, 0.5)
        for i, t in enumerate(_workload_txns("ycsb", 100))
    )
    block = harness.replica.block_store.add(
        Block.build(view=1, slot=1, parent_hash=make_genesis_block().block_hash, proposer=0, transactions=txns)
    )
    harness.replica.speculate_block(block)
    (batch,) = sent
    return batch


class TestWireSizeBudget:
    """What a canonical proposal and the answer to it may weigh.  `bytes_per_op`
    is dominated by transaction bodies (one copy per replica plus the request)
    and by the n response batches per block, so a layout edit that grows them
    fails here, not in a ten-pair benchmark.  With every payload spelled out
    (binary versions 6-7) these two proposals were 12119 (YCSB) and 17239
    (TPC-C) bytes; they are 9619 and 4058.  With a 41-byte record per entry
    (versions 8-9) the response batch was 4150 bytes; it is 401."""

    def test_canonical_100_entry_response_batch_fits_its_budget(self):
        batch = _canonical_response_batch()
        assert len(batch.entries) == 100 and batch.results_root != NULL_DIGEST
        assert {entry.result_digest for entry in batch.entries} == {NULL_DIGEST}
        wire = codec.encode_message(batch)
        assert codec.decode_message(wire) == batch
        assert len(wire) <= 450, f"{len(wire)} B for 100 entries"

    @pytest.mark.parametrize("workload, ceiling", [("ycsb", 9700), ("tpcc", 6000)])
    def test_canonical_100_transaction_propose_fits_its_budget(self, workload, ceiling):
        propose = _canonical_propose(workload)
        wire = codec.encode_message(propose)
        assert codec.decode_message(wire) == propose
        assert len(wire) <= ceiling, f"{workload}: {len(wire)} B for 100 transactions"


class TestEncodedSize:
    def test_batches_are_charged_for_their_own_mix(self):
        """A simulated run is charged what the live transport would write:
        batches of different lengths and profile mixes never share a memoised
        size (fixed-width records make the memo exact for TPC-C)."""
        txns = _workload_txns("tpcc", 400)
        _, block, cert, _ = _fixture_objects()
        codec.reset_size_cache()
        for start, length in [(0, 100), (100, 100), (200, 37), (237, 1), (238, 100), (338, 0), (338, 62)]:
            batch = txns[start : start + length]
            body = Block.build(view=5, slot=2, parent_hash=block.parent_hash, proposer=1, transactions=batch)
            for message in (
                ClientRequestBatch(txns=batch),
                FetchResponse(block=body),
                Propose(view=5, slot=2, block=body, justify=cert),
            ):
                expected = len(codec.encode_message(message)) + codec.BINARY_ENVELOPE_OVERHEAD
                assert codec.encoded_size(message) == expected, (type(message).__name__, start, length)

    def test_response_batches_are_charged_for_their_own_columns(self):
        """Column widths and modes change a response batch's size at equal
        length, so the memo may not be keyed on the length alone."""
        def batch(ids, client_ids=None, failed=(), digests=None):
            digests = digests or [NULL_DIGEST] * len(ids)
            entries = tuple(
                ResponseEntry(txn_id, client_id, digest, index not in failed)
                for index, (txn_id, client_id, digest) in enumerate(zip(ids, client_ids or ids, digests))
            )
            return ClientResponseBatch(1, 5, 2, "c" * 64, True, entries, "d" * 64)

        ids = list(range(40))
        shapes = [
            batch(ids), batch(ids[:7]), batch(ids[:1]), batch([]),
            batch(ids[:-1] + [200]), batch(ids[:-1] + [40_000]), batch(ids[:-1] + [2**40]),
            batch(ids, client_ids=ids[:-1] + [200]), batch(ids, failed=(3,)),
            batch(ids, digests=["a" * 64] * 40), batch(ids, digests=["not-a-digest"] * 40),
            batch(ids, digests=["a" * 64] * 39 + ["b" * 64]),
        ]
        codec.reset_size_cache()
        sizes = {codec.encoded_size(message) for message in shapes + shapes}
        for message in shapes:
            expected = len(codec.encode_message(message)) + codec.BINARY_ENVELOPE_OVERHEAD
            assert codec.encoded_size(message) == expected, message.entries[-1:]
        assert len(sizes) == len(shapes)

    def test_known_messages_are_sized_from_their_encoding(self):
        codec.reset_size_cache()  # other tests' runs may have seeded shapes
        for message in _all_messages():
            expected = len(codec.encode_message(message)) + codec.BINARY_ENVELOPE_OVERHEAD
            assert codec.encoded_size(message) == expected

    def test_unknown_payloads_charge_the_default(self):
        assert codec.encoded_size("plain string") == codec.DEFAULT_SIZE_BYTES
        assert codec.encoded_size(None, default=99) == 99

    def test_size_scales_with_batch(self):
        shares, block, cert, txns = _fixture_objects()
        big = Block.build(view=5, slot=1, parent_hash=block.parent_hash, proposer=0, transactions=txns * 20)
        small = Propose(view=5, slot=1, block=block, justify=cert)
        large = Propose(view=5, slot=1, block=big, justify=cert)
        assert codec.encoded_size(large) > codec.encoded_size(small) + 1000


class TestNetworkBreakdownReport:
    def test_renders_per_type_rows_and_totals(self):
        stats = {
            "messages_sent": 12,
            "messages_delivered": 10,
            "messages_dropped": 2,
            "bytes_sent": 3456,
            "sent_by_type": {"Propose": 4, "NewView": 8},
            "delivered_by_type": {"Propose": 4, "NewView": 6},
        }
        table = format_network_breakdown(stats)
        lines = table.splitlines()
        assert any(line.startswith("NewView") for line in lines)  # sorted by sent desc
        assert any(line.startswith("Propose") for line in lines)
        assert any("(total)" in line and "3456" in line for line in lines)

    def test_plain_stats_render_totals_only(self):
        table = format_network_breakdown({"messages_sent": 1, "bytes_sent": 256})
        assert "(total)" in table

