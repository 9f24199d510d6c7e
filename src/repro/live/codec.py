"""Wire format for the live deployment runtime.

Every protocol message in :mod:`repro.consensus.messages` (and the support
objects nested inside them — blocks, transactions, certificates, signature
shares) serializes through one of two interchangeable codecs, carried on the
wire as a length-prefixed frame:

* ``json`` (wire versions 1–5) — a tagged JSON document::

      +----------------+----------------------------------------+
      | 4-byte big-    | UTF-8 JSON body                        |
      | endian length  | {"v": 4, "s": sender, "r": receiver,   |
      |                |  "a": sent_at, "m": {"__t": tag, ...}} |
      +----------------+----------------------------------------+

* ``binary`` (binary wire versions 10–11) — one schema-compiled layout per
  type: a fixed envelope, a tag byte naming the message type, then the type's
  fields with no per-value type code::

      +----------------+----------------------------------------------+
      | 4-byte big-    | 0xB1 | version | sender i32 | receiver i32 | |
      | endian length  | sent_at f64 | [send seq u64, version 11]   | |
      |                | 0x80 + type index | the type's layout        |
      +----------------+----------------------------------------------+

  Every registered type declares its fields' *kinds* (``_register`` below);
  :mod:`repro.live.layout` defines the kinds and compiles each declaration,
  at import, into one encoder and one decoder: the type's fixed-width fields
  first, as one ``struct`` header (a width byte, then every int as i32 — or
  i64 when one needs it — and floats, bools, enum indexes), then its other
  fields in declared order.  A nested type contributes its layout without a
  tag.  Bytes per field (``w`` = 4 or 8 by the header's width byte)::

      type                 header                                  then
      -------------------  --------------------------------------  ---------------------------
      Block                1 + view w, slot w, proposer w,         block_hash digest 33,
                           is_genesis 1                            parent_hash 33, transactions
                                                                   seq(Transaction), carry_hash 33
      SignatureShare       1 + signer w                            payload digest 33, context
                                                                   str, value digest 33
      ThresholdSignature   1 + threshold w                         payload 33, context str,
                                                                   signers seq(int), fingerprint 33
      Certificate          1 + kind 1, view w, slot w,             block_hash 33, signature
                           formed_in_view w                        opt(ThresholdSignature)
      ClientRequest        —                                       txn Transaction
      ClientRequestBatch   —                                       txns seq(Transaction)
      ClientResponseBatch  1 + replica_id w, view w, slot w,       block_hash 33, entries
                           speculative 1                           seq(ResponseEntry) (columns,
                                                                   below), results_root 33
      Propose              1 + view w, slot w                      block, justify Certificate,
                                                                   commit_cert opt(Certificate),
                                                                   carry_hash 33
      ProposeVote          1 + view w, voter w                     block_hash 33, share
      Prepare              1 + view w                              cert
      NewView              1 + view w, voter w                     high_cert, share opt, voted_
                                                                   block_hash 33, highest_voted_
                                                                   hash 33, commit_share opt
      NewSlot              1 + view w, slot w, voter w             high_cert, share, voted_
                                                                   block_hash 33
      Reject               1 + view w, slot w, voter w             high_cert
      Wish                 1 + view w, voter w, current_view w     share, high_cert opt
      TimeoutCertificate-  1 + view w, sender_view w               cert, high_cert opt
      Msg
      ViewSync             1 + view w, voter w                     high_cert opt
      FetchRequest         1 + requester w                         block_hash 33
      FetchResponse        —                                       block
      Snapshot             1 + height w, txn_horizon w             block, cert, state_digest 33,
                                                                   state value, committed_hashes
                                                                   seq(digest)
      SnapshotRequest      1 + requester w, have_height w          —
      SnapshotResponse     1 + responder w                         snapshot opt(Snapshot)

  The two shapes that carry the traffic are laid out by hand: a transaction is
  a record behind a width byte of its own (``00``: ids are i32, ``w`` = 4;
  ``01``: an id did not fit, ids are i64, ``w`` = 8), the entries of a response
  batch are columns, and a column is a constant or a packed array::

      Transaction     width 1 | txn_id w | client_id w | submitted_at f64 |
                      opcode u8 (18 or 26 bytes), then the payload as the
                      record its operation declared
                      (``repro.ledger.transaction.declare_operation``):
                      ``ycsb_write`` is key ``str``, value ``str``;
                      ``tpcc_new_order`` is w_id, d_id, c_id ``uint`` and the
                      order lines as one packed array of (i_id u16, quantity u8,
                      supply_w_id u8).  Opcode 0 is the escape (an undeclared
                      operation, or a payload that is not exactly its record):
                      operation length u16 | payload items u16, the operation's
                      UTF-8, then per payload item: key length u8 + UTF-8
                      (0xFF: the key follows as a ``value``), then the item as
                      a ``value``
      ResponseEntry   a sequence is a varint count and (count > 0) the varint
                      byte size of its four columns, then the columns:
                      txn_id, client_id — width 1 | first id i64 | every next
                      id as its difference from the one before, all i8 (width
                      ``00``), i16 (``01``) or i32 (``02``); width ``03`` is
                      the ids themselves, i64 each.  success — ``00`` (all
                      succeeded) or ``01`` + a bitmap of ceil(count / 8) bytes.
                      result_digest — ``00`` (all null: the result rides in the
                      batch's ``results_root``), ``01`` + the one ``digest``
                      all have, or ``02`` + a ``digest`` per entry.  A
                      replica's 100-entry batch is 401 bytes, tag to root (3.2
                      per entry; 41 as fixed records before binary version 10)

Receivers sniff the first body byte (``{`` versus ``0xB1``), so a cluster
mid-upgrade decodes both formats regardless of which codec it emits; the
active *encoding* codec is selected per deployment with :func:`set_wire_codec`
(the ``ExperimentSpec.codec`` knob).  JSON keeps traffic debuggable
(``tcpdump`` shows readable frames); binary cuts bytes/op and encode/decode
CPU, which dominate the live runtime's profile.

The codec is the single source of truth for message sizes, so the simulated
network charges :func:`encoded_size` bytes for exactly the payload the live
transport would put on a socket under the active codec.

Both codecs share one registry: each type is declared once (JSON tag, fields,
kinds), and a binary type index is the registration order.  Unknown payload
types raise :class:`UnknownWireTypeError`; callers that only need a size
estimate (the simulated network, whose tests send plain strings) fall back to
a default.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import operator
import struct
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.checkpoint.snapshot import Snapshot
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
from repro.crypto.threshold import SignatureShare, ThresholdSignature
from repro.errors import ConfigurationError
from repro.ledger import Block  # the package: both state machines declare their operations
from repro.ledger.transaction import OPERATION_SCHEMAS, Transaction
from repro.live.layout import (
    SCALAR_CODECS,
    Codec,
    CodecError,
    UnknownWireTypeError,
    _append_uvarint,
    _dec_count,
    _dec_digest,
    _dec_value,
    _enc_digest,
    _enc_value,
    _read_uvarint,
    compile_layout,
    compile_record,
    is_enum,
    opt,
    seq,
)
from repro.types import NULL_DIGEST

#: JSON envelope version, bumped on incompatible format changes.  Version 2
#: added the view-synchronisation fields (``ViewSync``; ``current_view`` /
#: ``sender_view`` / ``high_cert`` on the pacemaker messages); version 3
#: added the checkpointing state-transfer messages (``SnapshotRequest`` /
#: ``SnapshotResponse``); version 4 added ``ClientRequestBatch``; version 5
#: added the optional per-sender send sequence used as distributed-tracing
#: context (JSON key ``"q"``).  Older JSON documents still decode — new fields
#: fall back to their dataclass defaults, and the new message types only flow
#: to peers that asked for them.
WIRE_VERSION = 5

#: JSON envelope versions :func:`decode_envelope` accepts.
SUPPORTED_WIRE_VERSIONS = (1, 2, 3, 4, 5)

#: Version stamped on JSON frames that carry no trace context.  Keeping
#: untraced frames at v4 makes them byte-identical to what pre-v5 peers emit
#: *and* accept, so version skew only bites clusters that actually turn
#: tracing on — and an untraced run pays zero wire bytes for the v5 feature.
UNTRACED_WIRE_VERSION = 4

#: Binary envelope versions: 10 without trace context, 11 with the send
#: sequence.  Versions 4 and 5 were a self-describing binary encoding, 6 / 7
#: carried every transaction payload self-described and 8 / 9 a result digest
#: per response entry; no deployed peer speaks them and their bodies are
#: rejected.
BINARY_WIRE_VERSION = 10
BINARY_TRACED_WIRE_VERSION = 11

#: Codec names :func:`set_wire_codec` accepts.
WIRE_CODECS = ("json", "binary")

#: First body byte of every binary envelope.  JSON bodies start with ``{``
#: (0x7B) and binary *message* bodies with ``BINARY_TAG_BASE`` + the type's
#: registration index, so the three framings are mutually sniffable from
#: their first byte.
BINARY_MAGIC = 0xB1
BINARY_TAG_BASE = 0x80

#: Hard upper bound on one frame; guards readers against corrupt length words
#: and, since v4, is enforced at encode time (:class:`FrameTooLargeError`).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Frame header: one unsigned 32-bit big-endian body length.
FRAME_HEADER = struct.Struct(">I")

#: Bytes the envelope fields (sender, receiver, sent_at, frame header) add on
#: top of the message body; used by :func:`encoded_size` so simulated byte
#: counters line up with what the live transport actually writes.
ENVELOPE_OVERHEAD = 48

#: Binary envelopes are leaner: magic, version, two 4-byte node ids and an
#: 8-byte float (traced frames add the per-sender send sequence).
_ENVELOPE = struct.Struct(">BBiid")
_TRACED_ENVELOPE = struct.Struct(">BBiidQ")
BINARY_ENVELOPE_OVERHEAD = FRAME_HEADER.size + _ENVELOPE.size

#: Size charged for payloads the codec does not know (e.g. test stubs).
DEFAULT_SIZE_BYTES = 256


class FrameTooLargeError(CodecError, ConfigurationError):
    """An encoded frame exceeds :data:`MAX_FRAME_BYTES`.

    Inherits :class:`~repro.errors.ConfigurationError` because the fix is a
    configuration change (smaller batches, lower checkpoint state size), and
    :class:`CodecError` so the transport's existing drop-and-record error
    path surfaces it after the run.
    """


# ------------------------------------------------------------------- registry
_TYPE_TAGS: Dict[Type, str] = {}
_FIELDS: Dict[str, Tuple[str, ...]] = {}
_REBUILDERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
#: Binary codecs by kind: the scalar kinds, every registered type (nested
#: without a tag) and the sequences with a record-array codec of their own.
_CODECS: Dict[Any, Codec] = dict(SCALAR_CODECS)
#: Top-level binary messages: class -> (tag byte, encoder), and decoders
#: indexed by ``tag byte - BINARY_TAG_BASE`` (registration order).
_ENCODERS: Dict[Type, Tuple[int, Callable[[Any, bytearray], None]]] = {}
_DECODERS: List[Callable[[bytes, int], Tuple[Any, int]]] = []


def _register(cls: Type, tag: str, /, layout: Optional[Codec] = None, **kinds: Any) -> None:
    """Declare *cls*'s wire form: its JSON *tag* and every field's kind
    (:mod:`repro.live.layout` lists the kinds).

    Both codecs derive from the one declaration.  JSON documents carry the
    fields by name and are rebuilt with ``cls(**fields)`` after the coercions
    the kinds imply (sequences to tuples, enum values to members).  The
    binary layout is compiled from the kinds unless a hand-written record
    *layout* ``(encode, decode)`` is given.
    """
    if tuple(kinds) != tuple(field.name for field in dataclasses.fields(cls)):
        raise TypeError(f"{cls.__name__}: declare the dataclass fields, in order")  # rebuilt positionally
    coercions = [(name, kind[2]) for name, kind in kinds.items() if isinstance(kind, tuple) and kind[0] == "seq"]
    coercions += [(name, kind) for name, kind in kinds.items() if is_enum(kind)]

    def _dec_rebuild(data: Dict[str, Any]) -> Any:
        for name, coerce in coercions:
            if name in data:
                data[name] = coerce(data[name])
        return cls(**data)

    _TYPE_TAGS[cls] = tag
    _FIELDS[tag] = tuple(kinds)
    _REBUILDERS[tag] = _dec_rebuild
    _CODECS[cls] = encode, decode = layout or compile_layout(cls, tag, kinds, _CODECS)
    _ENCODERS[cls] = (BINARY_TAG_BASE + len(_DECODERS), encode)
    _DECODERS.append(decode)


def _enc(value: Any) -> Any:
    """Encode *value* into a JSON-compatible structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_enc(item) for item in value]
    if isinstance(value, dict):
        # Item-pair form preserves non-string keys across the JSON round-trip.
        return {"__t": "map", "i": [[_enc(key), _enc(item)] for key, item in value.items()]}
    tag = _TYPE_TAGS.get(type(value))
    if tag is None:
        raise UnknownWireTypeError(f"no wire format registered for {type(value).__name__}")
    document = {"__t": tag}
    for name in _FIELDS[tag]:
        document[name] = _enc(getattr(value, name))
    return document


def _dec(value: Any) -> Any:
    """Decode the structure produced by :func:`_enc`."""
    if isinstance(value, list):
        return [_dec(item) for item in value]
    if isinstance(value, dict):
        tag = value.get("__t")
        if tag == "map":
            return {_dec(key): _dec(item) for key, item in value["i"]}
        rebuild = _REBUILDERS.get(tag)
        if rebuild is None:
            raise CodecError(f"unknown wire tag {tag!r}")
        # Tolerate version skew: fields absent from an older peer's document
        # fall back to the dataclass defaults of the registered type.
        return rebuild({name: _dec(value[name]) for name in _FIELDS[tag] if name in value})
    return value


# ----------------------------------------------------------- binary: records
# The two shapes that carry the traffic (100 per proposal, 100 per response
# batch) are laid out by hand.  Like a compiled header, a transaction opens
# with a width byte: 0 packs its ids as i32, 1 (when one does not fit) as i64.

#: Transaction header: width, txn_id, client_id, submitted_at, opcode.  A
#: non-zero opcode names a declared operation and its compiled payload record
#: follows; opcode 0 is the escape: operation byte length, payload item count,
#: the operation and the payload items in the self-describing form.
_TXN_NARROW = struct.Struct(">BiidB")
_TXN_WIDE = struct.Struct(">BqqdB")
_TXN_TAGGED = struct.Struct(">HH")
#: Payload keys are strings of < 255 UTF-8 bytes in every workload: they ride
#: as a length byte + bytes; this length marks any other key, sent as a value.
_TAGGED_KEY = 0xFF
#: Compiled payload records: operation -> (opcode, encode), opcode -> (operation, decode).
_OP_ENCODERS: Dict[str, Tuple[int, Callable[[Any, bytearray], None]]] = {}
_OP_DECODERS: Dict[int, Tuple[str, Callable[[bytes, int], Tuple[Any, int]]]] = {}
for _name, (_opcode, _fields) in OPERATION_SCHEMAS.items():
    _encode, _decode = compile_record(_name, _fields, SCALAR_CODECS)
    _OP_ENCODERS[_name] = (_opcode, _encode)
    _OP_DECODERS[_opcode] = (_name, _decode)
#: What a record encoder raises on a payload that is not exactly its schema:
#: its own checks, an int beyond i64 in a record array, ``.encode`` of a non-str.
_NOT_THE_SCHEMA = (CodecError, struct.error, AttributeError)


def _enc_txn(txn: Transaction, buf: bytearray) -> None:
    opcode, encode = _OP_ENCODERS.get(txn.operation, (0, None))
    payload = txn.payload
    try:
        buf += _TXN_NARROW.pack(0, txn.txn_id, txn.client_id, txn.submitted_at, opcode)
    except struct.error:
        buf += _TXN_WIDE.pack(1, txn.txn_id, txn.client_id, txn.submitted_at, opcode)
    if opcode:
        mark = len(buf)
        try:
            return encode(payload, buf)
        except _NOT_THE_SCHEMA:  # the escape: same header, opcode 0
            del buf[mark:]
            buf[mark - 1] = 0
    operation = txn.operation.encode("utf-8")
    buf += _TXN_TAGGED.pack(len(operation), len(payload))
    buf += operation
    for key, item in payload.items():
        raw = key.encode("utf-8") if key.__class__ is str else None
        if raw is not None and len(raw) < _TAGGED_KEY:
            buf.append(len(raw))
            buf += raw
        else:
            buf.append(_TAGGED_KEY)
            _enc_value(key, buf)
        _enc_value(item, buf)


def _dec_txn(data: bytes, pos: int) -> Tuple[Transaction, int]:
    head = _TXN_WIDE if data[pos] else _TXN_NARROW
    _, txn_id, client_id, submitted_at, opcode = head.unpack_from(data, pos)
    pos += head.size
    if opcode:
        entry = _OP_DECODERS.get(opcode)
        if entry is None:
            raise CodecError(f"unknown operation code {opcode}")
        operation, decode = entry
        payload, pos = decode(data, pos)
        return Transaction(txn_id, client_id, operation, payload, submitted_at), pos
    size, count = _TXN_TAGGED.unpack_from(data, pos)
    pos += _TXN_TAGGED.size
    end = pos + size
    operation = str(data[pos:end], "utf-8")
    pos = end
    if count > len(data) - pos:
        raise CodecError(f"payload count {count} exceeds the {len(data) - pos} bytes that follow")
    payload = {}
    for _ in range(count):
        size = data[pos]
        pos += 1
        if size != _TAGGED_KEY:
            end = pos + size
            key = str(data[pos:end], "utf-8")
            pos = end
        else:
            key, pos = _dec_value(data, pos)
        payload[key], pos = _dec_value(data, pos)
    return Transaction(txn_id, client_id, operation, payload, submitted_at), pos


# A response batch's entries ride as columns, one per field, and a column is
# a constant or a packed array: ``count`` | ``size`` of what follows | txn_id
# | client_id | success | result_digest.
#: Id columns: width byte, the first id as i64, then every next id as its
#: difference from the one before, all of the narrowest of these widths;
#: width 3 (a difference beyond i32) is the ids themselves as i64.
_ID_DELTAS = (("b", 1), ("h", 2), ("i", 4))
_IDS_WIDE = len(_ID_DELTAS)
#: ``success``: every entry succeeded, or a bitmap follows (first entry in the
#: highest bit of ``count`` bits, big-endian).
_SUCCESS_ALL, _SUCCESS_BITMAP = 0, 1
#: ``result_digest``: every entry has :data:`NULL_DIGEST` (what replicas
#: send), or the one ``digest`` they all have follows, or a ``digest`` each.
_DIGEST_NULL, _DIGEST_SHARED, _DIGEST_EACH = 0, 1, 2


def _enc_id_column(ids: List[int], buf: bytearray) -> None:
    deltas = list(map(operator.sub, ids[1:], ids))
    for width, (code, _) in enumerate(_ID_DELTAS):
        try:
            buf += struct.pack(f">Bq{len(deltas)}{code}", width, ids[0], *deltas)
            return
        except struct.error:
            pass
    buf += struct.pack(f">B{len(ids)}q", _IDS_WIDE, *ids)


def _dec_id_column(data: bytes, pos: int, count: int) -> Tuple[Iterable[int], int]:
    width = data[pos]
    if width == _IDS_WIDE:
        return struct.unpack_from(f">{count}q", data, pos + 1), pos + 1 + 8 * count
    code, size = _ID_DELTAS[width]  # any other width byte: IndexError
    ids = itertools.accumulate(struct.unpack_from(f">q{count - 1}{code}", data, pos + 1))
    return ids, pos + 9 + (count - 1) * size


def _enc_entries(entries: Tuple[ResponseEntry, ...], buf: bytearray) -> None:
    _append_uvarint(buf, len(entries))
    if not entries:
        return
    txn_ids, client_ids, digests, successes = [], [], [], []
    for entry in entries:
        txn_ids.append(entry.txn_id)
        client_ids.append(entry.client_id)
        digests.append(entry.result_digest)
        successes.append(entry.success)
    columns = bytearray()
    _enc_id_column(txn_ids, columns)
    _enc_id_column(client_ids, columns)
    if all(successes):
        columns.append(_SUCCESS_ALL)
    else:
        columns.append(_SUCCESS_BITMAP)
        bits = 0
        for success in successes:
            bits = bits << 1 | bool(success)
        columns += bits.to_bytes((len(entries) + 7) // 8, "big")
    if len(set(digests)) > 1:
        columns.append(_DIGEST_EACH)
        for digest in digests:
            _enc_digest(digest, columns)
    elif digests[0] == NULL_DIGEST:
        columns.append(_DIGEST_NULL)
    else:
        columns.append(_DIGEST_SHARED)
        _enc_digest(digests[0], columns)
    _append_uvarint(buf, len(columns))
    buf += columns


def _dec_entries(data: bytes, pos: int) -> Tuple[Tuple[ResponseEntry, ...], int]:
    start = pos
    count, pos = _dec_count(data, pos)
    if not count:
        return (), pos
    size, pos = _read_uvarint(data, pos)
    end = pos + size
    if end > len(data):
        raise CodecError("truncated response entries")
    # A client collects one response batch per replica for the same block
    # (twice when a speculative response is later confirmed), and the columns
    # are byte-identical across them; equal bytes decode to equal entries.
    packed = data[start:end]
    cached = _entries_dec_cache.get(packed)
    if cached is not None:
        return cached, end
    txn_ids, pos = _dec_id_column(data, pos, count)
    client_ids, pos = _dec_id_column(data, pos, count)
    successes: Iterable[bool] = itertools.repeat(True)
    if data[pos] != _SUCCESS_ALL:
        bitmap = data[pos + 1 : pos + 1 + (count + 7) // 8]
        pos += len(bitmap)
        bits = format(int.from_bytes(bitmap, "big"), f"0{count}b")
        if len(bits) != count:
            raise CodecError("success bitmap is wider than its entries")
        successes = map("1".__eq__, bits)
    mode = data[pos + 1]
    pos += 2
    digests: Iterable[str] = itertools.repeat(NULL_DIGEST)
    if mode == _DIGEST_EACH:
        digests = each = []
        for _ in range(count):
            digest, pos = _dec_digest(data, pos)
            each.append(digest)
    elif mode != _DIGEST_NULL:  # shared; any other mode byte reads as it
        digest, pos = _dec_digest(data, pos)
        digests = itertools.repeat(digest)
    if pos != end:
        raise CodecError(f"response entry columns end at {pos}, not {end}")
    batch = tuple(map(ResponseEntry, txn_ids, client_ids, digests, successes))
    if len(_entries_dec_cache) >= _ENTRIES_CACHE_MAX:
        _entries_dec_cache.clear()
    _entries_dec_cache[packed] = batch
    return batch, end


_CODECS[seq(ResponseEntry)] = (_enc_entries, _dec_entries)
#: Decoded entries keyed by their packed columns (see :func:`_dec_entries`).
_entries_dec_cache: Dict[bytes, Tuple[ResponseEntry, ...]] = {}
_ENTRIES_CACHE_MAX = 64


# ------------------------------------------------------------- codec selection
_active_codec = "json"


def wire_codec() -> str:
    """Name of the codec currently used for *encoding* (decoding sniffs)."""
    return _active_codec


def set_wire_codec(name: str) -> None:
    """Select the encoding codec for this process (``json`` or ``binary``).

    Decoding is unaffected — both formats are always accepted — but encoded
    frames, :func:`encoded_size` charges, and therefore the simulator's byte
    counters all follow the active codec, so the memoized sizes are dropped.
    """
    global _active_codec
    if name not in WIRE_CODECS:
        raise ConfigurationError(f"unknown wire codec {name!r}; available: {sorted(WIRE_CODECS)}")
    _active_codec = name
    reset_size_cache()


@contextmanager
def wire_codec_scope(name: str) -> Iterator[None]:
    """Run a block under codec *name*, restoring the previous codec after.

    Experiment runs select their spec's codec through this scope so tests and
    sweeps sharing one process never leak a codec choice into the next run.
    """
    previous = _active_codec
    set_wire_codec(name)
    try:
        yield
    finally:
        set_wire_codec(previous)


# ------------------------------------------------------------ the wire types
# Support objects nested inside protocol messages.  The transaction record's
# kinds name its JSON fields; its binary form is the hand-written layout.
_register(
    Transaction, "txn", layout=(_enc_txn, _dec_txn),
    txn_id="int", client_id="int", operation="str", payload="value", submitted_at="float",
)
_register(
    Block, "block", block_hash="digest", view="int", slot="int", parent_hash="digest", proposer="int",
    transactions=seq(Transaction), carry_hash="digest", is_genesis="bool",
)
_register(SignatureShare, "share", signer="int", payload="digest", context="str", value="digest")
_register(
    ThresholdSignature, "tsig",
    payload="digest", context="str", signers=seq("int"), threshold="int", fingerprint="digest",
)
# Certificate.kind is a str-enum: JSON carries its value string, binary its
# member index, and both rebuild the member.
_register(
    Certificate, "cert", kind=CertKind, view="int", slot="int", block_hash="digest",
    signature=opt(ThresholdSignature), formed_in_view="int",
)
# Entries travel only as a sequence, whose binary form is the columns above.
_register(ResponseEntry, "entry", txn_id="int", client_id="int", result_digest="digest", success="bool")

# Protocol messages (one tag per dataclass in repro.consensus.messages).
_register(ClientRequest, "client_request", txn=Transaction)
_register(
    ClientResponseBatch, "client_response", replica_id="int", view="int", slot="int", block_hash="digest",
    speculative="bool", entries=seq(ResponseEntry), results_root="digest",
)
_register(
    Propose, "propose", view="int", slot="int", block=Block, justify=Certificate,
    commit_cert=opt(Certificate), carry_hash="digest",
)
_register(ProposeVote, "propose_vote", view="int", voter="int", block_hash="digest", share=SignatureShare)
_register(Prepare, "prepare", view="int", cert=Certificate)
_register(
    NewView, "new_view", view="int", voter="int", high_cert=Certificate, share=opt(SignatureShare),
    voted_block_hash="digest", highest_voted_hash="digest", commit_share=opt(SignatureShare),
)
_register(
    NewSlot, "new_slot", view="int", slot="int", voter="int", high_cert=Certificate, share=SignatureShare,
    voted_block_hash="digest",
)
_register(Reject, "reject", view="int", slot="int", voter="int", high_cert=Certificate)
_register(
    Wish, "wish", view="int", voter="int", share=SignatureShare, current_view="int", high_cert=opt(Certificate)
)
_register(
    TimeoutCertificateMsg, "timeout_cert",
    view="int", cert=Certificate, sender_view="int", high_cert=opt(Certificate),
)
_register(ViewSync, "view_sync", view="int", voter="int", high_cert=opt(Certificate))
_register(FetchRequest, "fetch_request", block_hash="digest", requester="int")
_register(FetchResponse, "fetch_response", block=Block)
# Checkpoint state transfer (wire version 3).  The snapshot's ``state``
# payload is already JSON-safe (string table names, tagged keys), so it rides
# as a schemaless value; blocks and certificates reuse their registrations.
# Snapshots persisted before ``txn_horizon`` existed decode it as the
# dataclass default, "unknown" (-1), which install paths treat as "nothing
# to prune".
_register(
    Snapshot, "snapshot", height="int", block=Block, cert=Certificate, state_digest="digest", state="value",
    committed_hashes=seq("digest", list), txn_horizon="int",
)
_register(SnapshotRequest, "snapshot_request", requester="int", have_height="int")
_register(SnapshotResponse, "snapshot_response", responder="int", snapshot=opt(Snapshot))
# Wire version 4 addition: the live client pool's coalesced request frame.
_register(ClientRequestBatch, "client_request_batch", txns=seq(Transaction))


#: Message classes the codec can carry (exported for tests).
MESSAGE_TYPES = (
    ClientRequest,
    ClientRequestBatch,
    ClientResponseBatch,
    Propose,
    ProposeVote,
    Prepare,
    NewView,
    NewSlot,
    Reject,
    Wish,
    TimeoutCertificateMsg,
    ViewSync,
    FetchRequest,
    FetchResponse,
    SnapshotRequest,
    SnapshotResponse,
)


# ------------------------------------------------------------------- messages
def message_to_wire(payload: Any) -> Dict[str, Any]:
    """Encode a protocol message into its tagged JSON document."""
    document = _enc(payload)
    if not isinstance(document, dict) or "__t" not in document:
        raise UnknownWireTypeError(f"{type(payload).__name__} is not a wire message")
    return document


def message_from_wire(document: Dict[str, Any]) -> Any:
    """Decode the document produced by :func:`message_to_wire`."""
    return _dec(document)


def encode_message(payload: Any) -> bytes:
    """Serialize one protocol message under the active codec."""
    if _active_codec == "binary":
        layout = _ENCODERS.get(type(payload))
        if layout is None:
            raise UnknownWireTypeError(f"{type(payload).__name__} is not a wire message")
        buf = bytearray((layout[0],))
        try:
            layout[1](payload, buf)
        except (struct.error, AttributeError, TypeError, ValueError, KeyError) as exc:
            # e.g. an int beyond i64: refuse it here instead of truncating.
            raise CodecError(f"cannot encode {type(payload).__name__}: {exc}") from exc
        return bytes(buf)
    return json.dumps(message_to_wire(payload), separators=(",", ":")).encode("utf-8")


def _decode_binary(data: bytes) -> Any:
    """Decode the tagged binary message that fills *data* exactly."""
    try:
        index = data[0] - BINARY_TAG_BASE
        if not 0 <= index < len(_DECODERS):
            raise CodecError(f"unknown binary type tag {data[0]:#04x}")
        value, end = _DECODERS[index](data, 1)
    except CodecError:
        raise
    except (IndexError, ValueError, KeyError, TypeError, struct.error) as exc:
        raise CodecError(f"cannot decode binary message: {exc}") from exc
    # Decoders slice without bounds checks: a truncated body ends beyond the data.
    if end != len(data):
        raise CodecError(
            f"binary message is truncated by {end - len(data)} bytes"
            if end > len(data)
            else f"{len(data) - end} trailing bytes after binary message"
        )
    return value


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message` (either codec, sniffed from byte 0)."""
    if data[:1] >= b"\x80":  # a binary type tag; JSON documents start with "{"
        return _decode_binary(data)
    try:
        return message_from_wire(json.loads(data.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise CodecError(f"cannot decode message: {exc}") from exc


# The simulator asks for a size on *every* send; encoding a 100-transaction
# block costs ~0.1 ms of real CPU, which would dominate simulated runs.  Two
# messages of the same type and shape (same optional fields, same batch
# composition) differ by at most a few digit widths — in the binary codec's
# fixed-width records, by nothing — so sizes are computed exactly once per
# shape and reused.  The per-shape key functions below capture the fields
# that change a message's size; a batch is keyed on its length and, per
# operation, how many of its transactions run it and their summed payload
# weight, so a TPC-C proposal is charged for its own mix of profiles and
# order lines, not for those of the first batch that began the same way.  A
# response batch's size follows its columns' widths and modes, so its key is
# the size of the packed columns themselves.
_SIZED = frozenset((str, list, tuple, dict))


def _txn_weight(txn: Transaction) -> int:
    """What varies in the size of one operation's payloads: the characters of
    its strings and the items of its containers."""
    return sum(len(value) for value in txn.payload.values() if value.__class__ in _SIZED)


def _entries_weight(entries: Tuple[ResponseEntry, ...]) -> Tuple[int, int]:
    columns = bytearray()
    _enc_entries(entries, columns)
    return len(entries), len(columns)


def _batch_weight(transactions: Tuple[Transaction, ...]) -> Tuple:
    mix: Dict[str, Tuple[int, int]] = {}
    for txn in transactions:
        count, weight = mix.get(txn.operation, (0, 0))
        mix[txn.operation] = (count + 1, weight + _txn_weight(txn))
    return tuple(sorted(mix.items()))


_SHAPE_KEYS: Dict[Type, Callable[[Any], Tuple]] = {
    ClientRequest: lambda m: (m.txn.operation, _txn_weight(m.txn)),
    ClientRequestBatch: lambda m: _batch_weight(m.txns),
    ClientResponseBatch: lambda m: _entries_weight(m.entries),
    Propose: lambda m: _batch_weight(m.block.transactions) + (m.commit_cert is None,),
    FetchResponse: lambda m: _batch_weight(m.block.transactions),
    NewView: lambda m: (m.share is None, m.commit_share is None),
    # Snapshot payloads grow with state size, so the shape key carries the
    # height — two different checkpoints never share a cached size.
    SnapshotResponse: lambda m: (
        (None,) if m.snapshot is None else (m.snapshot.height, len(m.snapshot.committed_hashes))
    ),
    Wish: lambda m: (m.high_cert is None,),
    TimeoutCertificateMsg: lambda m: (m.high_cert is None,),
    ViewSync: lambda m: (m.high_cert is None,),
}
_size_cache: Dict[Tuple, int] = {}

#: Decoded-payload cache for binary envelopes, keyed by the exact payload
#: bytes.  A broadcast encodes its message once and splices per-receiver
#: routing headers, so every remote peer of an in-process cluster receives a
#: byte-identical payload: the first decode pays, the rest are dict hits.
#: Sharing the decoded object between recipients mirrors the simulator, which
#: delivers one message object to every recipient.
_decode_cache: Dict[bytes, Any] = {}
_DECODE_CACHE_MAX = 256


def reset_size_cache() -> None:
    """Drop memoized sizes and decoded payloads (called at the start of every
    experiment run and on codec switches, so one deployment's message shapes
    never leak into the next)."""
    _size_cache.clear()
    _decode_cache.clear()
    _entries_dec_cache.clear()


def encoded_size(payload: Any, default: int = DEFAULT_SIZE_BYTES) -> int:
    """Bytes this payload occupies on the wire (body plus envelope overhead)
    under the active codec.

    Sizes are exact for the first message of each (type, shape) and reused
    for later messages of the same shape (whose encodings differ only by
    digit widths).  Unknown payload types (tests exercise the network with
    plain strings) charge *default* bytes, preserving the historical
    fixed-size accounting for stubs.
    """
    cls = type(payload)
    shape = _SHAPE_KEYS.get(cls)
    key = (cls, shape(payload) if shape is not None else None)
    cached = _size_cache.get(key)
    if cached is not None:
        return cached
    overhead = BINARY_ENVELOPE_OVERHEAD if _active_codec == "binary" else ENVELOPE_OVERHEAD
    try:
        size = len(encode_message(payload)) + overhead
    except UnknownWireTypeError:
        return default
    _size_cache[key] = size
    return size


# --------------------------------------------------------------------- frames
def _enc_envelope(
    sender: int, receiver: int, message: bytes, sent_at: float, seq: Optional[int]
) -> Tuple[bytes, bytes, int]:
    """``(head, tail, body length)`` of the envelope around encoded *message*."""
    tail = b""
    if message[:1] == b"{":
        # repr() of a Python float is exactly json.dumps' float text.
        stamp = repr(float(sent_at)).encode("ascii")
        if seq is None:
            head = b'{"v":%d,"s":%d,"r":%d,"a":%s,"m":' % (UNTRACED_WIRE_VERSION, sender, receiver, stamp)
        else:
            head = b'{"v":%d,"s":%d,"r":%d,"a":%s,"q":%d,"m":' % (WIRE_VERSION, sender, receiver, stamp, seq)
        tail = b"}"
    elif message[:1] >= b"\x80":
        try:
            if seq is None:
                head = _ENVELOPE.pack(BINARY_MAGIC, BINARY_WIRE_VERSION, sender, receiver, sent_at)
            else:
                head = _TRACED_ENVELOPE.pack(
                    BINARY_MAGIC, BINARY_TRACED_WIRE_VERSION, sender, receiver, sent_at, seq
                )
        except struct.error as exc:
            raise CodecError(f"cannot encode binary envelope: {exc}") from exc
    else:
        raise CodecError("message bytes are neither JSON nor binary encoded")
    size = len(head) + len(message) + len(tail)
    if size > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame body of {size} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); reduce the batch size or snapshot state"
        )
    return head, tail, size


def frame_from_message(
    sender: int, receiver: int, message: bytes, sent_at: float, seq: Optional[int] = None
) -> bytes:
    """Build one length-prefixed frame around already-encoded *message* bytes.

    The envelope format is sniffed from the message encoding, so the frame
    always matches its body.  Broadcasts encode the message once and call
    this per receiver — splicing the routing fields is an order of magnitude
    cheaper than re-encoding a 100-transaction block per peer.

    *seq* is the optional per-sender send sequence (distributed-tracing
    context).  ``None`` emits an untraced frame (JSON
    :data:`UNTRACED_WIRE_VERSION`, byte-identical to the pre-v5 format;
    binary :data:`BINARY_WIRE_VERSION`); an integer emits a traced frame with
    the sequence as JSON key ``"q"`` or the last binary envelope field.
    """
    head, tail, size = _enc_envelope(sender, receiver, message, sent_at, seq)
    return b"".join((FRAME_HEADER.pack(size), head, message, tail))


def frame_size(sender: int, receiver: int, message: bytes, sent_at: float, seq: Optional[int] = None) -> int:
    """``len(frame_from_message(...))`` without building the frame (same errors)."""
    return FRAME_HEADER.size + _enc_envelope(sender, receiver, message, sent_at, seq)[2]


def message_fits_frame(payload: Any) -> bool:
    """``True`` if *payload* encodes into a single frame under the active codec.

    Senders of unboundedly-sized messages (snapshot state transfer) pre-flight
    with this instead of letting :func:`frame_from_message` raise
    :class:`FrameTooLargeError` mid-transfer — a declined snapshot lets the
    receiver fall back to block fetch, a dropped frame strands it.  The
    envelope header around the message body is bounded by
    :data:`ENVELOPE_OVERHEAD` in either format.
    """
    try:
        encoded = encode_message(payload)
    except CodecError:
        return False
    return len(encoded) + ENVELOPE_OVERHEAD <= MAX_FRAME_BYTES


def encode_envelope_frame(sender: int, receiver: int, payload: Any, sent_at: float) -> bytes:
    """Build one length-prefixed frame carrying *payload* between two nodes."""
    return frame_from_message(sender, receiver, encode_message(payload), sent_at)


def decode_envelope(body: bytes) -> Tuple[int, int, float, Optional[int], Any]:
    """Decode a frame body into ``(sender, receiver, sent_at, seq, payload)``.

    Accepts both formats regardless of the active encoding codec: binary
    bodies are recognised by :data:`BINARY_MAGIC`, everything else is treated
    as a JSON envelope (wire versions 1–5).  ``seq`` is the per-sender send
    sequence of traced frames; untraced frames decode with ``seq`` ``None``.
    """
    if body[:1] == bytes((BINARY_MAGIC,)):
        version = body[1] if len(body) > 1 else None
        seq: Optional[int] = None
        try:
            if version == BINARY_WIRE_VERSION:
                _, _, sender, receiver, sent_at = _ENVELOPE.unpack_from(body)
                pos = _ENVELOPE.size
            elif version == BINARY_TRACED_WIRE_VERSION:
                _, _, sender, receiver, sent_at, seq = _TRACED_ENVELOPE.unpack_from(body)
                pos = _TRACED_ENVELOPE.size
            else:
                raise CodecError(f"unsupported binary wire version {version!r}")
        except struct.error as exc:
            raise CodecError(f"cannot decode binary envelope: {exc}") from exc
        payload_bytes = body[pos:]
        payload = _decode_cache.get(payload_bytes)
        if payload is None:
            payload = _decode_binary(payload_bytes)
            if len(_decode_cache) >= _DECODE_CACHE_MAX:
                _decode_cache.clear()
            _decode_cache[payload_bytes] = payload
        return sender, receiver, sent_at, seq, payload
    try:
        document = json.loads(body.decode("utf-8"))
        if document.get("v") not in SUPPORTED_WIRE_VERSIONS:
            raise CodecError(f"unsupported wire version {document.get('v')!r}")
        raw_seq = document.get("q")
        return (
            int(document["s"]),
            int(document["r"]),
            float(document["a"]),
            int(raw_seq) if raw_seq is not None else None,
            message_from_wire(document["m"]),
        )
    except CodecError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise CodecError(f"cannot decode envelope: {exc}") from exc


def decode_envelope_body(body: bytes) -> Tuple[int, int, float, Any]:
    """Decode a frame body into ``(sender, receiver, sent_at, payload)``.

    The pre-v5 surface, kept for callers that do not care about trace
    context; :func:`decode_envelope` additionally surfaces the send sequence.
    """
    sender, receiver, sent_at, _seq, payload = decode_envelope(body)
    return sender, receiver, sent_at, payload


async def read_frame(reader: "asyncio.StreamReader") -> Optional[bytes]:
    """Read one frame body from *reader*; ``None`` on a clean EOF."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise CodecError("connection closed mid-frame") from exc
