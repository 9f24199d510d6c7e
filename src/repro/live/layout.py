"""Schema-compiled binary layouts: the mechanism under the wire codec.

:mod:`repro.live.codec` declares, per wire type, each field's *kind*; this
module turns such a declaration into one encoder and one decoder, compiled
once at import (:func:`compile_layout`).  It knows kinds, not protocol types.

========  ====================================================================
kind      bytes (all big-endian)
========  ====================================================================
int       header field: i32, or i64 when any int of the header needs it
float     header field: f64
bool      header field: one byte
enum      header field: member index, one byte (kind = the ``Enum`` class)
digest    ``00`` + 32 raw bytes for 64 lowercase hex chars (sha256 / HMAC
          text); any other string is ``01`` + ``str``
str       varint byte length + UTF-8
opt(T)    ``00`` for ``None``, else ``01`` + T
seq(T)    varint count + items; ``seq("int")`` is one packed array behind a
          width byte (``00`` i32 items, ``01`` i64 items)
T         a registered type nested in another: its own layout, no tag
value     schemaless (unregistered payloads, snapshot state): one type code per
          value — ``00`` None, ``01`` True, ``02`` False, ``03`` zigzag varint
          int (≤ 10 bytes), ``04`` f64, ``05`` str, ``07`` list, ``08`` map
uint      unsigned varint (≤ 10 bytes; below 128: the byte itself)
record    a ``dict`` with exactly the declared keys in the declared order: the
          fields' values in that order — no key names, no type codes.  A
          ``float`` field is an f64.  ``seq(record(...))`` whose fields are
          all fixed-width ints (``u8`` ``u16``) is a varint count, a
          width byte and one packed array (``00``: the declared widths;
          ``01``: every int as i64), read with one ``iter_unpack``
========  ====================================================================

A type's layout is its *header* — every fixed-width field in declared order,
packed by one ``struct.Struct``, behind a width byte (``00`` = every int is
i32, ``01`` = every int is i64) when it has ints — followed by its remaining
fields in declared order.  A codec for a kind is a pair ``(encode(value,
buf), decode(data, pos) -> (value, next_pos))``.

Records carry transaction payloads.  Each state-machine operation declares
its payload as a record and a one-byte *opcode*
(``repro.ledger.transaction.declare_operation``); a transaction's header ends
in that opcode and the compiled record follows — no operation string, no key
names, no per-value codes.  The *escape rule*: opcode ``00`` is followed by the
operation string and the payload in the self-describing ``value`` form, and
is what an unregistered operation and any payload that is not *exactly* its
record take.  A record encoder raises ``CodecError`` on anything else than a
``dict`` of the declared keys in order whose values are of exactly the
declared classes (``True`` is not ``1``, ``1`` is not ``1.0``) and in range,
so what decodes is equal to what was encoded, value for value, and hashes to
the same digest.

Decoders index and slice without bounds checks: on a truncated buffer they
either raise (``IndexError``, ``struct.error``, ``ValueError``) or return a
position beyond the data.  The caller owns both: see
``repro.live.codec.decode_message``.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import NetworkError

Codec = Tuple[Callable[[Any, bytearray], None], Callable[[bytes, int], Tuple[Any, int]]]


class CodecError(NetworkError):
    """A frame or durable record could not be encoded/decoded."""


class UnknownWireTypeError(CodecError):
    """The payload type has no wire representation registered."""


def opt(kind: Any) -> Tuple:
    """Kind of a field that may be ``None``."""
    return ("opt", kind)


def seq(kind: Any, into: Callable = tuple) -> Tuple:
    """Kind of a homogeneous sequence, rebuilt with *into* on decode."""
    return ("seq", kind, into)


def is_enum(kind: Any) -> bool:
    return isinstance(kind, type) and issubclass(kind, enum.Enum)


# -------------------------------------------------------------------- scalars
DOUBLE = struct.Struct(">d")
_fromhex = bytes.fromhex


def _append_uvarint(buf: bytearray, value: int) -> None:
    if value >> 70:
        raise CodecError("int too large for a 10-byte varint")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= 70:
            raise CodecError("varint longer than 10 bytes")


def _dec_count(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an item count; every item occupies at least one byte, so a count
    beyond the remaining bytes is corrupt (and must not size a loop)."""
    count, pos = _read_uvarint(data, pos)
    if count > len(data) - pos:
        raise CodecError(f"count {count} exceeds the {len(data) - pos} bytes that follow")
    return count, pos


def _enc_str(text: str, buf: bytearray) -> None:
    raw = text.encode("utf-8")
    _append_uvarint(buf, len(raw))
    buf += raw


def _dec_str(data: bytes, pos: int) -> Tuple[str, int]:
    size, pos = _read_uvarint(data, pos)
    end = pos + size
    return str(data[pos:end], "utf-8"), end


def _enc_uint(value: int, buf: bytearray) -> None:
    if value.__class__ is not int or value < 0:
        raise CodecError(f"{value!r} is not an unsigned int")
    _append_uvarint(buf, value)


def _enc_float(value: float, buf: bytearray) -> None:
    if value.__class__ is not float:
        raise CodecError(f"{value!r} is not a float")
    buf += DOUBLE.pack(value)


def _dec_float(data: bytes, pos: int) -> Tuple[float, int]:
    return DOUBLE.unpack_from(data, pos)[0], pos + 8


def _enc_raw_digest(text: str) -> Optional[bytes]:
    """The 32 raw bytes of a 64-char lowercase-hex digest, else ``None``."""
    try:
        raw = _fromhex(text)
    except ValueError:
        return None
    # fromhex also takes uppercase and embedded whitespace: only a string the
    # raw bytes reproduce exactly may ride without its text.
    return raw if len(raw) == 32 and raw.hex() == text else None


def _enc_digest(text: str, buf: bytearray) -> None:
    raw = _enc_raw_digest(text)
    if raw is not None:
        buf.append(0)
        buf += raw
    else:
        buf.append(1)
        _enc_str(text, buf)


def _dec_digest(data: bytes, pos: int) -> Tuple[str, int]:
    if data[pos]:
        return _dec_str(data, pos + 1)
    end = pos + 33
    return data[pos + 1 : end].hex(), end


# One-byte type codes of the schemaless ``value`` kind.
B_NONE = 0x00
B_TRUE = 0x01
B_FALSE = 0x02
B_INT = 0x03
B_FLOAT = 0x04
B_STR = 0x05
B_LIST = 0x07  # tuples decode as lists
B_MAP = 0x08


def _enc_value(value: Any, buf: bytearray, cls: Optional[Type] = None) -> None:
    # Lengths and ints below 128 are one varint byte, appended in place.
    cls = cls or value.__class__
    if cls is str:
        raw = value.encode("utf-8")
        buf.append(B_STR)
        if len(raw) < 0x80:
            buf.append(len(raw))
        else:
            _append_uvarint(buf, len(raw))
        buf += raw
    elif cls is int:
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        buf.append(B_INT)
        if zigzag < 0x80:
            buf.append(zigzag)
        else:
            _append_uvarint(buf, zigzag)
    elif value is None:
        buf.append(B_NONE)
    elif cls is bool:
        buf.append(B_TRUE if value else B_FALSE)
    elif cls is float:
        buf.append(B_FLOAT)
        buf += DOUBLE.pack(value)
    elif cls is list or cls is tuple:
        buf.append(B_LIST)
        _append_uvarint(buf, len(value))
        for item in value:
            _enc_value(item, buf)
    elif cls is dict:
        buf.append(B_MAP)
        _append_uvarint(buf, len(value))
        for key, item in value.items():
            _enc_value(key, buf)
            _enc_value(item, buf)
    else:
        for base in (str, int, float, list, tuple, dict):
            if isinstance(value, base):  # e.g. an int enum rides as an int
                return _enc_value(value, buf, base)
        raise UnknownWireTypeError(f"no wire format registered for {cls.__name__}")


def _dec_value(data: bytes, pos: int) -> Tuple[Any, int]:
    code = data[pos]
    pos += 1
    if code == B_INT:  # most frequent first; one-byte varints read in place
        unsigned = data[pos]
        if unsigned < 0x80:
            pos += 1
        else:
            unsigned, pos = _read_uvarint(data, pos)
        return (unsigned >> 1) if not unsigned & 1 else -((unsigned + 1) >> 1), pos
    if code == B_STR:
        size = data[pos]
        if size < 0x80:
            pos += 1
        else:
            size, pos = _read_uvarint(data, pos)
        end = pos + size
        return str(data[pos:end], "utf-8"), end
    if code == B_FLOAT:
        return DOUBLE.unpack_from(data, pos)[0], pos + 8
    if code == B_LIST:
        count, pos = _dec_count(data, pos)
        items = []
        for _ in range(count):
            item, pos = _dec_value(data, pos)
            items.append(item)
        return items, pos
    if code == B_MAP:
        count, pos = _dec_count(data, pos)
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _dec_value(data, pos)
            mapping[key], pos = _dec_value(data, pos)
        return mapping, pos
    if code == B_NONE:
        return None, pos
    if code == B_TRUE:
        return True, pos
    if code == B_FALSE:
        return False, pos
    raise CodecError(f"unknown binary value code {code:#04x}")


#: Codecs of the variable-width scalar kinds; :mod:`repro.live.codec` extends
#: a copy with every registered type (and its record arrays).
SCALAR_CODECS: Dict[Any, Codec] = {
    "str": (_enc_str, _dec_str),
    "uint": (_enc_uint, _read_uvarint),
    "float": (_enc_float, _dec_float),  # outside a header: strictly a float
    "digest": (_enc_digest, _dec_digest),
    "value": (_enc_value, _dec_value),
}


# ----------------------------------------------------------------- composites
def _opt_codec(encode: Callable, decode: Callable) -> Codec:
    def _enc_opt(value: Any, buf: bytearray) -> None:
        if value is None:
            buf.append(0)
        else:
            buf.append(1)
            encode(value, buf)

    def _dec_opt(data: bytes, pos: int) -> Tuple[Any, int]:
        return decode(data, pos + 1) if data[pos] else (None, pos + 1)

    return _enc_opt, _dec_opt


def _int_seq_codec(into: Callable) -> Codec:
    def _enc_seq(items: Any, buf: bytearray) -> None:
        _append_uvarint(buf, len(items))
        try:
            buf += struct.pack(f">B{len(items)}i", 0, *items)
        except struct.error:
            buf += struct.pack(f">B{len(items)}q", 1, *items)

    def _dec_seq(data: bytes, pos: int) -> Tuple[Any, int]:
        count, pos = _dec_count(data, pos)
        code, width = ("q", 8) if data[pos] else ("i", 4)
        return into(struct.unpack_from(f">{count}{code}", data, pos + 1)), pos + 1 + count * width

    return _enc_seq, _dec_seq


def _seq_codec(encode: Callable, decode: Callable, into: Callable) -> Codec:
    def _enc_seq(items: Any, buf: bytearray) -> None:
        _append_uvarint(buf, len(items))
        for item in items:
            encode(item, buf)

    def _dec_seq(data: bytes, pos: int) -> Tuple[Any, int]:
        count, pos = _dec_count(data, pos)
        items = []
        for _ in range(count):
            item, pos = decode(data, pos)
            items.append(item)
        return into(items), pos

    return _enc_seq, _dec_seq


#: Fixed-width (int) kinds of a record array and their narrow ``struct`` codes.
_RECORD_FIXED = {"u8": "B", "u16": "H"}
_INT = frozenset((int,))


def _record_seq_codec(fields: Tuple[Tuple[str, str], ...], into: Callable) -> Codec:
    """A sequence of dicts with the fixed-width *fields*, as one packed array."""
    keys = tuple(name for name, _ in fields)
    codes = "".join(_RECORD_FIXED[kind] for _, kind in fields)
    wide_codes = "q" * len(keys)
    sizes = (struct.calcsize(">" + codes), struct.calcsize(">" + wide_codes))
    scope: Dict[str, Any] = {}
    names = ", ".join(f"f{index}" for index in range(len(keys)))
    items = ", ".join(f"{key!r}: f{index}" for index, key in enumerate(keys))
    source = f"def _dec_rows(rows):\n    return [{{{items}}} for {names}, in rows]\n"
    exec(compile(source, f"{__file__}:rows", "exec"), scope)
    rows = scope["_dec_rows"]

    def _enc_records(items: Any, buf: bytearray) -> None:
        if items.__class__ is not into:
            raise CodecError(f"records of {keys} are not in a {into.__name__}")
        flat: List[Any] = []
        for item in items:
            if item.__class__ is not dict or tuple(item) != keys:
                raise CodecError(f"record keys are not {keys}")
            flat += item.values()
        if not _INT.issuperset(map(type, flat)):  # struct would pack True as 1
            raise CodecError(f"a value of record {keys} is not an int")
        _append_uvarint(buf, len(items))
        try:
            buf += struct.pack(">B" + codes * len(items), 0, *flat)
        except struct.error:
            buf += struct.pack(">B" + wide_codes * len(items), 1, *flat)

    def _dec_records(data: bytes, pos: int) -> Tuple[Any, int]:
        count, pos = _dec_count(data, pos)
        wide = data[pos]
        end = pos + 1 + count * sizes[wide]  # any other width byte: IndexError
        return into(rows(struct.iter_unpack(">" + (wide_codes if wide else codes), data[pos + 1 : end]))), end

    return _enc_records, _dec_records


def compile_record(tag: str, fields: Tuple[Tuple[str, Any], ...], codecs: Dict[Any, Codec]) -> Codec:
    """Compile the codec of a ``dict`` with exactly the keys of *fields*, in
    that order: flat source like :func:`compile_layout`, with ``uint`` and
    ``str`` (the kinds of nearly every payload field) written out in place."""
    keys = tuple(name for name, _ in fields)
    scope: Dict[str, Any] = {"keys": keys, "CodecError": CodecError, "enc_uint": _enc_uint, "dec_uint": _read_uvarint}
    names = "".join(f"f_{name}, " for name in keys)
    enc_lines = ["if p.__class__ is not dict or tuple(p) != keys:", "    raise CodecError(f'payload keys are not {keys}')"]
    enc_lines += [f"{names}= p.values()"] if keys else []
    dec_lines: List[str] = []
    for name, kind in fields:
        if kind == "uint":  # one byte in every workload: append / index in place
            enc_lines += [f"if f_{name}.__class__ is int and 0 <= f_{name} < 0x80:", f"    buf.append(f_{name})"]
            enc_lines += ["else:", f"    enc_uint(f_{name}, buf)"]
            dec_lines += [f"f_{name} = data[pos]", f"if f_{name} < 0x80:", "    pos += 1"]
            dec_lines += ["else:", f"    f_{name}, pos = dec_uint(data, pos)"]
        elif kind == "str":  # under 128 bytes in every workload
            enc_lines += [f"f_{name} = f_{name}.encode('utf-8')", f"if len(f_{name}) < 0x80:", f"    buf.append(len(f_{name}))"]
            enc_lines += ["else:", f"    enc_uint(len(f_{name}), buf)", f"buf += f_{name}"]
            dec_lines += ["size = data[pos]", "if size < 0x80:", "    pos += 1", "else:", "    size, pos = dec_uint(data, pos)"]
            dec_lines += [f"f_{name} = str(data[pos : pos + size], 'utf-8')", "pos += size"]
        else:
            scope[f"enc_{name}"], scope[f"dec_{name}"] = kind_codec(kind, codecs)
            enc_lines.append(f"enc_{name}(f_{name}, buf)")
            dec_lines.append(f"f_{name}, pos = dec_{name}(data, pos)")
    source = (
        f"def _enc_{tag}(p, buf):\n    " + "\n    ".join(enc_lines) + "\n"
        f"def _dec_{tag}(data, pos):\n    " + "\n    ".join(dec_lines) + "\n"
        f"    return {{{', '.join(f'{name!r}: f_{name}' for name in keys)}}}, pos\n"
    )
    exec(compile(source, f"{__file__}:{tag}", "exec"), scope)
    return scope[f"_enc_{tag}"], scope[f"_dec_{tag}"]


def kind_codec(kind: Any, codecs: Dict[Any, Codec]) -> Codec:
    """The codec of one variable-width *kind*; *codecs* holds the scalar
    kinds, the registered types and any sequence with a codec of its own."""
    if kind in codecs:
        return codecs[kind]
    if not isinstance(kind, tuple):
        raise TypeError(f"unknown wire kind {kind!r} (a nested type must be registered first)")
    if kind[0] == "opt":
        return _opt_codec(*kind_codec(kind[1], codecs))
    if kind[0] == "record":
        return compile_record("record", kind[1], codecs)
    _, item, into = kind
    if item == "int":
        return _int_seq_codec(into)
    if isinstance(item, tuple) and item[0] == "record" and all(k in _RECORD_FIXED for _, k in item[1]):
        return _record_seq_codec(item[1], into)
    return _seq_codec(*kind_codec(item, codecs), into)


# -------------------------------------------------------------------- layouts
#: Fixed-width kinds and their ``struct`` codes (enums: one ``B``).
_FIXED = {"int": "q", "float": "d", "bool": "?"}


def compile_layout(cls: Type, tag: str, kinds: Dict[str, Any], codecs: Dict[Any, Codec]) -> Codec:
    """Compile the codec of *cls* from its fields' *kinds* (declared order).

    Both functions are generated as flat source — one ``pack`` /
    ``unpack_from`` for the whole header, one call per remaining field, no
    loop over fields, no per-value type code — and named ``_enc_<tag>`` /
    ``_dec_<tag>`` so a profile (``python -m cProfile``) attributes codec time
    per message type instead of to one generic function.
    The decoder builds ``cls`` positionally, so *kinds* must list its fields
    in constructor order.
    """
    scope: Dict[str, Any] = {"cls": cls, "error": struct.error}
    head = {name: kind for name, kind in kinds.items() if kind in _FIXED or is_enum(kind)}
    enc_lines: List[str] = []
    dec_lines: List[str] = []
    if head:
        codes = "".join("B" if is_enum(kind) else _FIXED[kind] for kind in head.values())
        values = ", ".join(f"index_{name}[o.{name}]" if is_enum(kind) else f"o.{name}" for name, kind in head.items())
        names = ", ".join(f"f_{name}" for name in head)
        if "q" in codes:  # try i32 ints first; an int that does not fit repacks the header as i64
            narrow, wide = struct.Struct(">B" + codes.replace("q", "i")), struct.Struct(">B" + codes)
            scope.update(pack_narrow=narrow.pack, unpack_narrow=narrow.unpack_from)
            scope.update(pack_wide=wide.pack, unpack_wide=wide.unpack_from)
            enc_lines += ["try:", f"    buf += pack_narrow(0, {values})"]
            enc_lines += ["except error:", f"    buf += pack_wide(1, {values})"]
            dec_lines += ["if data[pos]:", f"    _, {names} = unpack_wide(data, pos)", f"    pos += {wide.size}"]
            dec_lines += ["else:", f"    _, {names} = unpack_narrow(data, pos)", f"    pos += {narrow.size}"]
        else:
            packer = struct.Struct(">" + codes)
            scope.update(pack=packer.pack, unpack=packer.unpack_from)
            enc_lines.append(f"buf += pack({values})")
            dec_lines += [f"{names}, = unpack(data, pos)", f"pos += {packer.size}"]
    for name, kind in kinds.items():
        if is_enum(kind):
            scope[f"members_{name}"] = members = tuple(kind)
            scope[f"index_{name}"] = {member: index for index, member in enumerate(members)}
            dec_lines.append(f"f_{name} = members_{name}[f_{name}]")
        elif kind not in _FIXED:
            scope[f"enc_{name}"], scope[f"dec_{name}"] = kind_codec(kind, codecs)
            enc_lines.append(f"enc_{name}(o.{name}, buf)")
            dec_lines.append(f"f_{name}, pos = dec_{name}(data, pos)")
    source = (
        f"def _enc_{tag}(o, buf):\n    " + "\n    ".join(enc_lines) + "\n"
        f"def _dec_{tag}(data, pos):\n    " + "\n    ".join(dec_lines) + "\n"
        f"    return cls({', '.join(f'f_{name}' for name in kinds)}), pos\n"
    )
    exec(compile(source, f"{__file__}:{tag}", "exec"), scope)
    return scope[f"_enc_{tag}"], scope[f"_dec_{tag}"]
