"""Deterministic TLV (tag-length-value) encoding.

Every structure that is hashed, signed, or measured in this reproduction
(certificates, CSRs, attestation payloads, filesystem images) is serialised
through this module.  The encoding is *canonical*: a given Python value has
exactly one byte representation, so hashes and signatures over encoded
values are well defined.  This plays the role that DER/ASN.1 plays in the
real Revelio prototype, without the historical baggage.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision,
signed), ``bytes``, ``str`` (UTF-8), ``list``/``tuple`` (encoded
identically), and ``dict`` with string keys (encoded with keys sorted by
their UTF-8 bytes).

Wire format: a single tag byte, a big-endian 4-byte length, then the body.
Lists and dicts nest at most :data:`MAX_DEPTH` deep; the limit is part
of the format.  :func:`encode` raises only :class:`EncodingError` and
:func:`decode` only :class:`DecodingError` (both ``ValueError``), so a
peer's bytes can never raise anything else out of the decoder.

Both directions make one pass.  :func:`encode` appends every frame's
header and body to one output list and joins it once; a container
reserves its header slot and fills it in once its body length is known.
:func:`decode` walks the one input buffer by offsets, bounding each frame
by its container's end; only leaves slice out their value.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Union

Encodable = Union[None, bool, int, bytes, str, list, tuple, dict]

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT_POS = 0x03
TAG_INT_NEG = 0x04
TAG_BYTES = 0x05
TAG_STR = 0x06
TAG_LIST = 0x07
TAG_DICT = 0x08

#: The deepest the format nests lists and dicts: a container inside
#: ``MAX_DEPTH`` others is refused by both :func:`encode` and
#: :func:`decode`.
MAX_DEPTH = 32

_HEADER = struct.Struct(">BI")
_pack = _HEADER.pack
_unpack_from = _HEADER.unpack_from
_NONE = _pack(TAG_NONE, 0)
_FALSE = _pack(TAG_FALSE, 0)
_TRUE = _pack(TAG_TRUE, 0)
_SINGLETONS = (None, False, True)


class EncodingError(ValueError):
    """Raised when a value cannot be canonically encoded."""


class DecodingError(ValueError):
    """Raised when a byte string is not a valid canonical encoding."""


def encode(value: Encodable) -> bytes:
    """Canonically encode *value* to bytes.

    Raises :class:`EncodingError` for unsupported types, strings that
    are not valid Unicode (lone surrogates), dicts with non-string or
    duplicate keys, nesting deeper than :data:`MAX_DEPTH`, and bodies
    too long to frame.
    """
    out: List[bytes] = []
    try:
        _encode_into(value, out, 0)
    except UnicodeEncodeError as exc:
        raise EncodingError("string is not valid Unicode") from exc
    except struct.error as exc:
        raise EncodingError("value too large to frame") from exc
    return b"".join(out)


def _encode_into(value: Encodable, out: List[bytes], depth: int) -> int:
    """Append *value*'s frame to *out*; returns its size in bytes.
    *depth* counts the containers around *value*."""
    cls = type(value)
    if cls is dict:
        return _encode_dict(value, out, depth)
    if cls is str:
        body = value.encode("utf-8")
        tag = TAG_STR
    elif cls is bytes:
        body = value
        tag = TAG_BYTES
    elif cls is int:
        if value < 0:
            tag, value = TAG_INT_NEG, -value
        else:
            tag = TAG_INT_POS
        # Minimal big-endian magnitude; zero encodes as the empty body.
        body = value.to_bytes((value.bit_length() + 7) // 8, "big")
    elif cls is list or cls is tuple:
        return _encode_list(value, out, depth)
    elif value is None:
        out.append(_NONE)
        return 5
    elif value is True:
        out.append(_TRUE)
        return 5
    elif value is False:
        out.append(_FALSE)
        return 5
    else:
        return _encode_subclass(value, out, depth)
    out.append(_pack(tag, len(body)))
    out.append(body)
    return 5 + len(body)


def _encode_subclass(value, out: List[bytes], depth: int) -> int:
    # Subclasses of the supported types (``bool`` never gets here) and
    # ``bytearray``, which encodes as bytes.
    if isinstance(value, int):
        tag = TAG_INT_NEG if value < 0 else TAG_INT_POS
        magnitude = abs(value)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    elif isinstance(value, bytes):
        tag, body = TAG_BYTES, value
    elif isinstance(value, bytearray):
        tag, body = TAG_BYTES, bytes(value)
    elif isinstance(value, str):
        tag, body = TAG_STR, value.encode("utf-8")
    elif isinstance(value, (list, tuple)):
        return _encode_list(value, out, depth)
    elif isinstance(value, dict):
        return _encode_dict(dict(value.items()), out, depth)
    else:
        raise EncodingError(
            f"cannot encode value of type {type(value).__name__}"
        )
    out.append(_pack(tag, len(body)))
    out.append(body)
    return 5 + len(body)


def _encode_list(items, out: List[bytes], depth: int) -> int:
    if depth >= MAX_DEPTH:
        raise EncodingError(f"nesting deeper than {MAX_DEPTH} containers")
    depth += 1
    append = out.append
    slot = len(out)
    append(b"")  # header slot, filled in below
    size = 0
    for item in items:
        cls = type(item)
        if cls is bytes:
            n = len(item)
            append(_pack(TAG_BYTES, n))
            append(item)
            size += 5 + n
        elif cls is str:
            item = item.encode("utf-8")
            n = len(item)
            append(_pack(TAG_STR, n))
            append(item)
            size += 5 + n
        else:
            size += _encode_into(item, out, depth)
    out[slot] = _pack(TAG_LIST, size)
    return 5 + size


def _encode_dict(mapping: Dict[str, Encodable], out: List[bytes],
                 depth: int) -> int:
    # *mapping* is a plain dict (a subclass is copied first), so
    # ``mapping[key]`` reads what ``items()`` would.
    if depth >= MAX_DEPTH:
        raise EncodingError(f"nesting deeper than {MAX_DEPTH} containers")
    depth += 1
    try:
        # Code-point order is UTF-8 byte order, the canonical key order
        # (checked below, as the keys are encoded).
        keys = sorted(mapping)
    except TypeError:  # keys of mixed types: not all of them are str
        raise EncodingError("dict keys must be str") from None
    append = out.append
    slot = len(out)
    append(b"")  # header slot, filled in below
    size = 0
    previous = None
    for key in keys:
        if type(key) is not str and not isinstance(key, str):
            raise EncodingError("dict keys must be str")
        item = mapping[key]
        key = key.encode("utf-8")
        if previous is not None and key <= previous:
            raise EncodingError(f"duplicate or unordered dict key {key!r}")
        previous = key
        n = len(key)
        append(_pack(TAG_STR, n))
        append(key)
        size += 5 + n
        cls = type(item)
        if cls is bytes:
            n = len(item)
            append(_pack(TAG_BYTES, n))
            append(item)
            size += 5 + n
        elif cls is str:
            item = item.encode("utf-8")
            n = len(item)
            append(_pack(TAG_STR, n))
            append(item)
            size += 5 + n
        elif cls is bool:
            append(_TRUE if item else _FALSE)
            size += 5
        else:
            size += _encode_into(item, out, depth)
    out[slot] = _pack(TAG_DICT, size)
    return 5 + size


def decode(data: bytes) -> Encodable:
    """Decode a canonical encoding produced by :func:`encode`.

    Raises :class:`DecodingError` on malformed or non-canonical input,
    including trailing bytes and nesting deeper than :data:`MAX_DEPTH`.
    """
    end = len(data)
    if end < 5:
        raise DecodingError("truncated frame header")
    tag, length = _unpack_from(data, 0)
    if 5 + length > end:
        raise DecodingError("truncated frame body")
    if 5 + length != end:
        raise DecodingError("trailing bytes after encoded value")
    if tag == TAG_DICT:  # the common case: a message
        return _decode_dict(data, 5, end, 0)
    return _decode_body(data, tag, 5, end, 0)


def _decode_body(data: bytes, tag: int, start: int, stop: int,
                 depth: int) -> Encodable:
    """The value of the frame with *tag* whose body is
    ``data[start:stop]``; *depth* counts the containers around it."""
    if tag == TAG_BYTES:
        return data[start:stop]
    if tag == TAG_STR:
        try:
            return data[start:stop].decode("utf-8")
        except UnicodeDecodeError:
            raise DecodingError("invalid UTF-8 in string") from None
    if tag == TAG_DICT:
        return _decode_dict(data, start, stop, depth)
    if tag == TAG_INT_POS or tag == TAG_INT_NEG:
        if start < stop and data[start] == 0:
            raise DecodingError("non-minimal integer encoding")
        magnitude = int.from_bytes(data[start:stop], "big")
        if tag == TAG_INT_POS:
            return magnitude
        if magnitude == 0:
            raise DecodingError("negative zero is not canonical")
        return -magnitude
    if tag == TAG_LIST:
        return _decode_list(data, start, stop, depth)
    if tag <= TAG_TRUE:
        if start != stop:
            raise DecodingError("unexpected body for singleton tag")
        return _SINGLETONS[tag]
    raise DecodingError(f"unknown tag 0x{tag:02x}")


def _decode_list(data: bytes, offset: int, end: int, depth: int) -> list:
    if depth >= MAX_DEPTH:
        raise DecodingError(f"nesting deeper than {MAX_DEPTH} containers")
    depth += 1
    items = []
    append = items.append
    while offset < end:
        start = offset + 5
        if start > end:
            raise DecodingError("truncated frame header")
        tag, length = _unpack_from(data, offset)
        offset = start + length
        if offset > end:
            raise DecodingError("truncated frame body")
        if tag == TAG_BYTES:
            append(data[start:offset])
        else:
            append(_decode_body(data, tag, start, offset, depth))
    return items


def _decode_dict(data: bytes, offset: int, end: int, depth: int) -> dict:
    if depth >= MAX_DEPTH:
        raise DecodingError(f"nesting deeper than {MAX_DEPTH} containers")
    depth += 1
    result: Dict[str, Encodable] = {}
    previous = None
    while offset < end:
        start = offset + 5
        if start > end:
            raise DecodingError("truncated frame header")
        tag, length = _unpack_from(data, offset)
        offset = start + length
        if offset > end:
            raise DecodingError("truncated frame body")
        if tag != TAG_STR:
            raise DecodingError("dict key is not a string")
        # UTF-8 byte order is code-point order, so the raw key bytes
        # give the canonical-order check without re-encoding the key.
        key_bytes = data[start:offset]
        if previous is not None and key_bytes <= previous:
            raise DecodingError("dict keys not in canonical order")
        previous = key_bytes
        try:
            key = key_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise DecodingError("invalid UTF-8 in string") from None
        if offset >= end:
            raise DecodingError("dict key without value")
        start = offset + 5
        if start > end:
            raise DecodingError("truncated frame header")
        tag, length = _unpack_from(data, offset)
        offset = start + length
        if offset > end:
            raise DecodingError("truncated frame body")
        if tag == TAG_BYTES:
            result[key] = data[start:offset]
        elif tag == TAG_STR:
            try:
                result[key] = data[start:offset].decode("utf-8")
            except UnicodeDecodeError:
                raise DecodingError("invalid UTF-8 in string") from None
        elif tag == TAG_TRUE and start == offset:
            result[key] = True
        else:
            result[key] = _decode_body(data, tag, start, offset, depth)
    return result
