"""The canonical TLV codec as it stood before the one-pass rewrite.

Test-only oracle: the property tests in
``tests/property/test_crypto_properties.py`` check that
:mod:`repro.crypto.encoding` produces the same bytes as this codec for
every value, and accepts or refuses every (possibly corrupted) input
exactly as this codec does.  The functions are kept verbatim; only the
tag constants and the error classes come from the module under test, so
both codecs raise the same exception types.  This codec has no nesting
limit, so the oracle is only consulted on values inside the format's
:data:`~repro.crypto.encoding.MAX_DEPTH`.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.crypto.encoding import (
    TAG_BYTES,
    TAG_DICT,
    TAG_FALSE,
    TAG_INT_NEG,
    TAG_INT_POS,
    TAG_LIST,
    TAG_NONE,
    TAG_STR,
    TAG_TRUE,
    DecodingError,
    Encodable,
    EncodingError,
)

_LEN = struct.Struct(">I")


def _frame(tag: int, body: bytes) -> bytes:
    if len(body) > 0xFFFFFFFF:
        raise EncodingError("value too large to frame")
    return bytes([tag]) + _LEN.pack(len(body)) + body


def _int_body(value: int) -> bytes:
    # Minimal big-endian magnitude; zero encodes as the empty body.
    magnitude = abs(value)
    length = (magnitude.bit_length() + 7) // 8
    return magnitude.to_bytes(length, "big")


def encode(value: Encodable) -> bytes:
    """Canonically encode *value* to bytes.

    Raises :class:`EncodingError` for unsupported types and for dicts with
    non-string or duplicate keys.
    """
    if value is None:
        return _frame(TAG_NONE, b"")
    if value is True:
        return _frame(TAG_TRUE, b"")
    if value is False:
        return _frame(TAG_FALSE, b"")
    if isinstance(value, int):
        tag = TAG_INT_NEG if value < 0 else TAG_INT_POS
        return _frame(tag, _int_body(value))
    if isinstance(value, bytes):
        return _frame(TAG_BYTES, value)
    if isinstance(value, bytearray):
        return _frame(TAG_BYTES, bytes(value))
    if isinstance(value, str):
        return _frame(TAG_STR, value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        body = b"".join(encode(item) for item in value)
        return _frame(TAG_LIST, body)
    if isinstance(value, dict):
        return _frame(TAG_DICT, _dict_body(value))
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def _dict_body(mapping: Dict[str, Encodable]) -> bytes:
    items: List[Tuple[bytes, bytes]] = []
    for key, item in mapping.items():
        if not isinstance(key, str):
            raise EncodingError("dict keys must be str")
        items.append((key.encode("utf-8"), encode(item)))
    items.sort(key=lambda pair: pair[0])
    parts = []
    previous = None
    for key_bytes, encoded in items:
        if key_bytes == previous:
            raise EncodingError(f"duplicate dict key {key_bytes!r}")
        previous = key_bytes
        parts.append(_frame(TAG_STR, key_bytes))
        parts.append(encoded)
    return b"".join(parts)


def decode(data: bytes) -> Encodable:
    """Decode a canonical encoding produced by :func:`encode`.

    Raises :class:`DecodingError` on malformed or non-canonical input,
    including trailing bytes.
    """
    value, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise DecodingError("trailing bytes after encoded value")
    return value


def _decode_at(data: bytes, offset: int) -> Tuple[Encodable, int]:
    if offset + 5 > len(data):
        raise DecodingError("truncated frame header")
    tag = data[offset]
    (length,) = _LEN.unpack_from(data, offset + 1)
    body_start = offset + 5
    body_end = body_start + length
    if body_end > len(data):
        raise DecodingError("truncated frame body")
    body = data[body_start:body_end]

    if tag == TAG_NONE:
        _expect_empty(body)
        return None, body_end
    if tag == TAG_TRUE:
        _expect_empty(body)
        return True, body_end
    if tag == TAG_FALSE:
        _expect_empty(body)
        return False, body_end
    if tag in (TAG_INT_POS, TAG_INT_NEG):
        return _decode_int(tag, body), body_end
    if tag == TAG_BYTES:
        return body, body_end
    if tag == TAG_STR:
        try:
            return body.decode("utf-8"), body_end
        except UnicodeDecodeError as exc:
            raise DecodingError("invalid UTF-8 in string") from exc
    if tag == TAG_LIST:
        return _decode_list(body), body_end
    if tag == TAG_DICT:
        return _decode_dict(body), body_end
    raise DecodingError(f"unknown tag 0x{tag:02x}")


def _expect_empty(body: bytes) -> None:
    if body:
        raise DecodingError("unexpected body for singleton tag")


def _decode_int(tag: int, body: bytes) -> int:
    if body and body[0] == 0:
        raise DecodingError("non-minimal integer encoding")
    magnitude = int.from_bytes(body, "big")
    if tag == TAG_INT_NEG:
        if magnitude == 0:
            raise DecodingError("negative zero is not canonical")
        return -magnitude
    return magnitude


def _decode_list(body: bytes) -> list:
    items = []
    offset = 0
    while offset < len(body):
        value, offset = _decode_at(body, offset)
        items.append(value)
    return items


def _decode_dict(body: bytes) -> dict:
    result: Dict[str, Encodable] = {}
    offset = 0
    previous_key: bytes = b""
    first = True
    while offset < len(body):
        key, offset = _decode_at(body, offset)
        if not isinstance(key, str):
            raise DecodingError("dict key is not a string")
        key_bytes = key.encode("utf-8")
        if not first and key_bytes <= previous_key:
            raise DecodingError("dict keys not in canonical order")
        first = False
        previous_key = key_bytes
        if offset >= len(body):
            raise DecodingError("dict key without value")
        value, offset = _decode_at(body, offset)
        result[key] = value
    return result
