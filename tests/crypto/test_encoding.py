"""Unit tests for the canonical TLV encoding."""

from collections import OrderedDict
from enum import Enum, IntEnum

import pytest

from repro.crypto import encoding
from tests.crypto import reference_encoding


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Family(str, Enum):
    SNP = "sev-snp"


class _Bytes(bytes):
    pass


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**200,
            -(2**200),
            b"",
            b"\x00\xff",
            "",
            "hello",
            "unicodé ☃",
            [],
            [1, 2, 3],
            [None, [True, [b"nested"]]],
            {},
            {"a": 1},
            {"z": [1], "a": {"k": b"v"}},
        ],
    )
    def test_round_trip(self, value):
        assert encoding.decode(encoding.encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert encoding.encode((1, 2)) == encoding.encode([1, 2])
        assert encoding.decode(encoding.encode((1, 2))) == [1, 2]

    def test_bytearray_encodes_as_bytes(self):
        assert encoding.encode(bytearray(b"ab")) == encoding.encode(b"ab")

    @pytest.mark.parametrize(
        "value, plain",
        [
            (_Level.HIGH, 2),
            (_Level.LOW, 1),
            (_Bytes(b"ab"), b"ab"),
            (_Family.SNP, "sev-snp"),
            ({_Family.SNP: [_Level.HIGH]}, {"sev-snp": [2]}),
            (OrderedDict([("b", 1), ("a", (True, None))]), {"a": [True, None], "b": 1}),
            ([(), [bytearray(b"x")]], [[], [b"x"]]),
        ],
    )
    def test_subclasses_encode_as_their_base_type(self, value, plain):
        assert encoding.encode(value) == encoding.encode(plain)
        assert encoding.encode(value) == reference_encoding.encode(value)


class TestCanonicality:
    def test_dict_key_order_is_irrelevant(self):
        first = encoding.encode({"a": 1, "b": 2})
        second = encoding.encode({"b": 2, "a": 1})
        assert first == second

    def test_distinct_values_encode_distinctly(self):
        values = [None, True, False, 0, 1, b"", b"\x00", "", "0", [], {}, [0], {"a": 0}]
        encodings = [encoding.encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_int_zero_is_minimal(self):
        # zero has an empty body: tag + 4-byte length only
        assert len(encoding.encode(0)) == 5


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(encoding.EncodingError):
            encoding.encode(1.5)

    def test_non_string_dict_key_raises(self):
        with pytest.raises(encoding.EncodingError):
            encoding.encode({1: "x"})

    @pytest.mark.parametrize(
        "mapping", [{b"k": "x"}, {"a": 1, 2: "b"}, {None: 1, "": 2}]
    )
    def test_mixed_or_non_string_dict_keys_raise(self, mapping):
        with pytest.raises(encoding.EncodingError, match="keys must be str"):
            encoding.encode(mapping)

    def test_trailing_bytes_rejected(self):
        data = encoding.encode(1) + b"\x00"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(data)

    def test_truncated_rejected(self):
        data = encoding.encode(b"hello")
        with pytest.raises(encoding.DecodingError):
            encoding.decode(data[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(encoding.DecodingError):
            encoding.decode(b"\x7f\x00\x00\x00\x00")

    def test_non_minimal_int_rejected(self):
        # Craft an int with a leading zero byte in the magnitude.
        bad = bytes([encoding.TAG_INT_POS]) + (2).to_bytes(4, "big") + b"\x00\x01"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_negative_zero_rejected(self):
        bad = bytes([encoding.TAG_INT_NEG]) + (0).to_bytes(4, "big")
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_unsorted_dict_keys_rejected(self):
        key_b = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"b"
        key_a = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"a"
        one = encoding.encode(1)
        body = key_b + one + key_a + one
        bad = bytes([encoding.TAG_DICT]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_invalid_utf8_rejected(self):
        bad = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"\xff"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_singleton_with_body_rejected(self):
        bad = bytes([encoding.TAG_NONE]) + (1).to_bytes(4, "big") + b"\x00"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_dict_key_without_value_rejected(self):
        key = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"a"
        bad = bytes([encoding.TAG_DICT]) + len(key).to_bytes(4, "big") + key
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)


def _frame(tag, body):
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


def _nested_lists(levels):
    value = []
    for _ in range(levels - 1):
        value = [value]
    return value


class TestContainerBounds:
    """Each frame must end by its container's end, not just by the
    end of the buffer; the reference codec
    (``tests/crypto/reference_encoding.py``) refuses these inputs too."""

    def test_list_element_running_past_its_list_is_rejected(self):
        # The element declares 4 body bytes but its list holds only 2;
        # the buffer goes on (into the sibling), so only the list's own
        # end catches it.
        element = bytes([encoding.TAG_BYTES]) + (4).to_bytes(4, "big") + b"ab"
        inner = _frame(encoding.TAG_LIST, element)
        data = _frame(encoding.TAG_LIST, inner + encoding.encode(b"cdef"))
        with pytest.raises(encoding.DecodingError, match="truncated"):
            encoding.decode(data)
        with pytest.raises(encoding.DecodingError):
            reference_encoding.decode(data)

    def test_dict_value_running_past_its_dict_is_rejected(self):
        value = bytes([encoding.TAG_BYTES]) + (4).to_bytes(4, "big") + b"ab"
        inner = _frame(encoding.TAG_DICT, encoding.encode("k") + value)
        data = _frame(encoding.TAG_LIST, inner + encoding.encode(b"cdef"))
        with pytest.raises(encoding.DecodingError, match="truncated"):
            encoding.decode(data)
        with pytest.raises(encoding.DecodingError):
            reference_encoding.decode(data)

    def test_equal_consecutive_dict_keys_rejected(self):
        one = encoding.encode(1)
        data = _frame(
            encoding.TAG_DICT,
            encoding.encode("a") + one + encoding.encode("a") + one,
        )
        with pytest.raises(encoding.DecodingError, match="canonical order"):
            encoding.decode(data)

    def test_non_string_dict_key_frame_rejected(self):
        data = _frame(
            encoding.TAG_DICT, encoding.encode(b"a") + encoding.encode(1)
        )
        with pytest.raises(encoding.DecodingError, match="not a string"):
            encoding.decode(data)


class TestFormatLimits:
    """The codec raises only its own error types, whatever it is given."""

    def test_nesting_up_to_max_depth_round_trips(self):
        value = _nested_lists(encoding.MAX_DEPTH)
        assert encoding.decode(encoding.encode(value)) == value
        deep_dict = {"k": _nested_lists(encoding.MAX_DEPTH - 1)}
        assert encoding.decode(encoding.encode(deep_dict)) == deep_dict

    def test_encode_refuses_nesting_past_max_depth(self):
        with pytest.raises(encoding.EncodingError, match="nesting"):
            encoding.encode(_nested_lists(encoding.MAX_DEPTH + 1))
        with pytest.raises(encoding.EncodingError, match="nesting"):
            encoding.encode({"k": _nested_lists(encoding.MAX_DEPTH)})

    def test_encode_refuses_a_self_referencing_list(self):
        loop = []
        loop.append(loop)
        with pytest.raises(encoding.EncodingError, match="nesting"):
            encoding.encode(loop)

    def test_decode_refuses_nesting_past_max_depth(self):
        data = _frame(encoding.TAG_LIST, b"")
        for _ in range(encoding.MAX_DEPTH):
            data = _frame(encoding.TAG_LIST, data)
        with pytest.raises(encoding.DecodingError, match="nesting"):
            encoding.decode(data)

    def test_600_nested_lists_raise_decoding_error(self):
        # 3,000 bytes from a peer used to overflow the interpreter's
        # recursion limit: a RecursionError, which is no ValueError.
        data = _frame(encoding.TAG_LIST, b"")
        for _ in range(599):
            data = _frame(encoding.TAG_LIST, data)
        with pytest.raises(encoding.DecodingError, match="nesting"):
            encoding.decode(data)

    def test_deep_dict_nesting_refused_on_decode(self):
        data = _frame(encoding.TAG_DICT, b"")
        for _ in range(encoding.MAX_DEPTH):
            data = _frame(encoding.TAG_DICT, encoding.encode("k") + data)
        with pytest.raises(encoding.DecodingError, match="nesting"):
            encoding.decode(data)

    @pytest.mark.parametrize(
        "value", ["\ud800", ["ok", "\udfff"], {"\ud800": 1}, {"k": "a\ud83d"}]
    )
    def test_lone_surrogate_raises_encoding_error(self, value):
        with pytest.raises(encoding.EncodingError, match="Unicode"):
            encoding.encode(value)
