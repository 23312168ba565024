"""Unit tests for the typed RLP sedes layer."""

import pytest

from repro.errors import DeserializationError
from repro.rlp import codec
from repro.rlp.sedes import (
    BigEndianInt,
    Binary,
    CountableList,
    RawSedes,
    Serializable,
    Text,
    big_endian_int,
    binary,
    hash32,
    text,
    uint16,
    uint256,
)


class TestBigEndianInt:
    def test_roundtrip(self):
        for value in (0, 1, 127, 128, 255, 256, 1 << 63, 1 << 255):
            assert big_endian_int.deserialize(big_endian_int.serialize(value)) == value

    def test_zero_is_empty(self):
        assert big_endian_int.serialize(0) == b""

    def test_minimal_encoding_enforced(self):
        with pytest.raises(DeserializationError):
            big_endian_int.deserialize(b"\x00\x01")

    def test_fixed_length(self):
        assert uint16.serialize(5) == b"\x00\x05"
        assert uint16.deserialize(b"\x00\x05") == 5

    def test_fixed_length_overflow(self):
        with pytest.raises(DeserializationError):
            uint16.serialize(1 << 16)

    def test_fixed_length_wrong_width(self):
        with pytest.raises(DeserializationError):
            uint16.deserialize(b"\x05")

    def test_negative_rejected(self):
        with pytest.raises(DeserializationError):
            big_endian_int.serialize(-3)

    def test_bool_rejected(self):
        with pytest.raises(DeserializationError):
            big_endian_int.serialize(True)

    def test_uint256_width(self):
        assert len(uint256.serialize(1)) == 32


class TestBinary:
    def test_roundtrip(self):
        assert binary.deserialize(binary.serialize(b"abc")) == b"abc"

    def test_fixed_length(self):
        sedes = Binary.fixed_length(4)
        assert sedes.serialize(b"abcd") == b"abcd"
        with pytest.raises(DeserializationError):
            sedes.serialize(b"abc")
        with pytest.raises(DeserializationError):
            sedes.serialize(b"abcde")

    def test_hash32(self):
        assert hash32.serialize(b"\x11" * 32) == b"\x11" * 32
        with pytest.raises(DeserializationError):
            hash32.serialize(b"\x11" * 31)

    def test_non_bytes_rejected(self):
        with pytest.raises(DeserializationError):
            binary.serialize("abc")


class TestTextAndBoolean:
    def test_text_roundtrip(self):
        assert text.deserialize(text.serialize("Geth/v1.8.11")) == "Geth/v1.8.11"

    def test_text_unicode(self):
        assert text.deserialize(text.serialize("节点")) == "节点"

    def test_text_invalid_utf8(self):
        with pytest.raises(DeserializationError):
            text.deserialize(b"\xff\xfe")


class TestContainers:
    def test_countable_list(self):
        sedes = CountableList(big_endian_int)
        assert sedes.deserialize(sedes.serialize([1, 2, 3])) == (1, 2, 3)
        assert sedes.deserialize(sedes.serialize([])) == ()

    def test_countable_list_max_length(self):
        sedes = CountableList(big_endian_int, max_length=2)
        with pytest.raises(DeserializationError):
            sedes.serialize([1, 2, 3])

    def test_raw_passthrough(self):
        raw = RawSedes()
        value = [b"a", [b"b", []]]
        assert raw.serialize(value) == value
        with pytest.raises(DeserializationError):
            raw.serialize([1])


class _Point(Serializable):
    fields = [("x", big_endian_int), ("y", big_endian_int)]


class _Flexible(Serializable):
    allow_extra_fields = True
    fields = [("a", big_endian_int)]


class TestSerializable:
    def test_positional_and_keyword_construction(self):
        assert _Point(1, 2) == _Point(x=1, y=2) == _Point(1, y=2)

    def test_missing_field(self):
        with pytest.raises(TypeError):
            _Point(1)

    def test_unknown_field(self):
        with pytest.raises(TypeError):
            _Point(x=1, y=2, z=3)

    def test_duplicate_field(self):
        with pytest.raises(TypeError):
            _Point(1, x=2, y=3)

    def test_encode_decode_roundtrip(self):
        point = _Point(x=3, y=4)
        assert _Point.decode(point.encode()) == point

    def test_equality_and_hash(self):
        assert _Point(1, 2) == _Point(1, 2)
        assert _Point(1, 2) != _Point(2, 1)

    def test_copy_with_overrides(self):
        point = _Point(1, 2).copy(y=9)
        assert (point.x, point.y) == (1, 9)

    def test_extra_fields_rejected_by_default(self):
        raw = codec.decode(codec.encode([b"\x01", b"\x02", b"\x03"]))
        with pytest.raises(DeserializationError):
            _Point.deserialize_rlp(raw)

    def test_extra_fields_allowed_when_opted_in(self):
        raw = codec.decode(codec.encode([b"\x05", b"\x06"]))
        message = _Flexible.deserialize_rlp(raw)
        assert message.a == 5

    def test_too_few_fields(self):
        with pytest.raises(DeserializationError):
            _Point.deserialize_rlp([b"\x01"])

    def test_non_list_rejected(self):
        with pytest.raises(DeserializationError):
            _Point.deserialize_rlp(b"\x01")

    def test_repr_contains_fields(self):
        assert "x=1" in repr(_Point(1, 2))

    def test_rlp_encode_of_serializable_object(self):
        # codec.encode falls back to serialize_rlp()
        assert codec.encode(_Point(1, 2)) == codec.encode([1, 2])
