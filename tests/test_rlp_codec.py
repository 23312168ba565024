"""Unit tests for the raw RLP codec against the Ethereum spec examples."""

import pytest

from repro.errors import DecodingError, EncodingError
from repro.rlp import codec


class TestSpecVectors:
    """The worked examples from the RLP spec / Yellow Paper appendix B."""

    def test_dog(self):
        assert codec.encode(b"dog") == b"\x83dog"

    def test_cat_dog_list(self):
        assert codec.encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"

    def test_empty_string(self):
        assert codec.encode(b"") == b"\x80"

    def test_empty_list(self):
        assert codec.encode([]) == b"\xc0"

    def test_integer_zero(self):
        assert codec.encode(0) == b"\x80"

    def test_encoded_integer(self):
        assert codec.encode(b"\x04\x00") == b"\x82\x04\x00"

    def test_single_byte_below_0x80(self):
        assert codec.encode(b"\x0f") == b"\x0f"
        assert codec.encode(b"\x7f") == b"\x7f"

    def test_single_byte_at_0x80(self):
        assert codec.encode(b"\x80") == b"\x81\x80"

    def test_set_theoretic_representation(self):
        # [ [], [[]], [ [], [[]] ] ]
        value = [[], [[]], [[], [[]]]]
        assert codec.encode(value) == bytes.fromhex("c7c0c1c0c3c0c1c0")

    def test_lorem_ipsum_long_string(self):
        text = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit"
        assert codec.encode(text) == b"\xb8\x38" + text

    def test_56_byte_string_uses_long_form(self):
        data = b"a" * 56
        encoded = codec.encode(data)
        assert encoded[0] == 0xB8
        assert encoded[1] == 56

    def test_55_byte_string_uses_short_form(self):
        data = b"a" * 55
        assert codec.encode(data)[0] == 0x80 + 55


class TestEncodeTypes:
    def test_int(self):
        assert codec.encode(15) == b"\x0f"
        assert codec.encode(1024) == b"\x82\x04\x00"

    def test_negative_int_rejected(self):
        with pytest.raises(EncodingError):
            codec.encode(-1)

    def test_str_utf8(self):
        assert codec.encode("dog") == b"\x83dog"

    def test_bool(self):
        assert codec.encode(True) == b"\x01"
        assert codec.encode(False) == b"\x80"

    def test_nested_tuple(self):
        assert codec.encode(((b"a",), b"b")) == codec.encode([[b"a"], b"b"])

    def test_bytearray_and_memoryview(self):
        assert codec.encode(bytearray(b"dog")) == b"\x83dog"
        assert codec.encode(memoryview(b"dog")) == b"\x83dog"

    def test_unencodable_type(self):
        with pytest.raises(EncodingError):
            codec.encode(1.5)

    def test_dict_rejected(self):
        with pytest.raises(EncodingError):
            codec.encode({"a": 1})


class TestDecode:
    def test_roundtrip_simple(self):
        for value in (b"", b"d", b"dog", b"x" * 100, b"y" * 60000):
            assert codec.decode(codec.encode(value)) == value

    def test_roundtrip_nested(self):
        value = [b"cat", [b"puppy", b"cow"], b"horse", [[]], b"pig", [b""], b"sheep"]
        assert codec.decode(codec.encode(value)) == value

    def test_long_list(self):
        value = [b"x" * 10] * 100
        assert codec.decode(codec.encode(value)) == value

    def test_empty_input(self):
        with pytest.raises(DecodingError):
            codec.decode(b"")

    def test_trailing_bytes_strict(self):
        with pytest.raises(DecodingError):
            codec.decode(codec.encode(b"dog") + b"x")

    def test_trailing_bytes_lenient(self):
        assert codec.decode(codec.encode(b"dog") + b"x", strict=False) == b"dog"

    def test_truncated_string(self):
        with pytest.raises(DecodingError):
            codec.decode(b"\x83do")

    def test_truncated_list(self):
        with pytest.raises(DecodingError):
            codec.decode(b"\xc8\x83cat")

    def test_non_canonical_single_byte(self):
        # 0x81 0x05 must be rejected: 0x05 encodes itself.
        with pytest.raises(DecodingError):
            codec.decode(b"\x81\x05")

    def test_non_canonical_long_length(self):
        # long form used for a short payload
        with pytest.raises(DecodingError):
            codec.decode(b"\xb8\x01a")

    def test_leading_zero_in_long_length(self):
        with pytest.raises(DecodingError):
            codec.decode(b"\xb9\x00\x38" + b"a" * 56)

    def test_decode_lazy_reports_consumed(self):
        encoded = codec.encode(b"dog")
        item, consumed = codec.decode_lazy(encoded + b"rest")
        assert item == b"dog"
        assert consumed == len(encoded)

    def test_decode_non_bytes(self):
        with pytest.raises(DecodingError):
            codec.decode("dog")  # type: ignore[arg-type]

    def test_length_prefix_past_end(self):
        with pytest.raises(DecodingError):
            codec.decode(b"\xb9\x12")
