"""Property-based tests for the RLP codec (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.rlp import codec

rlp_items = st.recursive(
    st.binary(max_size=80),
    lambda children: st.lists(children, max_size=6),
    max_leaves=40,
)


@given(rlp_items)
def test_roundtrip_any_structure(item):
    assert codec.decode(codec.encode(item)) == item


@given(st.binary(max_size=3000))
def test_roundtrip_any_bytes(data):
    assert codec.decode(codec.encode(data)) == data


@given(st.integers(min_value=0, max_value=1 << 512))
def test_roundtrip_int_via_bytes(value):
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    assert int.from_bytes(decoded, "big") == value


@given(rlp_items, rlp_items)
def test_encoding_is_injective(a, b):
    if codec.encode(a) == codec.encode(b):
        assert a == b


@given(st.lists(st.binary(max_size=20), max_size=20))
def test_list_prefix_parses_as_list(items):
    encoded = codec.encode(items)
    assert encoded[0] >= 0xC0  # a list prefix
    assert codec.decode(encoded) == items


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=200))
def test_decode_never_crashes_unstructured(data):
    """Arbitrary bytes either decode cleanly or raise DecodingError."""
    from repro.errors import DecodingError

    try:
        codec.decode(data)
    except DecodingError:
        pass


@given(rlp_items)
def test_decode_lazy_consumes_exactly(item):
    encoded = codec.encode(item)
    decoded, consumed = codec.decode_lazy(encoded)
    assert decoded == item
    assert consumed == len(encoded)
