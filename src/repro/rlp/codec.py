"""The raw RLP codec.

RLP encodes two kinds of items: byte strings and (arbitrarily nested) lists of
items.  The rules, from Appendix B of the Yellow Paper:

* a single byte below ``0x80`` is its own encoding;
* a string of 0-55 bytes is prefixed with ``0x80 + len``;
* a longer string is prefixed with ``0xb7 + len(len)`` and the big-endian
  length;
* a list whose encoded payload is 0-55 bytes is prefixed with ``0xc0 + len``;
* a longer list is prefixed with ``0xf7 + len(len)`` and the big-endian
  length.

Decoding enforces canonical form: no leading zeros in long lengths, no long
form where short form would fit, and no trailing bytes.
"""

from __future__ import annotations

from typing import Union

from repro.errors import DecodingError, EncodingError

RLPItem = Union[bytes, "list[RLPItem]"]

SHORT_STRING = 0x80
LONG_STRING = 0xB7
SHORT_LIST = 0xC0
LONG_LIST = 0xF7
MAX_SHORT_LENGTH = 55


def encode_length(length: int, offset: int) -> bytes:
    """Return the RLP length prefix for a payload of ``length`` bytes.

    ``offset`` is ``0x80`` for strings and ``0xc0`` for lists.
    """
    if length <= MAX_SHORT_LENGTH:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    if len(length_bytes) > 8:
        raise EncodingError(f"payload too long for RLP: {length} bytes")
    return bytes([offset + MAX_SHORT_LENGTH + len(length_bytes)]) + length_bytes


def _encode_item(item: object) -> bytes:
    if isinstance(item, (bytes, bytearray, memoryview)):
        data = bytes(item)
        if len(data) == 1 and data[0] < SHORT_STRING:
            return data
        return encode_length(len(data), SHORT_STRING) + data
    if isinstance(item, str):
        return _encode_item(item.encode("utf-8"))
    if isinstance(item, bool):
        # bool must be checked before int: encode as 0x01 / empty string.
        return _encode_item(b"\x01" if item else b"")
    if isinstance(item, int):
        if item < 0:
            raise EncodingError(f"cannot RLP-encode negative integer {item}")
        if item == 0:
            return _encode_item(b"")
        return _encode_item(item.to_bytes((item.bit_length() + 7) // 8, "big"))
    if isinstance(item, (list, tuple)):
        payload = b"".join(_encode_item(sub) for sub in item)
        return encode_length(len(payload), SHORT_LIST) + payload
    # Serializable objects carry their own sedes.
    serialize = getattr(item, "serialize_rlp", None)
    if serialize is not None:
        return _encode_item(serialize())
    raise EncodingError(f"cannot RLP-encode object of type {type(item).__name__}")


def encode(item: object) -> bytes:
    """RLP-encode ``item``.

    Accepts bytes-likes, ``str`` (UTF-8), non-negative ``int`` (big-endian,
    minimal), ``bool``, nested lists/tuples of the above, and any object with
    a ``serialize_rlp()`` method (see :class:`repro.rlp.sedes.Serializable`).
    """
    return _encode_item(item)


def _decode_length(data: bytes, pos: int) -> tuple[int, int, bool]:
    """Return ``(payload_offset, payload_length, is_list)`` for item at ``pos``."""
    if pos >= len(data):
        raise DecodingError("unexpected end of input")
    prefix = data[pos]
    if prefix < SHORT_STRING:
        return pos, 1, False
    if prefix <= LONG_STRING:
        length = prefix - SHORT_STRING
        if length == 1 and pos + 1 < len(data) and data[pos + 1] < SHORT_STRING:
            raise DecodingError("single byte below 0x80 must encode itself")
        return pos + 1, length, False
    if prefix < SHORT_LIST:
        length_size = prefix - LONG_STRING
        length = _read_long_length(data, pos + 1, length_size)
        return pos + 1 + length_size, length, False
    if prefix <= LONG_LIST:
        return pos + 1, prefix - SHORT_LIST, True
    length_size = prefix - LONG_LIST
    length = _read_long_length(data, pos + 1, length_size)
    return pos + 1 + length_size, length, True


def _read_long_length(data: bytes, pos: int, size: int) -> int:
    if pos + size > len(data):
        raise DecodingError("length prefix extends past end of input")
    raw_len = data[pos : pos + size]
    if raw_len[0] == 0:
        raise DecodingError("length prefix has leading zero byte")
    length = int.from_bytes(raw_len, "big")
    if length <= MAX_SHORT_LENGTH:
        raise DecodingError("long length form used for short payload")
    return length


def _decode_item(data: bytes, pos: int) -> tuple[RLPItem, int]:
    offset, length, is_list = _decode_length(data, pos)
    end = offset + length
    if end > len(data):
        raise DecodingError("payload extends past end of input")
    if not is_list:
        return data[offset:end], end
    items: list[RLPItem] = []
    cursor = offset
    while cursor < end:
        item, cursor = _decode_item(data, cursor)
        if cursor > end:
            raise DecodingError("list item extends past end of list payload")
        items.append(item)
    return items, end


def decode(data: bytes, strict: bool = True) -> RLPItem:
    """Decode one RLP item from ``data``.

    With ``strict=True`` (default) trailing bytes raise
    :class:`~repro.errors.DecodingError`.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DecodingError(f"RLP input must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data:
        raise DecodingError("cannot decode empty byte string")
    item, end = _decode_item(data, 0)
    if strict and end != len(data):
        raise DecodingError(f"{len(data) - end} trailing bytes after RLP item")
    return item


def decode_lazy(data: bytes) -> tuple[RLPItem, int]:
    """Decode one RLP item and also return how many bytes it consumed."""
    if not data:
        raise DecodingError("cannot decode empty byte string")
    return _decode_item(bytes(data), 0)
