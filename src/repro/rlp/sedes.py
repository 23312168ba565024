"""Typed RLP serialisers ("sedes").

A sedes converts between a Python value and the raw RLP structure (bytes /
nested lists) understood by :mod:`repro.rlp.codec`.  Message schemas across
the stack (discv4 packets, DEVp2p HELLO, eth STATUS, block headers, ...) are
declared as :class:`Serializable` subclasses with a ``fields`` list, matching
how Geth and pyrlp declare theirs.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

from repro.errors import DeserializationError
from repro.rlp import codec


class Sedes:
    """Abstract base: ``serialize`` to raw RLP structure, ``deserialize`` back."""

    def serialize(self, obj: Any) -> Any:
        raise NotImplementedError

    def deserialize(self, serial: Any) -> Any:
        raise NotImplementedError


class BigEndianInt(Sedes):
    """Non-negative integer as minimal big-endian bytes.

    ``length`` pins the serialised width (e.g. 32 for a uint256 field);
    ``None`` allows any width.
    """

    def __init__(self, length: int | None = None) -> None:
        self.length = length

    def serialize(self, obj: Any) -> bytes:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise DeserializationError(f"expected int, got {type(obj).__name__}")
        if obj < 0:
            raise DeserializationError(f"cannot serialize negative int {obj}")
        if self.length is not None:
            if obj >= 1 << (8 * self.length):
                raise DeserializationError(
                    f"{obj} does not fit in {self.length} bytes"
                )
            return obj.to_bytes(self.length, "big")
        if obj == 0:
            return b""
        return obj.to_bytes((obj.bit_length() + 7) // 8, "big")

    def deserialize(self, serial: Any) -> int:
        if not isinstance(serial, bytes):
            raise DeserializationError("expected byte string for integer field")
        if self.length is not None and len(serial) != self.length:
            raise DeserializationError(
                f"expected {self.length} bytes, got {len(serial)}"
            )
        if self.length is None and serial.startswith(b"\x00"):
            raise DeserializationError("integer field has leading zero byte")
        return int.from_bytes(serial, "big")


class Binary(Sedes):
    """Byte string, optionally with length bounds."""

    def __init__(
        self, min_length: int = 0, max_length: int | None = None, allow_empty: bool = True
    ) -> None:
        self.min_length = min_length
        self.max_length = max_length
        self.allow_empty = allow_empty

    @classmethod
    def fixed_length(cls, length: int) -> "Binary":
        """A byte string of exactly ``length`` bytes."""
        return cls(min_length=length, max_length=length)

    def _check(self, data: bytes) -> bytes:
        if not data and self.allow_empty and self.min_length == 0:
            return data
        if len(data) < self.min_length:
            raise DeserializationError(
                f"byte string too short: {len(data)} < {self.min_length}"
            )
        if self.max_length is not None and len(data) > self.max_length:
            raise DeserializationError(
                f"byte string too long: {len(data)} > {self.max_length}"
            )
        return data

    def serialize(self, obj: Any) -> bytes:
        if not isinstance(obj, (bytes, bytearray, memoryview)):
            raise DeserializationError(f"expected bytes, got {type(obj).__name__}")
        return self._check(bytes(obj))

    def deserialize(self, serial: Any) -> bytes:
        if not isinstance(serial, bytes):
            raise DeserializationError("expected byte string")
        return self._check(serial)


class Text(Sedes):
    """UTF-8 string."""

    def serialize(self, obj: Any) -> bytes:
        if not isinstance(obj, str):
            raise DeserializationError(f"expected str, got {type(obj).__name__}")
        return obj.encode("utf-8")

    def deserialize(self, serial: Any) -> str:
        if not isinstance(serial, bytes):
            raise DeserializationError("expected byte string for text field")
        try:
            return serial.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DeserializationError(f"invalid UTF-8: {exc}") from exc


class CountableList(Sedes):
    """Homogeneous list of any length."""

    def __init__(self, element_sedes: Sedes, max_length: int | None = None) -> None:
        self.element_sedes = element_sedes
        self.max_length = max_length

    def serialize(self, obj: Any) -> list:
        if not isinstance(obj, (list, tuple)):
            raise DeserializationError("expected list or tuple")
        if self.max_length is not None and len(obj) > self.max_length:
            raise DeserializationError(
                f"list too long: {len(obj)} > {self.max_length}"
            )
        return [self.element_sedes.serialize(item) for item in obj]

    def deserialize(self, serial: Any) -> tuple:
        if not isinstance(serial, list):
            raise DeserializationError("expected RLP list")
        if self.max_length is not None and len(serial) > self.max_length:
            raise DeserializationError(
                f"list too long: {len(serial)} > {self.max_length}"
            )
        return tuple(self.element_sedes.deserialize(item) for item in serial)


class RawSedes(Sedes):
    """Pass-through: value must already be a raw RLP structure."""

    def _check(self, obj: Any) -> Any:
        if isinstance(obj, bytes):
            return obj
        if isinstance(obj, (list, tuple)):
            return [self._check(item) for item in obj]
        raise DeserializationError(
            f"raw sedes accepts bytes / nested lists only, got {type(obj).__name__}"
        )

    def serialize(self, obj: Any) -> Any:
        return self._check(obj)

    def deserialize(self, serial: Any) -> Any:
        return self._check(serial)


class Serializable:
    """Base for RLP message/record classes declared via ``fields``.

    Subclasses set::

        fields = [("field_name", sedes_instance), ...]

    and gain keyword construction, equality, ``serialize_rlp()`` /
    ``deserialize_rlp()``, and ``encode()`` / ``decode()``.
    Extra trailing RLP elements are tolerated on decode when
    ``allow_extra_fields`` is True (forward compatibility, as Geth does for
    HELLO and STATUS).
    """

    fields: ClassVar[Sequence[tuple[str, Sedes]]] = ()
    allow_extra_fields: ClassVar[bool] = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        field_names = [name for name, _ in self.fields]
        if len(args) > len(field_names):
            raise TypeError(
                f"{type(self).__name__} takes {len(field_names)} arguments"
            )
        values = dict(zip(field_names, args))
        for name, value in kwargs.items():
            if name not in field_names:
                raise TypeError(f"unknown field {name!r} for {type(self).__name__}")
            if name in values:
                raise TypeError(f"duplicate value for field {name!r}")
            values[name] = value
        missing = [name for name in field_names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__} missing fields: {missing}")
        for name in field_names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # Compare list- and tuple-valued fields interchangeably: decoding
        # yields tuples where constructors often receive lists.
        return all(
            _hashable(getattr(self, name)) == _hashable(getattr(other, name))
            for name, _ in self.fields
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name, _ in self.fields
        )
        return f"{type(self).__name__}({parts})"

    def copy(self, **overrides: Any) -> "Serializable":
        """Return a copy with ``overrides`` applied."""
        values = {name: getattr(self, name) for name, _ in self.fields}
        values.update(overrides)
        return type(self)(**values)

    def serialize_rlp(self) -> list:
        """Return the raw RLP structure (list of serialised fields)."""
        return [sedes.serialize(getattr(self, name)) for name, sedes in self.fields]

    @classmethod
    def deserialize_rlp(cls, serial: Any) -> "Serializable":
        if not isinstance(serial, list):
            raise DeserializationError(f"{cls.__name__}: expected RLP list")
        if len(serial) < len(cls.fields):
            raise DeserializationError(
                f"{cls.__name__}: expected {len(cls.fields)} fields, "
                f"got {len(serial)}"
            )
        if len(serial) > len(cls.fields) and not cls.allow_extra_fields:
            raise DeserializationError(
                f"{cls.__name__}: {len(serial) - len(cls.fields)} extra fields"
            )
        values = {
            name: sedes.deserialize(item)
            for (name, sedes), item in zip(cls.fields, serial)
        }
        return cls(**values)

    def encode(self) -> bytes:
        """RLP-encode this object."""
        return codec.encode(self.serialize_rlp())

    @classmethod
    def decode(cls, data: bytes) -> "Serializable":
        """Decode ``data`` as an instance of this class."""
        return cls.deserialize_rlp(codec.decode(data))


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, tuple):
        return tuple(_hashable(item) for item in value)
    return value


# Shared singletons used across message schemas.
big_endian_int = BigEndianInt()
uint8 = BigEndianInt(1)
uint16 = BigEndianInt(2)
uint32 = BigEndianInt(4)
uint64 = BigEndianInt(8)
uint256 = BigEndianInt(32)
binary = Binary()
text = Text()
raw = RawSedes()
address = Binary.fixed_length(20)
hash32 = Binary.fixed_length(32)
