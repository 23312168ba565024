"""Recursive Length Prefix (RLP) serialisation.

RLP is Ethereum's canonical wire encoding: every payload in discv4, the RLPx
handshake, DEVp2p, and the eth subprotocol is RLP.  This package provides the
raw codec (:mod:`repro.rlp.codec`) plus a small typed-serialiser ("sedes")
layer (:mod:`repro.rlp.sedes`) used to declare message schemas.
"""

from repro.rlp.codec import decode, decode_lazy, encode, encode_length
from repro.rlp.sedes import (
    BigEndianInt,
    Binary,
    CountableList,
    RawSedes,
    Serializable,
    Text,
    address,
    big_endian_int,
    binary,
    hash32,
    raw,
    text,
    uint8,
    uint16,
    uint32,
    uint64,
    uint256,
)

__all__ = [
    "encode",
    "decode",
    "decode_lazy",
    "encode_length",
    "BigEndianInt",
    "Binary",
    "CountableList",
    "RawSedes",
    "Serializable",
    "Text",
    "address",
    "big_endian_int",
    "binary",
    "hash32",
    "raw",
    "text",
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "uint256",
]
