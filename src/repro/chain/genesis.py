"""Genesis block constructors.

:func:`mainnet_genesis` rebuilds the *real* Ethereum Mainnet genesis header
field-for-field; its hash must come out as the famous
``d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3``
(paper §2.3) — a strong known-answer test for our RLP codec and Keccak.

:func:`custom_genesis` mints genesis headers for the thousands of
alternative networks the paper observes (Figure 9): Ethereum Classic shares
Mainnet's genesis, while Expanse, Musicoin, Pirl, Ubiq, private chains, and
misconfigured one-off networks each have their own.
"""

from __future__ import annotations

from typing import Iterable

from repro.chain.header import EMPTY_UNCLES_HASH, BlockHeader
from repro.crypto.keccak import keccak256, keccak256_batch
from repro.rlp import codec

#: The real Mainnet genesis hash.
MAINNET_GENESIS_HASH = bytes.fromhex(
    "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3"
)

_MAINNET_STATE_ROOT = bytes.fromhex(
    "d7f8974fb5ac78d9ac099b9ad5018bedc2ce0a72dad1827a1709da30580f0544"
)
_EMPTY_TRIE_ROOT = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)
_MAINNET_EXTRA_DATA = bytes.fromhex(
    "11bbe8db4e347b4e8c937c1c8370e4b5ed33adb3db69cbdb7a38e1e50b1b82fa"
)
_MAINNET_NONCE = bytes.fromhex("0000000000000042")
_MAINNET_DIFFICULTY = 0x400000000  # 17,179,869,184


def mainnet_genesis() -> BlockHeader:
    """The genuine Ethereum Mainnet genesis header."""
    return BlockHeader(
        parent_hash=b"\x00" * 32,
        uncles_hash=EMPTY_UNCLES_HASH,
        coinbase=b"\x00" * 20,
        state_root=_MAINNET_STATE_ROOT,
        tx_root=_EMPTY_TRIE_ROOT,
        receipt_root=_EMPTY_TRIE_ROOT,
        bloom=b"\x00" * 256,
        difficulty=_MAINNET_DIFFICULTY,
        number=0,
        gas_limit=5000,
        gas_used=0,
        timestamp=0,
        extra_data=_MAINNET_EXTRA_DATA,
        mix_hash=b"\x00" * 32,
        nonce=_MAINNET_NONCE,
    )


def custom_genesis(
    chain_name: str,
    difficulty: int = 0x20000,
    gas_limit: int = 5000,
    timestamp: int = 0,
    *,
    seed: bytes | None = None,
) -> BlockHeader:
    """A deterministic genesis for a named alternative network.

    The chain name is folded into ``extra_data`` and the state root, so
    every distinct name yields a distinct genesis hash — mirroring the
    18,829 genesis hashes the paper observed (§6.1).  ``seed`` is the
    name's ``genesis:`` keccak when the caller already has it (the batch
    path below); left out, it is computed here.
    """
    if seed is None:
        seed = keccak256(b"genesis:" + chain_name.encode("utf-8"))
    return BlockHeader(
        parent_hash=b"\x00" * 32,
        uncles_hash=EMPTY_UNCLES_HASH,
        coinbase=b"\x00" * 20,
        state_root=seed,
        tx_root=_EMPTY_TRIE_ROOT,
        receipt_root=_EMPTY_TRIE_ROOT,
        bloom=b"\x00" * 256,
        difficulty=difficulty,
        number=0,
        gas_limit=gas_limit,
        gas_used=0,
        timestamp=timestamp,
        extra_data=chain_name.encode("utf-8")[:32],
        mix_hash=b"\x00" * 32,
        nonce=b"\x00" * 8,
    )


def custom_genesis_hashes(chain_names: Iterable[str]) -> dict[str, bytes]:
    """``{name: custom_genesis(name).hash()}`` for many names at once.

    Two vectorised keccak passes — one over the ``genesis:`` seeds, one
    over the RLP-encoded headers — instead of five scalar permutations
    per name; a world build resolves its whole long tail of custom
    networks through this.  Byte-identical to the per-name path.
    """
    names = list(dict.fromkeys(chain_names))
    seeds = keccak256_batch([b"genesis:" + name.encode("utf-8") for name in names])
    encoded = [
        codec.encode(custom_genesis(name, seed=seed).serialize_rlp())
        for name, seed in zip(names, seeds)
    ]
    return dict(zip(names, keccak256_batch(encoded)))
