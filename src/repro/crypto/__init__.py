"""Cryptographic primitives for the Ethereum network stack, from scratch.

RLPx node identity and transport security rest on four primitives, all
implemented here in pure Python:

* Keccak-256 (:mod:`repro.crypto.keccak`) — node-ID hashing for the Kademlia
  distance metric, packet hashes, and frame MACs;
* secp256k1 (:mod:`repro.crypto.secp256k1`) — node keys, ECDSA with public
  key recovery (discv4 packets), and ECDH (handshake secrets);
* AES (:mod:`repro.crypto.aes`) — ECIES bulk cipher and RLPx frame cipher;
* ECIES (:mod:`repro.crypto.ecies`) — the asymmetric envelope protecting the
  RLPx auth/ack handshake, with NIST SP 800-56 concatenation KDF
  (:mod:`repro.crypto.kdf`).

:mod:`repro.crypto.keys` wraps these in ergonomic key/signature objects.
"""

from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.crypto.ecies import ecies_decrypt, ecies_encrypt

__all__ = [
    "Keccak256",
    "keccak256",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "ecies_encrypt",
    "ecies_decrypt",
]
