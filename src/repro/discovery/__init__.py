"""RLPx node discovery (discv4): Kademlia-style DHT over UDP.

Ethereum peers find each other through a modified Kademlia protocol
("discovery v4"): node IDs are 512-bit secp256k1 public keys, distance is the
floor-log2 of the XOR of the Keccak-256 hashes of node IDs (257 distinct
buckets), and the only supported operations are PING/PONG liveness checks
and FIND_NODE/NEIGHBORS routing queries — no data storage.

Modules:

* :mod:`repro.discovery.enode` — node records and ``enode://`` URLs;
* :mod:`repro.discovery.distance` — Geth's correct log-distance and Parity's
  buggy per-byte variant (paper §6.3 / Appendix A);
* :mod:`repro.discovery.kbucket` / :mod:`repro.discovery.routing` — the
  routing table with Kademlia's old-node-favouring eviction;
* :mod:`repro.discovery.packets` — signed discv4 datagrams;
* :mod:`repro.discovery.lookup` — the iterative lookup itself, free of IO
  (frontier, stop rule, round cap), for every driver;
* :mod:`repro.discovery.protocol` — asyncio UDP endpoint with bonding, and
  the lookup driven over it.
"""

from repro.discovery.distance import (
    geth_log_distance,
    log_distance_of_xor,
    parity_log_distance,
    xor_distance,
)
from repro.discovery.enode import ENode, parse_enode_url
from repro.discovery.kbucket import KBucket
from repro.discovery.routing import RoutingTable
from repro.discovery.packets import (
    FindNodePacket,
    NeighborsPacket,
    PingPacket,
    PongPacket,
    decode_packet,
    encode_packet,
)

__all__ = [
    "ENode",
    "parse_enode_url",
    "geth_log_distance",
    "parity_log_distance",
    "log_distance_of_xor",
    "xor_distance",
    "KBucket",
    "RoutingTable",
    "PingPacket",
    "PongPacket",
    "FindNodePacket",
    "NeighborsPacket",
    "encode_packet",
    "decode_packet",
]
