"""Node records and ``enode://`` URLs.

An Ethereum node is identified by ``enode://<node-id-hex>@<ip>:<tcp-port>``
with an optional ``?discport=<udp-port>`` when the discovery port differs.
The node ID is the 64-byte uncompressed secp256k1 public key in hex.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from functools import lru_cache
from urllib.parse import urlparse, parse_qs

from repro.crypto.keccak import KeccakMemo
from repro.errors import DiscoveryError

_NODE_ID_RE = re.compile(r"^[0-9a-fA-F]{128}$")


_ID_HASH_MEMO = KeccakMemo(limit=262_144)

#: ``cached_id_hash(node_id)`` — keccak of a node ID, memoised: hot in
#: routing tables and simulations.  The memo's own ``__getitem__``, so a
#: hit costs one C-level dict lookup.
cached_id_hash = _ID_HASH_MEMO.__getitem__

#: ``warm_id_hashes(node_ids)`` — hash a whole population's IDs into the
#: memo in one vectorised pass (a world build knows them all up front).
warm_id_hashes = _ID_HASH_MEMO.warm


@lru_cache(maxsize=262_144)
def cached_id_hash_int(node_id: bytes) -> int:
    """The DHT address of a node ID as an integer, for XOR-distance keys."""
    return int.from_bytes(cached_id_hash(node_id), "big")


@dataclass(frozen=True)
class ENode:
    """An addressable node: 64-byte node ID plus IP and ports."""

    node_id: bytes
    ip: str
    udp_port: int
    tcp_port: int

    def __post_init__(self) -> None:
        if len(self.node_id) != 64:
            raise DiscoveryError(
                f"node ID must be 64 bytes, got {len(self.node_id)}"
            )
        ipaddress.ip_address(self.ip)  # raises ValueError on junk
        for port in (self.udp_port, self.tcp_port):
            if not 0 <= port <= 65535:
                raise DiscoveryError(f"port {port} out of range")

    @property
    def id_hash(self) -> bytes:
        """Keccak-256 of the node ID — the DHT address of this node."""
        return cached_id_hash(self.node_id)

    @property
    def udp_address(self) -> tuple[str, int]:
        return (self.ip, self.udp_port)

    def to_url(self) -> str:
        host = f"[{self.ip}]" if ":" in self.ip else self.ip
        url = f"enode://{self.node_id.hex()}@{host}:{self.tcp_port}"
        if self.udp_port != self.tcp_port:
            url += f"?discport={self.udp_port}"
        return url

    def short_id(self) -> str:
        """First 8 hex chars of the node ID, for logs."""
        return self.node_id.hex()[:8]


def parse_enode_url(url: str) -> ENode:
    """Parse an ``enode://`` URL into an :class:`ENode`.

    Raises :class:`~repro.errors.DiscoveryError` for anything malformed.
    """
    parsed = urlparse(url)
    if parsed.scheme != "enode":
        raise DiscoveryError(f"expected enode:// URL, got {url!r}")
    if not parsed.username or not _NODE_ID_RE.match(parsed.username):
        raise DiscoveryError("enode URL must carry a 128-hex-char node ID")
    if parsed.hostname is None or parsed.port is None:
        raise DiscoveryError("enode URL must carry host and port")
    node_id = bytes.fromhex(parsed.username)
    tcp_port = parsed.port
    udp_port = tcp_port
    if parsed.query:
        params = parse_qs(parsed.query)
        discport = params.get("discport")
        if discport:
            try:
                udp_port = int(discport[0])
            except ValueError as exc:
                raise DiscoveryError(f"bad discport: {discport[0]!r}") from exc
    try:
        return ENode(node_id=node_id, ip=parsed.hostname, udp_port=udp_port, tcp_port=tcp_port)
    except ValueError as exc:
        raise DiscoveryError(f"bad IP address in enode URL: {exc}") from exc
