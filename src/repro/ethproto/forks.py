"""The DAO-fork side check.

NodeFinder requests the DAO fork block's header (the height and stamp
live in :mod:`repro.chain.forks`) after the STATUS exchange and
classifies the peer by its ``extra_data`` (§4).
"""

from __future__ import annotations

from enum import Enum

from repro.chain.forks import DAO_FORK_BLOCK, DAO_FORK_EXTRA_DATA


class DaoForkSide(Enum):
    """Which side of the DAO fork a peer's chain is on."""

    SUPPORTS_FORK = "supports"       # mainstream Ethereum
    OPPOSES_FORK = "opposes"         # Ethereum Classic
    PRE_FORK = "pre-fork"            # chain too short to have the block
    UNKNOWN = "unknown"              # no/ambiguous answer


def dao_fork_side(extra_data: bytes | None, best_block: int | None = None) -> DaoForkSide:
    """Classify a peer from its DAO-fork-block header ``extra_data``.

    ``None`` means the peer returned no header; with a known ``best_block``
    below the fork height that is expected (PRE_FORK), otherwise UNKNOWN.
    """
    if extra_data is None:
        if best_block is not None and best_block < DAO_FORK_BLOCK:
            return DaoForkSide.PRE_FORK
        return DaoForkSide.UNKNOWN
    if extra_data == DAO_FORK_EXTRA_DATA:
        return DaoForkSide.SUPPORTS_FORK
    return DaoForkSide.OPPOSES_FORK
