"""Block difficulty rules across Ethereum's 2015-2018 hard forks.

Implements the Frontier, Homestead (EIP-2), and Byzantium (EIP-100 /
EIP-649) difficulty formulas, including the exponential "difficulty bomb"
and Byzantium's 3,000,000-block bomb delay.  Used by header validation and
by the synthetic chains to produce realistic total-difficulty values in
STATUS messages.
"""

from __future__ import annotations

from repro.chain.forks import BYZANTIUM_BLOCK

HOMESTEAD_BLOCK = 1_150_000

MIN_DIFFICULTY = 131_072
_BOMB_DELAY_BYZANTIUM = 3_000_000


def calc_difficulty(
    parent_difficulty: int,
    parent_timestamp: int,
    timestamp: int,
    block_number: int,
    parent_has_uncles: bool = False,
) -> int:
    """Difficulty of the block at ``block_number`` given its parent."""
    if timestamp <= parent_timestamp:
        raise ValueError("block timestamp must exceed parent timestamp")
    adjustment_unit = parent_difficulty // 2048
    if block_number >= BYZANTIUM_BLOCK:
        # EIP-100: uncle-aware adjustment.
        uncle_term = 2 if parent_has_uncles else 1
        coefficient = max(uncle_term - (timestamp - parent_timestamp) // 9, -99)
        difficulty = parent_difficulty + adjustment_unit * coefficient
        bomb_number = max(block_number - _BOMB_DELAY_BYZANTIUM, 0)
    elif block_number >= HOMESTEAD_BLOCK:
        coefficient = max(1 - (timestamp - parent_timestamp) // 10, -99)
        difficulty = parent_difficulty + adjustment_unit * coefficient
        bomb_number = block_number
    else:
        if timestamp - parent_timestamp < 13:
            difficulty = parent_difficulty + adjustment_unit
        else:
            difficulty = parent_difficulty - adjustment_unit
        bomb_number = block_number
    period = bomb_number // 100_000
    if period >= 2:
        difficulty += 2 ** (period - 2)
    return max(difficulty, MIN_DIFFICULTY)
