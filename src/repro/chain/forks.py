"""Fork heights the measurement reads, and the DAO-fork header stamp.

The DAO fork (paper §2.3 footnote 3) split Mainnet on 2016-07-20 at block
1,920,000: pro-fork clients stamp that block's ``extra_data`` with the ASCII
string ``dao-hard-fork``; Ethereum Classic clients do not.

Byzantium activated at block 4,370,000; Figure 14 finds nodes stuck at
4,370,001 because they run pre-Byzantium clients (§6.2, §7.3).
"""

from __future__ import annotations

DAO_FORK_BLOCK = 1_920_000
DAO_FORK_EXTRA_DATA = b"dao-hard-fork"

BYZANTIUM_BLOCK = 4_370_000
