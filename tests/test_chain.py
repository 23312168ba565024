"""Chain substrate tests: headers, genesis, difficulty, query semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.chain import HeaderChain
from repro.chain.difficulty import (
    BYZANTIUM_BLOCK,
    HOMESTEAD_BLOCK,
    MIN_DIFFICULTY,
    calc_difficulty,
)
from repro.chain.forks import DAO_FORK_BLOCK, DAO_FORK_EXTRA_DATA
from repro.chain.genesis import (
    MAINNET_GENESIS_HASH,
    custom_genesis,
    custom_genesis_hashes,
    mainnet_genesis,
)
from repro.chain.header import BlockHeader
from repro.chain.synthetic import SyntheticChain
from repro.errors import ChainError, InvalidHeader


class TestGenesis:
    def test_mainnet_genesis_hash_is_real(self):
        """Our RLP + Keccak reproduce the actual d4e567... genesis hash."""
        assert mainnet_genesis().hash() == MAINNET_GENESIS_HASH
        assert mainnet_genesis().hex_hash() == (
            "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3"
        )

    def test_custom_genesis_distinct_per_name(self):
        names = ["expanse", "musicoin", "pirl", "ubiq", "private-1"]
        hashes = {custom_genesis(name).hash() for name in names}
        assert len(hashes) == len(names)
        assert MAINNET_GENESIS_HASH not in hashes

    def test_custom_genesis_deterministic(self):
        assert custom_genesis("expanse").hash() == custom_genesis("expanse").hash()

    @pytest.mark.parametrize("tail", [0, 40])  # under / over the batch crossover
    def test_custom_genesis_hashes_match_per_name_path(self, tail):
        names = ["ropsten", "musicoin", "single-1", "single-1402", "custom-4076"]
        names += ["custom-4076-18829", "x" * 33, "ropsten"]  # >32 B name, a repeat
        names += [f"custom-{index}" for index in range(100, 100 + tail)]
        hashes = custom_genesis_hashes(iter(names))
        assert list(hashes) == list(dict.fromkeys(names))
        for name in names:
            assert hashes[name] == custom_genesis(name).hash()

    def test_custom_genesis_hashes_empty(self):
        assert custom_genesis_hashes([]) == {}


class TestDifficulty:
    def test_frontier_up_down(self):
        parent = 1 << 20
        up = calc_difficulty(parent, 1000, 1005, 100)
        down = calc_difficulty(parent, 1000, 1020, 100)
        assert up > parent > down

    def test_homestead_steps(self):
        parent = 1 << 24
        fast = calc_difficulty(parent, 0, 5, HOMESTEAD_BLOCK)
        slow = calc_difficulty(parent, 0, 25, HOMESTEAD_BLOCK)
        assert fast > slow

    def test_homestead_floor_at_minus_99(self):
        parent = 1 << 24
        very_slow = calc_difficulty(parent, 0, 10_000, HOMESTEAD_BLOCK)
        assert very_slow >= max(parent - parent // 2048 * 99, MIN_DIFFICULTY)

    def test_byzantium_uncle_bonus(self):
        parent = 1 << 24
        no_uncles = calc_difficulty(parent, 0, 10, BYZANTIUM_BLOCK)
        uncles = calc_difficulty(parent, 0, 10, BYZANTIUM_BLOCK, parent_has_uncles=True)
        assert uncles > no_uncles

    def test_byzantium_bomb_delay(self):
        """EIP-649 pushed the bomb back 3M blocks; difficulty drops at the fork."""
        parent = 1 << 30
        before = calc_difficulty(parent, 0, 15, BYZANTIUM_BLOCK - 1)
        after = calc_difficulty(parent, 0, 15, BYZANTIUM_BLOCK)
        assert after < before  # the 2^((n/100000)-2) term shrank dramatically

    def test_minimum_difficulty(self):
        assert calc_difficulty(MIN_DIFFICULTY, 0, 100, 10) >= MIN_DIFFICULTY

    def test_non_monotonic_timestamp_rejected(self):
        with pytest.raises(ValueError):
            calc_difficulty(1 << 20, 100, 100, 5)

    @settings(max_examples=30)
    @given(
        st.integers(min_value=MIN_DIFFICULTY, max_value=1 << 40),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=6_000_000),
    )
    def test_always_at_least_minimum(self, parent, delta, number):
        assert calc_difficulty(parent, 0, delta, number) >= MIN_DIFFICULTY


class TestHeaderChain:
    def test_mining_produces_valid_chain(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(20)
        assert chain.height == 20
        for number in range(1, 21):
            header = chain.header_at(number)
            header.validate_as_child_of(chain.header_at(number - 1))

    def test_total_difficulty_accumulates(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(5)
        expected = sum(chain.header_at(i).difficulty for i in range(6))
        assert chain.total_difficulty == expected

    def test_header_lookup_by_hash(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(3)
        header = chain.header_at(2)
        assert chain.header_by_hash(header.hash()) == header
        assert chain.header_by_hash(b"\x00" * 32) is None

    def test_append_rejects_tampered_header(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(1)
        orphan = chain.header_at(1).copy(number=5)
        with pytest.raises(InvalidHeader):
            chain.append(orphan)

    def test_append_rejects_wrong_difficulty(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(1)
        head = chain.head
        bad = head.copy(
            parent_hash=head.hash(),
            number=head.number + 1,
            timestamp=head.timestamp + 15,
            difficulty=head.difficulty + 12345,
        ).seal()
        with pytest.raises(InvalidHeader, match="difficulty"):
            chain.append(bad)

    def test_append_rejects_bad_pow(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(1)
        head = chain.head
        from repro.chain.difficulty import calc_difficulty

        unsealed = head.copy(
            parent_hash=head.hash(),
            number=head.number + 1,
            timestamp=head.timestamp + 15,
            difficulty=calc_difficulty(
                head.difficulty, head.timestamp, head.timestamp + 15, head.number + 1
            ),
            mix_hash=b"\x11" * 32,  # wrong seal
        )
        with pytest.raises(InvalidHeader, match="proof-of-work"):
            chain.append(unsealed)

    def test_genesis_must_be_block_zero(self):
        with pytest.raises(ChainError):
            HeaderChain(mainnet_genesis().copy(number=1))

    def test_get_block_headers_forward(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(20)
        headers = chain.get_block_headers(5, amount=4)
        assert [h.number for h in headers] == [5, 6, 7, 8]

    def test_get_block_headers_skip(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(20)
        headers = chain.get_block_headers(0, amount=5, skip=4)
        assert [h.number for h in headers] == [0, 5, 10, 15, 20]

    def test_get_block_headers_reverse(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(10)
        headers = chain.get_block_headers(5, amount=10, reverse=True)
        assert [h.number for h in headers] == [5, 4, 3, 2, 1, 0]

    def test_get_block_headers_by_hash(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(5)
        origin = chain.header_at(3).hash()
        headers = chain.get_block_headers(origin, amount=2)
        assert [h.number for h in headers] == [3, 4]

    def test_get_block_headers_unknown_hash(self):
        chain = HeaderChain(mainnet_genesis())
        assert chain.get_block_headers(b"\xee" * 32, amount=1) == []

    def test_get_block_headers_past_head_truncates(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(3)
        assert len(chain.get_block_headers(2, amount=10)) == 2

    def test_max_headers_cap(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(30)
        assert len(chain.get_block_headers(0, amount=1000, max_headers=8)) == 8


class TestSyntheticChain:
    def test_mainnet_genesis_pinned(self):
        chain = SyntheticChain("mainnet")
        assert chain.genesis_hash == MAINNET_GENESIS_HASH
        assert chain.block_hash(0) == MAINNET_GENESIS_HASH

    def test_parent_links_consistent(self):
        chain = SyntheticChain("mainnet")
        for number in (1, 1000, DAO_FORK_BLOCK, 5_000_000):
            header = chain.header_at(number)
            assert header.parent_hash == chain.block_hash(number - 1)
            assert header.number == number

    def test_distinct_chains_distinct_hashes(self):
        a = SyntheticChain("mainnet")
        b = SyntheticChain("expanse", network_id=2)
        assert a.block_hash(100) != b.block_hash(100)
        assert a.genesis_hash != b.genesis_hash

    def test_dao_stamp_only_on_fork_blocks(self):
        chain = SyntheticChain("mainnet", supports_dao_fork=True)
        assert chain.header_at(DAO_FORK_BLOCK).extra_data == DAO_FORK_EXTRA_DATA
        assert chain.header_at(DAO_FORK_BLOCK + 9).extra_data == DAO_FORK_EXTRA_DATA
        assert chain.header_at(DAO_FORK_BLOCK - 1).extra_data == b""
        assert chain.header_at(DAO_FORK_BLOCK + 10).extra_data == b""

    def test_total_difficulty_monotonic(self):
        chain = SyntheticChain("mainnet")
        assert chain.total_difficulty_at(100) < chain.total_difficulty_at(200)

    def test_advance_moves_head(self):
        chain = SyntheticChain("mainnet", height=100)
        old_best = chain.best_hash
        chain.advance(5)
        assert chain.height == 105
        assert chain.best_hash != old_best

    def test_warm_heights_matches_lazy_hashes(self):
        from repro.chain.synthetic import _HASH_MEMO

        chain = SyntheticChain("mainnet", height=5_000_000)
        lazy = {n: chain.block_hash(n) for n in (17, 4_999_913, 4_999_999)}
        # drop the memo entries so warm_heights recomputes them in batch
        for n in lazy:
            _HASH_MEMO.pop((chain._seed, n), None)
        warmed = chain.warm_heights([17, 4_999_913, 4_999_999, 0, -5])
        assert warmed == 3  # genesis/negative heights never hash
        for n, expected in lazy.items():
            assert chain.block_hash(n) == expected

    def test_warm_heights_skips_cached(self):
        chain = SyntheticChain("mainnet", height=1000)
        assert chain.warm_heights([500, 501]) == 2
        assert chain.warm_heights([500, 501]) == 0

    def test_warm_honours_the_memo_bound(self, monkeypatch):
        # the bulk path used to ignore the bound, leaving the next scalar
        # miss to enforce it by clearing the freshly-warmed entries too
        from repro.chain.synthetic import _HASH_MEMO, _HASH_MEMO_MAX

        assert _HASH_MEMO.limit == _HASH_MEMO_MAX
        monkeypatch.setattr(_HASH_MEMO, "limit", 64)
        _HASH_MEMO.clear()
        chain = SyntheticChain("mainnet", height=10_000)
        chain.warm_heights(range(1, 61))
        fresh = range(5000, 5020)
        assert chain.warm_heights(fresh) == 20  # 60 + 20 > 64: evict first
        assert len(_HASH_MEMO) <= 64
        assert all((chain._seed, n) in _HASH_MEMO for n in fresh)
        chain.block_hash(9_999)  # a scalar miss right after keeps them
        assert all((chain._seed, n) in _HASH_MEMO for n in fresh)

    def test_at_height_view(self):
        chain = SyntheticChain("mainnet", height=1000)
        stale = chain.at_height(400)
        assert stale.best_hash == chain.block_hash(400)
        assert stale.genesis_hash == chain.genesis_hash

    def test_get_block_headers_semantics(self):
        chain = SyntheticChain("mainnet", height=100)
        headers = chain.get_block_headers(10, amount=3, skip=1)
        assert [h.number for h in headers] == [10, 12, 14]
        by_head = chain.get_block_headers(chain.best_hash, amount=2, reverse=True)
        assert [h.number for h in by_head] == [100, 99]
        assert chain.get_block_headers(b"\x12" * 32, amount=1) == []

    def test_out_of_range_header(self):
        chain = SyntheticChain("mainnet", height=10)
        with pytest.raises(ChainError):
            chain.header_at(11)
        with pytest.raises(ChainError):
            chain.header_at(-1)

    def test_dao_check_request_shape(self):
        """The exact query NodeFinder sends (§4) returns the fork header."""
        chain = SyntheticChain("mainnet", supports_dao_fork=True)
        headers = chain.get_block_headers(DAO_FORK_BLOCK, amount=1, skip=0, reverse=False)
        assert len(headers) == 1
        assert headers[0].extra_data == DAO_FORK_EXTRA_DATA
