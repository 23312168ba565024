"""Figure 11: Geth vs Parity node-distance distributions (§6.3).

Paper shape (100K trials): Geth's log distance concentrates at 256 with
P(256-k) = 2^-(k+1); Parity's summed-byte distance forms a bell centred
near 224 and essentially never reaches 256.  This is an exact,
protocol-level reproduction — same metrics, same Monte-Carlo.
"""

from conftest import emit

from repro.analysis.distance import simulate_distance_distribution
from repro.render import format_table
from repro.datasets import reference

TRIALS = 100_000  # the paper's count; direct hash sampling keeps it fast


def test_fig11_distance_distribution(benchmark):
    dist = benchmark.pedantic(
        simulate_distance_distribution,
        kwargs={"trials": TRIALS, "hash_ids": False},
        rounds=1,
        iterations=1,
    )
    rows = []
    for distance in range(200, 257, 4):
        rows.append(
            (
                distance,
                f"{dist.geth.get(distance, 0) / TRIALS:.4f}",
                f"{dist.parity.get(distance, 0) / TRIALS:.4f}",
            )
        )
    lines = [
        format_table(
            f"Figure 11 — log-distance distribution ({TRIALS:,} trials, "
            f"paper used {reference.FIGURE11_TRIALS:,})",
            ["distance", "geth P", "parity P"],
            rows,
        ),
        f"geth mode {dist.geth_mode()} (paper: 256); "
        f"parity mode {dist.parity_mode()} (paper: ~224)",
    ]
    emit("fig11_distance_distribution", "\n".join(lines))
    assert dist.geth_mode() == 256
    assert 218 <= dist.parity_mode() <= 230
    # Geth's geometric tail
    assert abs(dist.geth[256] / TRIALS - 0.5) < 0.01
    assert abs(dist.geth[255] / TRIALS - 0.25) < 0.01
    assert abs(dist.geth[254] / TRIALS - 0.125) < 0.01
    # Parity almost never reports 256 (requires every byte >= 0x80)
    assert dist.parity.get(256, 0) / TRIALS < 1e-3
    # Parity's spread: nontrivial mass across tens of distance values
    assert len([d for d, c in dist.parity.items() if c > TRIALS * 0.001]) > 25


def test_fig11_with_real_id_hashing(benchmark):
    """The same distribution with 64-byte IDs hashed through our Keccak."""
    dist = benchmark.pedantic(
        simulate_distance_distribution,
        kwargs={"trials": 4000, "hash_ids": True},
        rounds=1,
        iterations=1,
    )
    assert dist.geth_mode() == 256
    assert 212 <= dist.parity_mode() <= 234
