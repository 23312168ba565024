"""Figures 2-3: messages sent/received by instrumented Geth and Parity.

Paper shape: received traffic is dominated by TRANSACTIONS for both
clients at similar rates, but Geth *sends* far more transactions than
Parity because it broadcasts to all peers while Parity relays to √n
(§3 observation 2).
"""

from conftest import emit

from repro.render import format_table


def test_fig02_03_message_mix(case_study_geth, case_study_parity):
    geth, parity = case_study_geth, case_study_parity
    keys = sorted(
        set(geth.messages_received) | set(geth.messages_sent),
        # the name breaks ties, so the row order does not follow the hash seed
        key=lambda key: (-geth.messages_received.get(key, 0), key),
    )
    rows = [
        (
            key,
            geth.messages_received.get(key, 0),
            geth.messages_sent.get(key, 0),
            parity.messages_received.get(key, 0),
            parity.messages_sent.get(key, 0),
        )
        for key in keys
    ]
    emit(
        "fig02_03_casestudy_messages",
        format_table(
            "Figures 2-3 — case-study message counts (7 days)",
            ["message", "geth recv", "geth sent", "parity recv", "parity sent"],
            rows,
        ),
    )
    # shape assertions from §3
    assert geth.messages_received["Transactions"] == max(
        geth.messages_received.values()
    ), "TRANSACTIONS must dominate received traffic"
    tx_ratio_geth = geth.messages_sent["Transactions"] / geth.messages_received["Transactions"]
    tx_ratio_parity = (
        parity.messages_sent["Transactions"] / parity.messages_received["Transactions"]
    )
    assert tx_ratio_geth > 3 * tx_ratio_parity, (
        "Geth (broadcast-to-all) must send relatively far more transactions "
        "than Parity (sqrt-n relay)"
    )
    # both clients receive similar proportions of transactions
    share_geth = geth.messages_received["Transactions"] / sum(geth.messages_received.values())
    share_parity = parity.messages_received["Transactions"] / sum(parity.messages_received.values())
    assert abs(share_geth - share_parity) < 0.25
