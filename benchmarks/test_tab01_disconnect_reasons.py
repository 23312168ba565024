"""Table 1: disconnect reasons sent/received by the case-study clients.

Paper shape: Too-many-peers dominates both columns for both clients
(~2.07M sent by Geth, ~1.49M by Parity over a week); Parity never sends
Subprotocol-error; Parity sends two orders of magnitude more Useless-peer
than Geth.
"""

from conftest import emit

from repro.render import format_table
from repro.datasets import reference
from repro.devp2p.messages import DisconnectReason


def _rows(result, paper_table):
    rows = []
    for label, (paper_recv, paper_sent) in paper_table.items():
        measured_recv = result.disconnects_received.get(label, 0)
        measured_sent = result.disconnects_sent.get(label, 0)
        rows.append((label, measured_recv, paper_recv, measured_sent, paper_sent))
    return rows


def test_tab01_disconnect_reasons(case_study_geth, case_study_parity):
    geth_rows = _rows(case_study_geth, reference.TABLE1_GETH)
    parity_rows = _rows(case_study_parity, reference.TABLE1_PARITY)
    headers = ["reason", "recv", "paper recv", "sent", "paper sent"]
    emit(
        "tab01_disconnect_reasons",
        format_table("Table 1 — Geth disconnects (7 days)", headers, geth_rows)
        + "\n\n"
        + format_table("Table 1 — Parity disconnects (7 days)", headers, parity_rows),
    )
    geth, parity = case_study_geth, case_study_parity
    tmp = DisconnectReason.TOO_MANY_PEERS.label
    # Too many peers dominates, both directions, both clients
    for result in (geth, parity):
        assert result.disconnects_sent[tmp] == max(result.disconnects_sent.values())
        assert result.disconnects_received[tmp] == max(
            result.disconnects_received.values()
        )
    # absolute scale within 2x of the paper for the headline cells
    assert 0.5 < geth.disconnects_sent[tmp] / reference.TABLE1_GETH[tmp][1] < 2.0
    assert 0.5 < parity.disconnects_sent[tmp] / reference.TABLE1_PARITY[tmp][1] < 2.0
    assert 0.5 < parity.disconnects_received[tmp] / reference.TABLE1_PARITY[tmp][0] < 2.0
    # Parity sends no subprotocol errors (§3 obs. 4)
    sub = DisconnectReason.SUBPROTOCOL_ERROR.label
    assert parity.disconnects_sent.get(sub, 0) == 0
    assert geth.disconnects_sent.get(sub, 0) > 1000
    # Parity's Useless-peer sent dwarfs Geth's
    useless = DisconnectReason.USELESS_PEER.label
    assert parity.disconnects_sent[useless] > 20 * geth.disconnects_sent[useless]
    # far more disconnects sent than received (incoming pressure)
    assert sum(geth.disconnects_sent.values()) > 50 * sum(
        geth.disconnects_received.values()
    )
