"""Figure 4: connected peers over time for the case-study clients.

Paper shape: both clients reach their default peer limits (Geth 25,
Parity 50) within minutes and then sit at the cap almost continuously
(99.1% / 91.5% of the time), with brief churn dips.
"""

from conftest import emit

from repro.render import format_series, side_by_side
from repro.datasets import reference


def test_fig04_peer_convergence(case_study_geth, case_study_parity):
    def summarize():
        return {
            "geth": (case_study_geth.minutes_to_max, case_study_geth.time_at_max_fraction),
            "parity": (
                case_study_parity.minutes_to_max,
                case_study_parity.time_at_max_fraction,
            ),
        }

    summary = summarize()
    lines = [
        format_series(
            "Figure 4 — Geth connected peers (first 2h, then hourly; truncated)",
            case_study_geth.peer_series[:40:4],
            x_label="hour",
        ),
        side_by_side(summary["geth"][1], reference.GETH_TIME_AT_MAX, "Geth time at max peers"),
        side_by_side(
            summary["parity"][1], reference.PARITY_TIME_AT_MAX, "Parity time at max peers"
        ),
        f"Geth reached {reference.GETH_MAX_PEERS} peers in {summary['geth'][0]:.0f} min; "
        f"Parity reached {reference.PARITY_MAX_PEERS} in {summary['parity'][0]:.0f} min "
        "(paper: 'a matter of minutes')",
    ]
    emit("fig04_peer_convergence", "\n".join(lines))
    assert summary["geth"][0] <= 15 and summary["parity"][0] <= 15
    assert abs(summary["geth"][1] - reference.GETH_TIME_AT_MAX) < 0.03
    assert abs(summary["parity"][1] - reference.PARITY_TIME_AT_MAX) < 0.05
    # Geth's occupancy exceeds Parity's, as in the paper
    assert summary["geth"][1] > summary["parity"][1]
    # series actually hits the caps
    assert max(count for _, count in case_study_geth.peer_series) == 25
    assert max(count for _, count in case_study_parity.peer_series) == 50
