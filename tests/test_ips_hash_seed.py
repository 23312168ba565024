"""What reads a node's IPs reads them in one order, whatever the hash seed.

``NodeEntry.ips`` is a sorted tuple, so ``geolocate`` (which places an
entry by its first IP the geo model knows) and ``find_abusive`` (which
groups short-lived node IDs by IP) give the same answer in every
interpreter.  A ``set`` of the two IPs below iterates in a different
order under ``PYTHONHASHSEED`` 3 than under 1 and 2, so each seed runs
in a fresh interpreter and the three answers must be equal.
"""

import json
import os
import subprocess
import sys

from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import DialOutcome, DialResult

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: TEST-NET-2 and TEST-NET-3 addresses, placed in two countries below
FIRST_IP, SECOND_IP = "198.51.100.7", "203.0.113.9"

_ANALYSE = """
import json, sys
from types import SimpleNamespace
from repro.analysis.geography import geolocate
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import DialOutcome, DialResult
from repro.nodefinder.sanitize import find_abusive

first_ip, second_ip = sys.argv[1], sys.argv[2]
db = NodeDB()
# four node IDs, each observed at both IPs a minute apart: short-lived,
# and at least three to an IP
for peer in range(4):
    for offset, ip in ((0.0, second_ip), (60.0, first_ip)):
        db.observe(DialResult(
            timestamp=1000.0 * peer + offset, node_id=bytes([peer]) * 64,
            ip=ip, tcp_port=30303, connection_type="dynamic-dial",
            outcome=DialOutcome.FULL_HARVEST,
        ))
def spec(ip, country, asn):
    location = SimpleNamespace(country=country, asn=asn, is_cloud=asn == 16509)
    return SimpleNamespace(spec=SimpleNamespace(ip=ip, location=location))
world = SimpleNamespace(
    nodes={1: spec(first_ip, "DE", 24940), 2: spec(second_ip, "US", 16509)},
    factories=[],
)
geo = geolocate(world, db)
abusive = find_abusive(db)
print(json.dumps({
    "ips": [list(entry.ips) for entry in db],
    "countries": geo.country_shares,
    "ases": geo.as_shares,
    "cloud": geo.cloud_fraction,
    "per_ip_counts": list(abusive.per_ip_counts.items()),
    "abusive_ips": sorted(abusive.abusive_ips),
}))
"""


def _analyse(hash_seed: str) -> dict:
    return json.loads(
        subprocess.run(
            [sys.executable, "-c", _ANALYSE, FIRST_IP, SECOND_IP],
            env=dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=hash_seed),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )


def test_geolocate_and_find_abusive_do_not_follow_the_hash_seed():
    answers = {seed: _analyse(seed) for seed in ("1", "2", "3")}
    assert answers["1"] == answers["2"] == answers["3"]
    answer = answers["1"]
    assert answer["ips"] == [[FIRST_IP, SECOND_IP]] * 4
    # every entry is placed by its first IP in sorted order
    assert answer["countries"] == [["DE", 1.0]]
    assert answer["per_ip_counts"] == [[FIRST_IP, 4], [SECOND_IP, 4]]
    assert answer["abusive_ips"] == [FIRST_IP, SECOND_IP]


def _result(ip: str, timestamp: float) -> DialResult:
    return DialResult(
        timestamp=timestamp, node_id=b"\x01" * 64, ip=ip, tcp_port=30303,
        connection_type="dynamic-dial", outcome=DialOutcome.FULL_HARVEST,
    )


def test_an_entry_holds_each_ip_once_in_sorted_order():
    db = NodeDB()
    for timestamp, ip in enumerate((SECOND_IP, FIRST_IP, SECOND_IP, "10.0.0.1")):
        db.observe(_result(ip, float(timestamp)))
    assert db.get(b"\x01" * 64).ips == ("10.0.0.1", FIRST_IP, SECOND_IP)


def test_a_merge_keeps_the_ips_sorted():
    mine, other = NodeDB(), NodeDB()
    mine.observe(_result(SECOND_IP, 10.0))
    mine.observe(_result("10.0.0.1", 20.0))
    other.observe(_result(FIRST_IP, 30.0))
    other.observe(_result(SECOND_IP, 40.0))
    merged = NodeDB.merged([mine, other])
    assert merged.get(b"\x01" * 64).ips == ("10.0.0.1", FIRST_IP, SECOND_IP)
    # the inputs are left as they were
    assert mine.get(b"\x01" * 64).ips == ("10.0.0.1", SECOND_IP)
    assert other.get(b"\x01" * 64).ips == (FIRST_IP, SECOND_IP)
