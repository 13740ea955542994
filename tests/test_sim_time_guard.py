"""Simulated time is the paper-fidelity contract: access-path work must
not move it.

The executor charges ``ExecStats.rows_examined`` to the simulated clock
on the JDBC path (``driver/connection.py``), and that count is the
vendor cost model's full-scan count, not the rows physically read. These
are the simulated milliseconds the Table 1 and Fig 6 queries gave before
the primary-key range scan existed, each sequence run in its recorded
order on a fresh world and compared with ``==``: any change to the
modeled count, or to anything else on the query path, fails here.
"""

import itertools

import pytest

from repro.clarens.server import ClarensServer
from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.hep.testbed import _make_ntuple_db, build_paper_testbed

TABLE1_MS = {
    "local": 38.40022400000089,
    "dist_1srv": 448.3388959999993,
    "dist_2srv": 599.5983599999981,
}
FIG6_MS = {21: 307.40173599999986, 2551: 689.9359599999997}


@pytest.fixture(autouse=True)
def fresh_session_ids(monkeypatch):
    """Session ids are numbered process-wide and travel in every request,
    so their digit count reaches the wire bytes; start them at 1 as in a
    fresh process."""
    monkeypatch.setattr(ClarensServer, "_session_counter", itertools.count(1))


def test_table1_sim_ms_unchanged():
    tb = build_paper_testbed()
    queries = {
        "local": tb.QUERY_LOCAL,
        "dist_1srv": tb.QUERY_DISTRIBUTED_1SRV,
        "dist_2srv": tb.QUERY_DISTRIBUTED_2SRV,
    }
    measured = {
        name: tb.federation.query(tb.client, tb.server1, sql).response_ms
        for name, sql in queries.items()
    }
    assert measured == TABLE1_MS


def test_fig6_jdbc_sim_ms_unchanged():
    """Run in the recorded order on a fresh server: a response time is a
    difference of the running simulated clock, so its last bits depend
    on what ran before."""
    fed = GridFederation()
    server = fed.create_server("jclarens1", "pc1.caltech.edu", force_jdbc=True)
    db = _make_ntuple_db("ntuple_db", DeterministicRNG("fig6"), 3000, 150)
    fed.attach_database(server, db, logical_names={"NTUPLE": "ntuple"})
    client = fed.client("client.cern.ch")
    measured = {}
    for rows in FIG6_MS:
        outcome = fed.query(
            client, server, f"SELECT event_id, e, px, py FROM ntuple WHERE event_id <= {rows}"
        )
        assert outcome.answer.row_count == rows
        measured[rows] = outcome.response_ms
    assert measured == FIG6_MS
