"""Simulated time is the paper-fidelity contract: access-path work must
not move it.

The executor charges ``ExecStats.rows_examined`` to the simulated clock
on the JDBC path (``driver/connection.py``), and that count is the
vendor cost model's full-scan count, not the rows physically read. These
are the simulated milliseconds the Table 1 and Fig 6 queries gave before
the primary-key range scan existed, each sequence run in its recorded
order on a fresh world and compared with ``==``: any change to the
modeled count, or to anything else on the query path, fails here.

The ETL path (Figs 4-5) is pinned the same way: phase milliseconds,
staged bytes and network bytes of one warehouse load and one four-mart
replication, recorded before the write path sized each row only once.

The executor's column kernels are pinned on the query shapes they
serve (a filtered GROUP BY, a BETWEEN range, a local and a cross-server
join): simulated ms and every executor's ``rows_examined``, recorded
before the kernels existed.

Wire sizing is pinned in bytes, not only through the milliseconds they
cost: the network's and the Clarens client's byte counters over the
Fig 6 sweep and the Table 1 queries, and the byte totals the sub-result
and remote-answer caches hold after a fixed cached sequence, recorded
while every payload was still sized by encoding it to text.
"""

import itertools

import pytest

from repro.clarens.server import ClarensServer
from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.engine import Database
from repro.engine.executor import SelectExecutor
from repro.hep import (
    create_source_schema,
    etl_jobs_for_source,
    events_for_target_kb,
    generate_ntuple,
    populate_source,
)
from repro.hep.testbed import _make_ntuple_db, build_paper_testbed
from repro.marts import MartSet
from repro.net import Network, SimClock
from repro.warehouse import Warehouse

TABLE1_MS = {
    "local": 38.40022400000089,
    "dist_1srv": 448.3388959999993,
    "dist_2srv": 599.5983599999981,
}
FIG6_MS = {21: 307.40173599999986, 2551: 689.9359599999997}
#: all twelve Fig 6 points, run in this order on a fresh server
FIG6_SWEEP_MS = {
    21: 307.40173599999986,
    51: 311.93401599999993,
    301: 349.7175279999998,
    451: 372.38851999999974,
    700: 410.0245279999999,
    801: 425.29178400000046,
    901: 440.4050160000006,
    1701: 561.3865440000009,
    1751: 568.9488800000008,
    2251: 644.5666960000003,
    2451: 674.8123439999999,
    2551: 689.9359599999998,
}
#: over the sweep: (network bytes_moved, client bytes_sent, client bytes_received)
FIG6_SWEEP_BYTES = (2726276, 2319, 1875809)
#: per Table 1 query, in this order: the same three byte counters
TABLE1_BYTES = {
    "local": (2998, 186, 2010),
    "dist_1srv": (8777, 242, 6083),
    "dist_2srv": (40788, 383, 11830),
}
#: after CACHED_SEQUENCE on a cached testbed: stored bytes of
#: (server1 sub-results, server1 remote answers, server2 sub-results,
#: server2 remote answers)
CACHED_BYTES = (4832, 4285, 8058, 3020)
CACHED_SEQUENCE = ("local", "dist_1srv", "dist_2srv", "local", "dist_2srv")
#: Fig 4 at 207.866 kB: (extraction ms, loading ms, staged bytes, net bytes)
FIG4_207KB = (5648.798559999999, 18763.051236362782, 201446, 201702)
#: Fig 5 at 67.48 kB: loading ms per mart, in replication order
FIG5_67KB_LOAD_MS = {
    "mysql": 13733.651090909298,
    "mssql": 14716.101090908513,
    "oracle": 15297.55109091026,
    "sqlite": 15939.151090908512,
}
FIG5_67KB_STAGED_BYTES = 65320
FIG5_67KB_NET_BYTES = 327880
#: the executor's kernel shapes on the paper testbed, run in this order:
#: (sql, simulated ms, rows_examined of every SelectExecutor.execute call)
KERNEL_SHAPES = {
    "aggregate": (
        "SELECT run_id, COUNT(*) AS n, AVG(e) AS mean_e FROM ntuple_a WHERE e < 40.000 "
        "GROUP BY run_id HAVING n > 0 ORDER BY n DESC LIMIT 10",
        40.65899199999967,
        [7646],
    ),
    "range": (
        "SELECT event_id, e FROM ntuple_a WHERE event_id BETWEEN 1200 AND 1450",
        72.7040079999997,
        [6000],
    ),
    "local_join": (
        "SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
        "ON n.run_id = m.run_id WHERE n.event_id <= 120",
        452.06009600000016,
        [6000, 150, 660],
    ),
    "cross_server_join": (
        "SELECT a.event_id, a.e, b.e AS e_b FROM ntuple_a a JOIN ntuple_b b "
        "ON a.event_id = b.event_id WHERE a.event_id <= 60 AND b.event_id <= 60",
        108.49996799999826,
        [6000, 6000, 300],
    ),
}


@pytest.fixture(autouse=True)
def fresh_session_ids(monkeypatch):
    """Session ids are numbered process-wide and travel in every request,
    so their digit count reaches the wire bytes; start them at 1 as in a
    fresh process."""
    monkeypatch.setattr(ClarensServer, "_session_counter", itertools.count(1))


def _fig6_world():
    fed = GridFederation()
    server = fed.create_server("jclarens1", "pc1.caltech.edu", force_jdbc=True)
    db = _make_ntuple_db("ntuple_db", DeterministicRNG("fig6"), 3000, 150)
    fed.attach_database(server, db, logical_names={"NTUPLE": "ntuple"})
    return fed, server, fed.client("client.cern.ch")


def _table1_queries(tb) -> dict[str, str]:
    return {
        "local": tb.QUERY_LOCAL,
        "dist_1srv": tb.QUERY_DISTRIBUTED_1SRV,
        "dist_2srv": tb.QUERY_DISTRIBUTED_2SRV,
    }


def test_table1_sim_ms_unchanged():
    tb = build_paper_testbed()
    measured = {
        name: tb.federation.query(tb.client, tb.server1, sql).response_ms
        for name, sql in _table1_queries(tb).items()
    }
    assert measured == TABLE1_MS


def test_kernel_shapes_sim_ms_and_rows_examined_unchanged(monkeypatch):
    """Column-test filter, positional GROUP BY and aggregate arguments,
    and the positional hash join (local and cross-server): simulated ms
    and the modeled rows examined of every executor call, backends and
    integrator alike."""
    examined: list[int] = []
    execute = SelectExecutor.execute

    def recording(self, select):
        result = execute(self, select)
        examined.append(result.stats.rows_examined)
        return result

    monkeypatch.setattr(SelectExecutor, "execute", recording)
    tb = build_paper_testbed()
    for name, (sql, sim_ms, rows_examined) in KERNEL_SHAPES.items():
        examined.clear()
        outcome = tb.federation.query(tb.client, tb.server1, sql)
        assert (outcome.response_ms, examined) == (sim_ms, rows_examined), name


def test_fig6_jdbc_sim_ms_unchanged():
    """Run in the recorded order on a fresh server: a response time is a
    difference of the running simulated clock, so its last bits depend
    on what ran before."""
    fed, server, client = _fig6_world()
    measured = {}
    for rows in FIG6_MS:
        outcome = fed.query(
            client, server, f"SELECT event_id, e, px, py FROM ntuple WHERE event_id <= {rows}"
        )
        assert outcome.answer.row_count == rows
        measured[rows] = outcome.response_ms
    assert measured == FIG6_MS


def test_fig6_sweep_sim_ms_and_bytes_unchanged():
    fed, server, client = _fig6_world()
    net0 = fed.network.bytes_moved
    measured = {}
    for rows in FIG6_SWEEP_MS:
        outcome = fed.query(
            client, server, f"SELECT event_id, e, px, py FROM ntuple WHERE event_id <= {rows}"
        )
        assert outcome.answer.row_count == rows
        measured[rows] = outcome.response_ms
    assert measured == FIG6_SWEEP_MS
    moved = (fed.network.bytes_moved - net0, client.bytes_sent, client.bytes_received)
    assert moved == FIG6_SWEEP_BYTES


def test_table1_wire_bytes_unchanged():
    tb = build_paper_testbed()
    network, client = tb.federation.network, tb.client
    measured = {}
    for name, sql in _table1_queries(tb).items():
        before = (network.bytes_moved, client.bytes_sent, client.bytes_received)
        tb.federation.query(client, tb.server1, sql)
        after = (network.bytes_moved, client.bytes_sent, client.bytes_received)
        measured[name] = tuple(b - a for a, b in zip(before, after))
    assert measured == TABLE1_BYTES


def test_cache_stored_bytes_unchanged():
    """Both servers answer the same sequence; a server forwards its
    remote sub-queries to the other, so both cache levels fill."""
    tb = build_paper_testbed(cache=True)
    queries = _table1_queries(tb)
    for name in CACHED_SEQUENCE:
        tb.federation.query(tb.client, tb.server1, queries[name])
        tb.federation.query(tb.client, tb.server2, queries[name])
    c1, c2 = tb.server1.service.cache, tb.server2.service.cache
    assert (c1.sub.bytes, c1.remote.bytes, c2.sub.bytes, c2.remote.bytes) == CACHED_BYTES


def _warehouse_world(kb: float, tag: str):
    """A Fig-4/5 source of ~kb loaded into a fresh warehouse, as the
    benchmarks build it."""
    n_events = events_for_target_kb(kb, 8)
    rng = DeterministicRNG(f"{tag}-{kb}")
    source = Database("tier1_source", "oracle")
    create_source_schema(source)
    populate_source(source, rng, {1: generate_ntuple(rng.fork("nt"), n_events, 8)})
    network = Network()
    network.add_host("tier1.cern.ch", 1)
    warehouse = Warehouse(network, SimClock(), nvar=8)
    report = warehouse.load(etl_jobs_for_source(source, "tier1.cern.ch", 8)[0])
    return warehouse, network, report


def test_fig4_etl_sim_ms_unchanged():
    _, network, report = _warehouse_world(207.866, "fig4")
    measured = (
        report.extraction_ms,
        report.loading_ms,
        report.staged_bytes,
        network.bytes_moved,
    )
    assert measured == FIG4_207KB


def test_fig5_mart_loads_sim_ms_unchanged():
    warehouse, network, _ = _warehouse_world(67.48, "fig5")
    marts = MartSet(warehouse)
    for i, vendor in enumerate(FIG5_67KB_LOAD_MS):
        marts.add_mart(Database(f"mart_{vendor}", vendor), f"mart{i}.caltech.edu")
    reports = marts.replicate(["v_event_wide"])
    assert {
        vendor: report.loading_ms for vendor, report in zip(FIG5_67KB_LOAD_MS, reports)
    } == FIG5_67KB_LOAD_MS
    assert [r.staged_bytes for r in reports] == [FIG5_67KB_STAGED_BYTES] * 4
    assert network.bytes_moved == FIG5_67KB_NET_BYTES
