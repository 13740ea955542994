"""Each client query is parsed once: local backends run the sub-query AST.

The router renders vendor text for every sub-query (traces, cache keys
and the statement's text all keep it) but hands the backend the AST it
rendered the text from. Only the client's query, and on a remote route
the logical text a peer receives, go through the parser.
"""

import pytest

import repro.engine.database
import repro.sql.parser
from repro.core.router import SubQueryRouter
from repro.driver.pool import ConnectionPool
from repro.hep.testbed import build_paper_testbed
from repro.net import SimClock
from repro.poolral.ral import PoolRAL
from repro.sql.parser import parse_select
from repro.unity.decompose import decompose
from repro.unity.driver import UnityDriver, execute_plan

from tests.conftest import reference_database

FEDERATED = (
    "SELECT e.event_id, r.detector FROM events e JOIN runs r "
    "ON e.run_id = r.run_id WHERE e.energy > 3.0 AND r.good = 1 ORDER BY e.event_id"
)


@pytest.fixture
def parsed(monkeypatch):
    """Every text handed to ``parse_statement``, in call order."""
    texts = []
    original = repro.sql.parser.parse_statement

    def counting(sql):
        texts.append(sql)
        return original(sql)

    # parse_select calls the parser module's name; Database.execute its own
    monkeypatch.setattr(repro.sql.parser, "parse_statement", counting)
    monkeypatch.setattr(repro.engine.database, "parse_statement", counting)
    return texts


def _router(directory, clock, jdbc_pool=None):
    return SubQueryRouter(
        PoolRAL(directory, clock), directory, clock=clock, jdbc_pool=jdbc_pool
    )


class TestNoReparseOnLocalRoutes:
    @pytest.mark.parametrize("pooled_jdbc", [False, True])
    def test_router_pool_and_jdbc_routes(self, two_db_federation, parsed, pooled_jdbc):
        directory, dictionary, *_ = two_db_federation
        clock = SimClock()
        pool = ConnectionPool(directory, clock=clock) if pooled_jdbc else None
        router = _router(directory, clock, pool)
        plan = decompose(parse_select(FEDERATED), dictionary)
        parsed.clear()
        result = execute_plan(plan, router, (), clock)
        assert parsed == []
        assert router.route_counts == {"pool": 1, "jdbc": 1, "remote": 0}
        assert {t.via for t in result.traces} == {"pool", "jdbc"}
        # traces still carry each sub-query's text
        assert all(t.sql.startswith("SELECT ") for t in result.traces)

    def test_unity_driver_parses_only_the_client_query(self, two_db_federation, parsed):
        directory, dictionary, *_ = two_db_federation
        driver = UnityDriver(dictionary, directory)
        result = driver.execute(FEDERATED)
        assert parsed == [FEDERATED]
        assert [t.via for t in result.traces] == ["jdbc", "jdbc"]

    def test_table1_queries_parse_once_per_server(self, parsed):
        """A Table-1 query parses once at the service, plus once at each
        peer that a remote sub-query is forwarded to."""
        testbed = build_paper_testbed(
            ntuple_rows=60, runmeta_rows=12, total_tables=12, total_rows=300
        )
        service = testbed.server1.service
        for sql in (
            testbed.QUERY_LOCAL,
            testbed.QUERY_DISTRIBUTED_1SRV,
            testbed.QUERY_DISTRIBUTED_2SRV,
        ):
            before = dict(service.router.route_counts)
            parsed.clear()
            answer = service.execute(sql)
            assert answer.row_count > 0
            routes = {
                via: n - before[via] for via, n in service.router.route_counts.items()
            }
            assert routes["pool"] + routes["jdbc"] >= 1
            assert parsed[0] == sql
            assert len(parsed) == 1 + routes["remote"], parsed
        assert routes["remote"] >= 1  # the two-server query forwards


class TestParametersKeepTheirIndex:
    """A handed-over AST keeps each ``?`` at the client's parameter index.

    A sub-query's text numbers its ``?`` from zero, so parsing that text
    again would bind a ``?`` pushed down to the second table to the
    client's first value.
    """

    @pytest.mark.parametrize("use_driver", [False, True])
    def test_parameters_pushed_to_two_databases(self, two_db_federation, use_driver):
        directory, dictionary, *_ = two_db_federation
        sql = (
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id WHERE e.energy > ? AND r.detector <> ? "
            "ORDER BY e.event_id"
        )
        params = (3.0, "lhcb")
        if use_driver:
            result = UnityDriver(dictionary, directory).execute(sql, params)
        else:
            clock = SimClock()
            plan = decompose(parse_select(sql), dictionary)
            result = execute_plan(plan, _router(directory, clock), params, clock)
        expected = reference_database().execute(sql, params).rows
        assert expected
        assert result.rows == expected
