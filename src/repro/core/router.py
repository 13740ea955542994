"""Sub-query routing: POOL-RAL vs JDBC vs remote forwarding (§4.5).

The rule is the paper's: a sub-query aimed at a database whose vendor
POOL supports goes through the POOL-RAL layer (cheap — the handle was
initialized when the database was registered); a sub-query for an
unsupported vendor goes through the Unity/JDBC path (expensive — a
fresh connect + authenticate per query); a sub-query whose table is not
registered locally is forwarded to the remote JClarens server the RLS
named. Remote forwarding is implemented by the service, which injects
``remote_fetch``.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from repro.common.types import SQLType
from repro.dialects import get_dialect
from repro.driver.connection import connect
from repro.driver.directory import Directory
from repro.engine.storage import estimate_row_bytes
from repro.net import costs
from repro.poolral.ral import PoolRAL
from repro.unity.decompose import SubQuery


class SubQueryRouter:
    """A :class:`~repro.unity.driver.SubQueryRunner` with routing."""

    def __init__(
        self,
        ral: PoolRAL,
        directory: Directory,
        clock=None,
        network=None,
        host: str | None = None,
        user: str = "grid",
        password: str = "grid",
        force_jdbc: bool = False,
        remote_fetch: Callable[[SubQuery, tuple], tuple] | None = None,
        jdbc_pool=None,
        metrics=None,
    ):
        self.ral = ral
        self.directory = directory
        self.clock = clock
        self.network = network
        self.host = host
        self.user = user
        self.password = password
        self.force_jdbc = force_jdbc
        self.remote_fetch = remote_fetch
        #: optional ConnectionPool: reuse JDBC connections instead of the
        #: prototype's connect-per-query behaviour (the pooling ablation)
        self.jdbc_pool = jdbc_pool
        #: set per-query by a caching service on a plan-cache hit: the
        #: participants' XSpec metadata was parsed when the plan was
        #: cached, so the JDBC path must not re-pay UNITY_METADATA_PARSE_MS
        self.metadata_cached = False
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics

    @property
    def route_counts(self) -> dict[str, int]:
        """Per-route sub-query counts (a view over the metrics registry)."""
        return {
            via: int(self.metrics.counter(f"subqueries.{via}").value)
            for via in ("pool", "jdbc", "remote")
        }

    def _count_route(self, via: str, rows: list[tuple]) -> None:
        self.metrics.counter(f"subqueries.{via}").inc()
        self.metrics.counter("rows_moved").inc(len(rows))

    # -- cost helpers ------------------------------------------------------------

    def _charge(self, ms: float) -> None:
        if self.clock is not None:
            self.clock.advance_ms(ms)

    def _transfer_rows(self, from_host: str, rows: list[tuple]) -> None:
        if self.network is None or self.host is None or self.clock is None:
            return
        nbytes = estimate_row_bytes(tuple(chain.from_iterable(rows))) + 256
        self.network.transfer(from_host, self.host, nbytes, self.clock)

    # -- the runner --------------------------------------------------------------

    def __call__(
        self, sub: SubQuery, params: tuple = ()
    ) -> tuple[list[str], list[SQLType], list[tuple], str]:
        if sub.location.is_remote:
            if self.remote_fetch is None:
                from repro.common.errors import FederationError

                raise FederationError(
                    f"sub-query for {sub.binding!r} needs remote forwarding, "
                    "but this router has no remote_fetch"
                )
            columns, types, rows = self.remote_fetch(sub, params)
            self._count_route("remote", rows)
            return columns, types, rows, "remote"
        if not self.force_jdbc and self.ral.supports_url(sub.location.url):
            return self._via_pool(sub, params)
        return self._via_jdbc(sub, params)

    def _via_pool(self, sub, params):
        dialect = get_dialect(sub.location.vendor)
        vendor_sql = dialect.render_select(sub.select)
        cursor = self.ral.execute_sql(sub.location.url, vendor_sql, params)
        rows = cursor.fetchall()
        self._count_route("pool", rows)
        binding = self.directory.lookup(sub.location.url)
        self._transfer_rows(binding.host_name, rows)
        return cursor.columns, cursor.types, rows, "pool"

    def _via_jdbc(self, sub, params):
        # The Unity/JDBC path re-parses the database's XSpec metadata and
        # opens a fresh, authenticated connection for every query — the
        # dominant term in Table 1's distributed rows. With a pool, the
        # metadata is cached alongside the connection and both costs
        # disappear on a hit.
        dialect = get_dialect(sub.location.vendor)
        if self.jdbc_pool is not None:
            connection = self.jdbc_pool.get(sub.location.url, self.user, self.password)
            try:
                vendor_sql = dialect.render_select(sub.select)
                cursor = connection.execute(vendor_sql, params)
                rows = cursor.fetchall()
                columns, types = cursor.columns, cursor.types
            finally:
                self.jdbc_pool.release(connection, self.user)
        else:
            if not self.metadata_cached:
                self._charge(costs.UNITY_METADATA_PARSE_MS)
            connection = connect(
                sub.location.url,
                self.user,
                self.password,
                directory=self.directory,
                clock=self.clock,
            )
            try:
                vendor_sql = dialect.render_select(sub.select)
                cursor = connection.execute(vendor_sql, params)
                rows = cursor.fetchall()
                columns, types = cursor.columns, cursor.types
            finally:
                connection.close()
        self._count_route("jdbc", rows)
        binding = self.directory.lookup(sub.location.url)
        self._transfer_rows(binding.host_name, rows)
        return columns, types, rows, "jdbc"
