"""The enhanced Unity driver: plan → fetch → integrate.

``execute_plan`` is the shared orchestration used both here (pure
JDBC, as the original Unity driver worked) and by the data access
service (which routes each sub-query through POOL-RAL or JDBC, §4.5).
A ``SubQueryRunner`` abstracts that choice: it executes one sub-query
somewhere and reports how.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Protocol

from repro.common.types import SQLType
from repro.dialects import get_dialect
from repro.driver.connection import connect
from repro.driver.directory import Directory
from repro.engine.storage import estimate_row_bytes
from repro.metadata.dictionary import DataDictionary
from repro.net import costs
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.unity.decompose import DecomposedQuery, SubQuery, decompose
from repro.unity.merge import Integrator


@dataclass
class SubQueryTrace:
    """What happened to one sub-query (exposed to tests and benches).

    ``start_ms``/``end_ms`` are simulated-clock stamps around the
    runner call; ``replica_host`` is the host that actually served the
    sub-query (after replica selection or failover), filled in by the
    data access service when it knows better than the plan did.
    """

    binding: str
    database: str
    url: str
    vendor: str
    sql: str
    rows: int
    via: str  # 'jdbc' | 'pool' | 'remote'
    start_ms: float = 0.0
    end_ms: float = 0.0
    replica_host: str | None = None

    @property
    def duration_ms(self) -> float:
        """Simulated time the sub-query took, fetch included."""
        return self.end_ms - self.start_ms


@dataclass
class FederatedResult:
    """Final merged result: the paper's 2-D vector plus provenance."""

    columns: list[str]
    types: list[SQLType]
    rows: list[tuple]
    plan: DecomposedQuery
    traces: list[SubQueryTrace] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_vector(self) -> list[list]:
        return [list(r) for r in self.rows]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, c in enumerate(self.columns):
            if c.lower() == lowered:
                return i
        raise KeyError(name)


class SubQueryRunner(Protocol):
    """Executes one sub-query and returns (columns, types, rows, via)."""

    def __call__(
        self, sub: SubQuery, params: tuple
    ) -> tuple[list[str], list[SQLType], list[tuple], str]: ...


def execute_plan(
    plan: DecomposedQuery,
    runner: SubQueryRunner,
    params: tuple = (),
    clock=None,
) -> FederatedResult:
    """Run every sub-query through ``runner`` and integrate."""

    def now() -> float:
        return clock.now_ms if clock is not None else 0.0

    traces: list[SubQueryTrace] = []
    if plan.kind == "single":
        sub = plan.subqueries[0]
        t0 = now()
        columns, types, rows, via = runner(sub, params)
        t1 = now()
        columns = _logicalize_columns(columns, sub)
        if sub.select.limit is not None:
            vendor_dialect = get_dialect(sub.location.vendor)
            if vendor_dialect.limit_applied_client_side:
                rows = rows[: sub.select.limit]
        traces.append(_trace(sub, len(rows), via, t0, t1))
        return FederatedResult(columns, types, list(rows), plan, traces)

    sub_results: dict[str, tuple[list[str], list[SQLType], list[tuple]]] = {}
    for sub in plan.subqueries:
        t0 = now()
        columns, types, rows, via = runner(sub, params)
        t1 = now()
        sub_results[sub.binding] = (columns, types, rows)
        traces.append(_trace(sub, len(rows), via, t0, t1))
    result = Integrator(clock).integrate(plan, sub_results, params)
    return FederatedResult(result.columns, result.types, result.rows, plan, traces)


def _trace(
    sub: SubQuery, rows: int, via: str, start_ms: float, end_ms: float
) -> SubQueryTrace:
    return SubQueryTrace(
        binding=sub.binding,
        database=sub.location.database_name,
        url=sub.location.url,
        vendor=sub.location.vendor,
        sql=sub.sql,
        rows=rows,
        via=via,
        start_ms=start_ms,
        end_ms=end_ms,
    )


def _logicalize_columns(columns: list[str], sub: SubQuery) -> list[str]:
    """Map physical output names back to logical ones (star pushdowns)."""
    reverse = {
        c.name.lower(): c.logical_name for c in sub.location.table.columns
    }
    return [reverse.get(c.lower(), c) for c in columns]


class UnityDriver:
    """The federated driver in its standalone (pure JDBC) form."""

    def __init__(
        self,
        dictionary: DataDictionary,
        directory: Directory,
        clock=None,
        network=None,
        host: str | None = None,
        pushdown: bool = True,
        user: str = "grid",
        password: str = "grid",
        preflight: bool = False,
        observe: bool = False,
        cache: bool = False,
        epochs=None,
        resilience=False,
    ):
        self.dictionary = dictionary
        self.directory = directory
        self.clock = clock
        self.network = network
        self.host = host
        self.pushdown = pushdown
        self.user = user
        self.password = password
        self.preflight = preflight
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.tracer = None
        self.profiler = None
        if observe:
            from repro.obs.profiler import QueryProfiler
            from repro.obs.trace import Tracer

            self.tracer = Tracer(clock, host or "unity")
            self.profiler = QueryProfiler(clock)
        # Opt-in multi-level caching (plan + sub-results); with cache
        # off no cache objects exist and execution is the prototype's.
        self.cache = None
        if cache:
            from repro.cache import CacheManager

            self.cache = CacheManager(clock=clock, metrics=self.metrics, epochs=epochs)
        # Opt-in retry/backoff + per-database breakers; with resilience
        # off no manager exists and a dead database fails as before.
        self.resilience = None
        if resilience:
            from repro.resilience import ResilienceConfig, ResilienceManager

            config = resilience if isinstance(resilience, ResilienceConfig) else None
            self.resilience = ResilienceManager(
                clock=clock, metrics=self.metrics, config=config,
                tracer=self.tracer,
            )

    def _span(self, stage: str, **attrs):
        if self.tracer is None:
            from repro.obs.trace import NOOP_SPAN

            return NOOP_SPAN
        return self.tracer.span(stage, **attrs)

    # -- cost plumbing -----------------------------------------------------------

    def _charge(self, ms: float) -> None:
        if self.clock is not None:
            self.clock.advance_ms(ms)

    def _transfer_rows(self, from_host: str, rows: list[tuple]) -> None:
        """Wire cost of shipping a sub-result to the driver's host."""
        if self.network is None or self.host is None:
            return
        nbytes = estimate_row_bytes(tuple(chain.from_iterable(rows))) + 256
        self.network.transfer(from_host, self.host, nbytes, self.clock)

    # -- sub-query execution over JDBC ----------------------------------------------

    def _fetch_jdbc(
        self, sub: SubQuery, params: tuple
    ) -> tuple[list[str], list[SQLType], list[tuple]]:
        """One unprotected connect/execute/fetch round-trip."""
        dialect = get_dialect(sub.location.vendor)
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
            types = cursor.types or [SQLType.text()] * len(cursor.columns)
            columns = cursor.columns
        finally:
            connection.close()
        binding = self.directory.lookup(sub.location.url)
        self._transfer_rows(binding.host_name, rows)
        return columns, types, rows

    def run_subquery(
        self, sub: SubQuery, params: tuple
    ) -> tuple[list[str], list[SQLType], list[tuple], str]:
        """Fresh connection per (query, database), like the prototype.

        With caching on, a warm sub-result is served from memory for
        ``CACHE_HIT_MS`` instead — route ``cache`` in the trace.
        """
        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.sub_key(sub, params)
            hit = self.cache.lookup_sub(cache_key)
            if hit is not None:
                with self._span(
                    "subquery", binding=sub.binding,
                    database=sub.location.database_name,
                ) as span:
                    self._charge(costs.CACHE_HIT_MS)
                    self.cache.record_hit_latency(costs.CACHE_HIT_MS)
                    columns, types, rows, _via = hit
                    span.set("route", "cache").set("rows", len(rows))
                return list(columns), list(types), list(rows), "cache"
        with self._span(
            "subquery", binding=sub.binding, database=sub.location.database_name
        ) as span:
            if self.resilience is not None:
                columns, types, rows = self.resilience.call(
                    f"db:{sub.location.database_name}",
                    lambda: self._fetch_jdbc(sub, params),
                )
            else:
                columns, types, rows = self._fetch_jdbc(sub, params)
            self.metrics.counter("subqueries.jdbc").inc()
            self.metrics.counter("rows_moved").inc(len(rows))
            span.set("route", "jdbc").set("rows", len(rows))
        if cache_key is not None:
            self.cache.store_sub(
                cache_key,
                (columns, types, rows, "jdbc"),
                tag=sub.location.database_name,
            )
        return columns, types, rows, "jdbc"

    # -- public API -------------------------------------------------------------------

    def _preflight(
        self, select: ast.Select, prefer_databases: dict[str, str] | None
    ) -> None:
        """Lint against the dictionary and refuse before anything ships."""
        from repro.common.errors import PreflightError
        from repro.lint import DictionarySchema, lint_select

        report = lint_select(
            select, DictionarySchema(self.dictionary, prefer_databases)
        )
        if not report.ok:
            raise PreflightError(report.errors)

    def plan(
        self, sql: str | ast.Select, prefer_databases: dict[str, str] | None = None
    ) -> DecomposedQuery:
        plan_key = None
        if self.cache is not None:
            from repro.cache import normalize_sql

            prefer = tuple(sorted((prefer_databases or {}).items()))
            plan_key = (normalize_sql(sql), prefer)
            cached = self.cache.get_plan(plan_key)
            if cached is not None:
                # decomposition and the per-participant XSpec metadata
                # parse were paid when the plan was cached
                return cached.plan
        select = parse_select(sql) if isinstance(sql, str) else sql
        if self.preflight:
            self._preflight(select, prefer_databases)
        self._charge(costs.DECOMPOSE_MS)
        plan = decompose(
            select, self.dictionary, pushdown=self.pushdown,
            prefer_databases=prefer_databases,
        )
        # Parsing each participant's XSpec metadata per query (§4.2's
        # N×S criticism) is a real per-query cost in the prototype.
        self._charge(len(plan.databases) * costs.UNITY_METADATA_PARSE_MS)
        if plan_key is not None:
            self.cache.put_plan(plan_key, select, plan)
        return plan

    def execute(
        self,
        sql: str | ast.Select,
        params: tuple = (),
        prefer_databases: dict[str, str] | None = None,
    ) -> FederatedResult:
        start_ms = self.clock.now_ms if self.clock is not None else 0.0
        if self.resilience is not None:
            self.resilience.start_deadline()
        span_mark = len(self.tracer.spans) if self.tracer is not None else 0
        with self._span("query") as span:
            with self._span("decompose"):
                plan = self.plan(sql, prefer_databases)
            result = execute_plan(plan, self.run_subquery, params, self.clock)
            span.set("rows", len(result.rows))
        self.metrics.counter("queries").inc()
        if self.clock is not None:
            self.metrics.histogram("query_ms").observe(self.clock.now_ms - start_ms)
        if self.profiler is not None and span.trace_id is not None:
            shape = sql if isinstance(sql, str) else sql.unparse()
            self.profiler.record(
                span,
                [
                    s
                    for s in self.tracer.spans[span_mark:]
                    if s.trace_id == span.trace_id
                ],
                shape=shape,
            )
        return result
