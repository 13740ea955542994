"""DB-API-flavoured connections and cursors over the simulated drivers.

``connect()`` performs the full vendor handshake — URL sniff, directory
lookup, credential check — and charges the dialect's connect+auth cost
to the supplied virtual clock. The prototype in the paper opens a fresh
connection per (query, database) with no pooling; the >10× response-time
penalty of distributed queries in Table 1 comes largely from here.
"""

from __future__ import annotations

from repro.common.errors import DriverError
from repro.driver.directory import Directory, GLOBAL_DIRECTORY
from repro.driver.url import sniff_vendor
from repro.engine.database import Database, ExecResult
from repro.sql import ast


class _NullClock:
    """Clock stub used when no virtual clock is supplied."""

    def advance_ms(self, ms: float) -> None:  # pragma: no cover - trivial
        """No-op time sink for unclocked connections."""
        pass


class Cursor:
    """Executes statements on one connection; DB-API fetch surface."""

    def __init__(self, connection: "Connection"):
        self.connection = connection
        self._result: ExecResult | None = None
        self._fetch_pos = 0
        self.arraysize = 100

    # -- execution -------------------------------------------------------------

    def execute(
        self, sql: str, params: tuple = (), statement: ast.Statement | None = None
    ) -> "Cursor":
        """Run one statement and expose its result on this cursor.

        ``statement``, when given, is ``sql`` already parsed (a router
        hands over the sub-query AST it rendered ``sql`` from); the
        database then executes it without parsing the text again. The
        statement and scan charges are the same either way.
        """
        conn = self.connection
        if conn.closed:
            raise DriverError("cursor used after connection close")
        cost = conn.dialect.cost
        conn.clock.advance_ms(cost.per_statement_ms)
        if statement is None:
            result = conn.database.execute(sql, params)
        else:
            result = conn.database.execute_statement(statement, params, sql_text=sql)
        # Scan cost is charged for the cost model's rows examined: a full
        # scan's count, whichever access path the executor took.
        conn.clock.advance_ms(result.stats.rows_examined * cost.per_row_scan_us / 1000.0)
        if result.rowcount and not result.rows:
            # DML: inserts/updates pay per-row write cost plus a commit.
            conn.clock.advance_ms(result.rowcount * cost.per_row_insert_ms)
            conn.clock.advance_ms(cost.commit_ms)
        self._result = result
        self._fetch_pos = 0
        return self

    # -- results ----------------------------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        """DB-API 7-tuples describing the current result columns."""
        if self._result is None or not self._result.columns:
            return None
        return [
            (name, str(ctype), None, None, None, None, None)
            for name, ctype in zip(self._result.columns, self._result.types)
        ]

    @property
    def rowcount(self) -> int:
        """Affected/returned row count of the last statement (-1 before any)."""
        if self._result is None:
            return -1
        return self._result.rowcount

    @property
    def columns(self) -> list[str]:
        """Column names of the current result set."""
        return [] if self._result is None else list(self._result.columns)

    @property
    def types(self) -> list:
        """Logical column types of the current result set."""
        return [] if self._result is None else list(self._result.types)

    def fetchone(self) -> tuple | None:
        """Next row of the result set, or None when exhausted."""
        if self._result is None:
            raise DriverError("fetch before execute")
        if self._fetch_pos >= len(self._result.rows):
            return None
        row = self._result.rows[self._fetch_pos]
        self._fetch_pos += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        """Up to ``size`` rows (default ``arraysize``)."""
        if self._result is None:
            raise DriverError("fetch before execute")
        size = size or self.arraysize
        rows = self._result.rows[self._fetch_pos : self._fetch_pos + size]
        self._fetch_pos += len(rows)
        return rows

    def fetchall(self) -> list[tuple]:
        """Every remaining row of the result set."""
        if self._result is None:
            raise DriverError("fetch before execute")
        rows = self._result.rows[self._fetch_pos :]
        self._fetch_pos = len(self._result.rows)
        return rows

    def __iter__(self):
        """Iterate remaining rows, DB-API style."""
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        """Release this object; it must not be used afterwards."""
        self._result = None


class Connection:
    """One authenticated session against one vendor database."""

    def __init__(self, binding, dialect, clock):
        self._binding = binding
        self.dialect = dialect
        self.clock = clock
        self.closed = False

    @property
    def database(self) -> Database:
        """The engine instance this connection is bound to."""
        return self._binding.database

    @property
    def url(self) -> str:
        """The connection URL this session was opened against."""
        return self._binding.url

    @property
    def vendor(self) -> str:
        """Vendor (dialect) name of the connected database."""
        return self.dialect.name

    def cursor(self) -> Cursor:
        """A new cursor over this connection."""
        if self.closed:
            raise DriverError("connection is closed")
        return Cursor(self)

    def execute(
        self, sql: str, params: tuple = (), statement: ast.Statement | None = None
    ) -> Cursor:
        """Convenience: cursor + execute in one call (see :meth:`Cursor.execute`)."""
        return self.cursor().execute(sql, params, statement)

    def close(self) -> None:
        """Release this object; it must not be used afterwards."""
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(
    url: str,
    user: str = "grid",
    password: str = "grid",
    directory: Directory | None = None,
    clock=None,
) -> Connection:
    """Open a connection to the database serving ``url``.

    Charges the vendor's connect and authentication latency to ``clock``
    (any object with ``advance_ms``); with no clock the call is free,
    which is what unit tests want.
    """
    directory = directory or GLOBAL_DIRECTORY
    clock = clock or _NullClock()
    dialect, _parsed = sniff_vendor(url)
    binding = directory.lookup(url)
    clock.advance_ms(dialect.cost.connect_ms)
    binding.check_credentials(user, password)
    clock.advance_ms(dialect.cost.auth_ms)
    return Connection(binding, dialect, clock)
