"""The vendor-neutral relational abstraction layer with cached handles."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import UnsupportedVendorError
from repro.driver.connection import Connection, connect
from repro.driver.directory import Directory
from repro.driver.url import sniff_vendor
from repro.net import costs
from repro.sql import ast


@dataclass
class RALHandle:
    """One initialized POOL session (paper wrapper method 1 output)."""

    url: str
    connection: Connection
    queries_executed: int = 0


class PoolRAL:
    """Handle cache + vendor-neutral execution."""

    def __init__(self, directory: Directory, clock):
        self.directory = directory
        self.clock = clock
        self._handles: dict[str, RALHandle] = {}

    # -- handles ------------------------------------------------------------------

    def supports_url(self, url: str) -> bool:
        """True when POOL's vendor matrix covers this database."""
        dialect, _ = sniff_vendor(url)
        return dialect.pool_supported

    def has_handle(self, url: str) -> bool:
        return url in self._handles

    def initialize(self, url: str, user: str = "grid", password: str = "grid") -> RALHandle:
        """Initialize (or return the cached) session handle for ``url``."""
        cached = self._handles.get(url)
        if cached is not None:
            return cached
        dialect, _ = sniff_vendor(url)
        if not dialect.pool_supported:
            raise UnsupportedVendorError(
                f"{dialect.display_name} is not supported by POOL-RAL"
            )
        self.clock.advance_ms(costs.POOL_INIT_HANDLE_MS)
        connection = connect(
            url, user, password, directory=self.directory, clock=self.clock
        )
        handle = RALHandle(url=url, connection=connection)
        self._handles[url] = handle
        return handle

    def release(self, url: str) -> None:
        handle = self._handles.pop(url, None)
        if handle is not None:
            handle.connection.close()

    def handle_count(self) -> int:
        return len(self._handles)

    # -- execution -----------------------------------------------------------------

    def execute_sql(
        self, url: str, sql: str, params: tuple = (), statement: ast.Statement | None = None
    ):
        """Run SQL through an initialized handle; returns the cursor.

        Unlike the JDBC path, no connect/auth is paid here — the handle
        was initialized once at registration time. ``statement`` is
        ``sql`` already parsed, as the router hands it over; the backend
        then runs it without a second parse.
        """
        handle = self._handles.get(url)
        if handle is None:
            handle = self.initialize(url)
        self.clock.advance_ms(costs.POOL_CALL_MS)
        cursor = handle.connection.execute(sql, params, statement)
        handle.queries_executed += 1
        return cursor
