"""Dialect base class and the vendor cost profile.

A dialect never executes anything itself; it renders SQL *text* in the
vendor's surface syntax (and says which AST that text stands for, which
local backends execute directly) and maps types both ways. The engine parser
accepts every vendor spelling a dialect can emit, so vendor DDL/DML
round-trips through the engine — this is the "N technologies" half of
the paper's N×S argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConnectionFailedError, SQLTypeError
from repro.common.types import SQLType, TypeKind, sql_repr
from repro.sql import ast


@dataclass(frozen=True)
class CostProfile:
    """Latency constants (milliseconds unless noted) for one vendor.

    Fitted so the simulated testbed reproduces the paper's Table 1 and
    Figures 4-6 shapes; see ``repro/net/costs.py`` for the fit notes.
    """

    connect_ms: float
    auth_ms: float
    per_row_scan_us: float
    per_row_insert_ms: float
    per_statement_ms: float
    commit_ms: float


@dataclass(frozen=True)
class ConnectionURL:
    """A parsed vendor connection URL."""

    vendor: str
    host: str
    port: int
    database: str
    user: str | None = None
    password: str | None = None


class Dialect:
    """Base vendor personality; subclasses override the class attributes."""

    name = "generic"
    display_name = "Generic SQL"
    quote_char = '"'
    limit_style = "limit"  # 'limit' | 'top' | 'client'  (client: middleware truncates)
    supports_multirow_insert = True
    pool_supported = True
    default_port = 5432
    url_scheme = "jdbc:generic"
    cost = CostProfile(
        connect_ms=80.0,
        auth_ms=40.0,
        per_row_scan_us=2.0,
        per_row_insert_ms=0.4,
        per_statement_ms=1.0,
        commit_ms=5.0,
    )
    #: Engine function names this vendor (in its paper-era release)
    #: cannot evaluate; the lint pass flags them before a sub-query ships.
    unsupported_functions: frozenset[str] = frozenset()

    def supports_function(self, name: str) -> bool:
        """Whether the vendor can evaluate the (engine-known) function."""
        return name.upper() not in self.unsupported_functions

    # -- identifiers -------------------------------------------------------------

    def quote_ident(self, name: str) -> str:
        if self.quote_char == "[":
            return f"[{name}]"
        return f"{self.quote_char}{name}{self.quote_char}"

    # -- type mapping ------------------------------------------------------------

    #: logical kind -> vendor type-name template; subclasses override entries.
    _TYPE_NAMES: dict[TypeKind, str] = {
        TypeKind.INTEGER: "INTEGER",
        TypeKind.BIGINT: "BIGINT",
        TypeKind.FLOAT: "FLOAT",
        TypeKind.DOUBLE: "DOUBLE",
        TypeKind.DECIMAL: "DECIMAL({p},{s})",
        TypeKind.VARCHAR: "VARCHAR({n})",
        TypeKind.CHAR: "CHAR({n})",
        TypeKind.TEXT: "TEXT",
        TypeKind.BOOLEAN: "BOOLEAN",
        TypeKind.DATE: "DATE",
        TypeKind.TIMESTAMP: "TIMESTAMP",
        TypeKind.BLOB: "BLOB",
    }

    def format_type(self, sql_type: SQLType) -> str:
        """Render a logical type in this vendor's spelling."""
        template = self._TYPE_NAMES.get(sql_type.kind)
        if template is None:
            raise SQLTypeError(f"{self.display_name} cannot represent {sql_type}")
        return template.format(
            n=sql_type.length or 255,
            p=sql_type.precision if sql_type.precision is not None else 38,
            s=sql_type.scale if sql_type.scale is not None else 0,
        )

    # -- statement rendering -------------------------------------------------------

    def render_create_table(self, name: str, columns) -> str:
        """Vendor DDL for a table; ``columns`` are engine Column objects."""
        defs = []
        pk = [c.name for c in columns if c.primary_key]
        for col in columns:
            parts = [self.quote_ident(col.name), self.format_type(col.type)]
            if col.not_null and not col.primary_key:
                parts.append("NOT NULL")
            if col.has_default:
                parts.append(f"DEFAULT {sql_repr(col.default)}")
            defs.append(" ".join(parts))
        if pk:
            defs.append(f"PRIMARY KEY ({', '.join(self.quote_ident(c) for c in pk)})")
        return f"CREATE TABLE {self.quote_ident(name)} ({', '.join(defs)})"

    def render_insert(
        self, table: str, columns: list[str], rows: list[tuple]
    ) -> list[str]:
        """Vendor INSERT statement(s) for ``rows``.

        Vendors without multi-row VALUES (Oracle 9i/10g of the paper's
        era) get one statement per row — this is a real contributor to
        the mart-loading times in Figure 5.
        """
        col_list = ", ".join(self.quote_ident(c) for c in columns)
        head = f"INSERT INTO {self.quote_ident(table)} ({col_list}) VALUES "
        if self.supports_multirow_insert:
            body = ", ".join(
                "(" + ", ".join(sql_repr(v) for v in row) + ")" for row in rows
            )
            return [head + body]
        return [
            head + "(" + ", ".join(sql_repr(v) for v in row) + ")" for row in rows
        ]

    def vendor_select(self, select: ast.Select) -> tuple[ast.Select, str]:
        """What the vendor receives for ``select``: its AST and its text.

        The AST is what a local backend executes, the text is the same
        statement in vendor syntax; ``parse_statement(text)`` equals the
        AST for any parser-built ``select``. Only the limit spelling
        differs by vendor: ``LIMIT n``, MS-SQL's ``SELECT TOP n``, or —
        for ``limit_style == "client"`` — no limit at all, because the
        vendor has no portable limit clause and the caller truncates
        after fetch.
        """
        if select.limit is None or self.limit_style == "limit":
            return select, select.unparse()
        unlimited = replace(select, limit=None)
        if self.limit_style == "client":
            return unlimited, unlimited.unparse()
        text = unlimited.unparse()
        head = "SELECT DISTINCT" if select.distinct else "SELECT"
        assert text.startswith(head)
        return select, f"{head} TOP {select.limit}{text[len(head):]}"

    def render_select(self, select: ast.Select) -> str:
        """Render a SELECT in vendor syntax (limit spelling differs)."""
        return self.vendor_select(select)[1]

    @property
    def limit_applied_client_side(self) -> bool:
        return self.limit_style == "client"

    # -- connection URLs -------------------------------------------------------------

    def make_url(self, host: str, port: int | None, database: str) -> str:
        port = port or self.default_port
        return f"{self.url_scheme}://{host}:{port}/{database}"

    def parse_url(self, url: str) -> ConnectionURL:
        prefix = f"{self.url_scheme}://"
        if not url.startswith(prefix):
            raise ConnectionFailedError(
                f"URL {url!r} does not match scheme {self.url_scheme!r}"
            )
        rest = url[len(prefix):]
        if "/" not in rest:
            raise ConnectionFailedError(f"URL {url!r} is missing a database name")
        hostport, database = rest.split("/", 1)
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError:
                raise ConnectionFailedError(f"bad port in URL {url!r}") from None
        else:
            host, port = hostport, self.default_port
        if not host or not database:
            raise ConnectionFailedError(f"URL {url!r} is missing host or database")
        return ConnectionURL(self.name, host, port, database)
