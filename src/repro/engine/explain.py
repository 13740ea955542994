"""EXPLAIN: human-readable plan outlines without executing.

``explain_statement`` mirrors the executor's actual decisions — which
access path reads the first table, which join becomes a hash join on
which keys, which conjuncts remain residual, where filters/aggregates/
sorts apply — by running the same analysis the executor would, against
catalog metadata only. EXPLAIN has no parameter values, so a ``?``
bound neither narrows the primary-key range it shows nor makes a column
test.
"""

from __future__ import annotations

from repro.common.types import sql_repr
from repro.engine.executor import (
    column_tests,
    equi_positions,
    pk_range_path,
    split_conjuncts,
)
from repro.sql import ast
from repro.sql.eval import RowSchema, SchemaColumn
from repro.sql.parser import parse_statement


def _schema_for(db, ref: ast.TableRef) -> RowSchema:
    columns, _rows = db.resolve_table(ref.name)
    return RowSchema([SchemaColumn(ref.binding, c.name, c.type) for c in columns])


def _table_size(db, name: str) -> str:
    if db.catalog.has_table(name):
        return f"{db.catalog.get_table(name).row_count} rows"
    return "view"


def explain_select(db, select: ast.Select, indent: str = "") -> list[str]:
    lines: list[str] = []
    if not select.from_:
        lines.append(f"{indent}evaluate scalar select")
        return lines

    first = select.from_[0]
    schema = _schema_for(db, first)
    label = first.name + (f" AS {first.alias}" if first.alias else "")
    size = _table_size(db, first.name)
    path = pk_range_path(select, db, schema)
    if path is None:
        lines.append(f"{indent}scan {label} ({size})")
    else:
        table, lo, hi = path
        key = table.columns[table.range_key()].name
        lines.append(f"{indent}pk range scan {label} on {key} [{lo}, {hi}] ({size})")
    for ref in select.from_[1:]:
        lines.append(
            f"{indent}cross join {ref.name} ({_table_size(db, ref.name)})"
        )
        schema = schema.concat(_schema_for(db, ref))

    for join in select.joins:
        rschema = _schema_for(db, join.table)
        label = f"{join.table.name}" + (
            f" AS {join.table.alias}" if join.table.alias else ""
        )
        if join.kind == "CROSS" or join.on is None:
            lines.append(f"{indent}cross join {label}")
            schema = schema.concat(rschema)
            continue
        equi, residual = [], []
        for conj in split_conjuncts(join.on):
            if equi_positions(conj, schema, rschema) is not None:
                equi.append(conj.unparse())
            else:
                residual.append(conj.unparse())
        if equi:
            lines.append(
                f"{indent}{join.kind.lower()} hash join {label} on "
                + " AND ".join(equi)
            )
            if residual:
                lines.append(f"{indent}  residual: " + " AND ".join(residual))
        else:
            lines.append(
                f"{indent}{join.kind.lower()} nested-loop join {label} on "
                f"{join.on.unparse()}"
            )
        schema = schema.concat(rschema)

    if select.where is not None:
        lines.append(f"{indent}filter: {select.where.unparse()}")
        tests = column_tests(select.where, schema)
        if tests is not None:
            columns = schema.columns
            shown = ", ".join(
                f"{columns[pos].qualifier}.{columns[pos].name} {op} {sql_repr(const)}"
                for pos, op, const in tests
            )
            lines.append(f"{indent}  column tests: {shown}")
    has_agg = bool(select.group_by) or any(
        ast.contains_aggregate(i.expr) for i in select.items
    )
    if has_agg:
        aggs = sorted(
            {
                node.unparse()
                for item in select.items
                for node in ast.walk(item.expr)
                if isinstance(node, ast.FunctionCall)
                and node.name.upper() in ast.AGGREGATE_FUNCTIONS
            }
        )
        group = ", ".join(g.unparse() for g in select.group_by) or "<all rows>"
        lines.append(f"{indent}aggregate [{', '.join(aggs)}] group by {group}")
        if select.having is not None:
            lines.append(f"{indent}having: {select.having.unparse()}")
    lines.append(
        f"{indent}project: " + ", ".join(i.unparse() for i in select.items)
    )
    if select.order_by:
        lines.append(
            f"{indent}sort: " + ", ".join(o.unparse() for o in select.order_by)
        )
    if select.distinct:
        lines.append(f"{indent}distinct")
    if select.limit is not None or select.offset is not None:
        lines.append(
            f"{indent}limit {select.limit}"
            + (f" offset {select.offset}" if select.offset else "")
        )
    return lines


def explain_statement(db, sql: str | ast.Statement) -> list[str]:
    """Plan outline for a SELECT or UNION (DDL/DML explain trivially)."""
    stmt = parse_statement(sql) if isinstance(sql, str) else sql
    if isinstance(stmt, ast.Select):
        return explain_select(db, stmt)
    if isinstance(stmt, ast.Union):
        lines = [f"union{' all' if stmt.all else ''} of {len(stmt.selects)} branches:"]
        for i, branch in enumerate(stmt.selects, start=1):
            lines.append(f"  branch {i}:")
            lines.extend(explain_select(db, branch, indent="    "))
        if stmt.order_by:
            lines.append(
                "  sort: " + ", ".join(o.unparse() for o in stmt.order_by)
            )
        if stmt.limit is not None:
            lines.append(f"  limit {stmt.limit}")
        return lines
    return [f"{type(stmt).__name__.lower()}: {stmt.unparse()}"]
