"""An independent answer oracle on stdlib ``sqlite3``, and the comparator.

The oracle holds the same generated rows as the federation's ntuple and
run-metadata tables and answers the same SQL text. Answers are compared
as multisets with floats equal to 1e-9 (relative or absolute). For a
``ORDER BY key DESC LIMIT k`` query, rows tied on the key at the limit
boundary may legitimately differ between engines, so the check is
tie-aware: the sequence of sort keys must match the oracle's, and every
returned row must be in the oracle's answer without the limit.
"""

from __future__ import annotations

import math
import sqlite3

TOLERANCE = 1e-9


def same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    numeric = (int, float)
    if (
        isinstance(a, numeric) and isinstance(b, numeric)
        and not isinstance(a, bool) and not isinstance(b, bool)
    ):
        return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    return a == b


def same_row(a, b) -> bool:
    return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))


def _bucket(row) -> tuple:
    """A coarse key under which tolerance-equal rows almost always meet."""
    return tuple(
        round(v, 4) if isinstance(v, float) else v for v in row
    )


def unmatched(rows, pool) -> list:
    """Rows of ``rows`` left over after matching each against a distinct
    tolerance-equal row of ``pool`` (multiset difference rows - pool)."""
    buckets: dict[tuple, list] = {}
    for row in pool:
        buckets.setdefault(_bucket(row), []).append(row)
    left = []
    for row in rows:
        candidates = buckets.get(_bucket(row), [])
        hit = next((i for i, c in enumerate(candidates) if same_row(row, c)), None)
        if hit is None:
            # a float sitting on a rounding edge lands in a neighbour bucket
            for others in buckets.values():
                hit = next((i for i, c in enumerate(others) if same_row(row, c)), None)
                if hit is not None:
                    candidates = others
                    break
        if hit is None:
            left.append(row)
        else:
            candidates.pop(hit)
    return left


def compare(got, want, full=None, key: int | None = None) -> str | None:
    """None when ``got`` is an acceptable answer, else the reason.

    ``want`` is the oracle's answer. For a limited ``ORDER BY`` query,
    ``key`` is the sort column's position and ``full`` the oracle's
    answer without the limit.
    """
    got = [tuple(r) for r in got]
    want = [tuple(r) for r in want]
    if len(got) != len(want):
        return f"{len(got)} rows, oracle has {len(want)}"
    if key is None:
        extra = unmatched(got, want)
        if extra:
            return f"{len(extra)} rows not in the oracle's answer, e.g. {extra[0]!r}"
        return None
    got_keys = [r[key] for r in got]
    want_keys = [r[key] for r in want]
    if not all(same_value(a, b) for a, b in zip(got_keys, want_keys)):
        return f"sort keys {got_keys!r}, oracle has {want_keys!r}"
    extra = unmatched(got, [tuple(r) for r in full])
    if extra:
        return f"{len(extra)} rows not in the oracle's unlimited answer, e.g. {extra[0]!r}"
    return None


class Oracle:
    """In-memory SQLite holding the federation's query-visible tables."""

    def __init__(self, tables: dict[str, tuple[list[str], list[list]]]):
        self.db = sqlite3.connect(":memory:")
        for name, (columns, rows) in tables.items():
            self.db.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            marks = ", ".join("?" for _ in columns)
            self.db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)

    def close(self) -> None:
        self.db.close()

    def answer(self, query) -> tuple[list, list | None, int | None]:
        """``(answer, unlimited answer or None, sort-key position or None)``."""
        cursor = self.db.execute(query.sql)
        rows = cursor.fetchall()
        full = key = None
        if query.limit is not None:
            columns = [d[0].lower() for d in cursor.description]
            key = columns.index(query.order)
            unlimited = query.sql.rsplit(" LIMIT ", 1)[0]
            full = self.db.execute(unlimited).fetchall()
        return rows, full, key

    def check(self, query, got_rows) -> str | None:
        want, full, key = self.answer(query)
        return compare(got_rows, want, full, key)
