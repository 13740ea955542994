"""Exactness of the write-path and result-shaping kernels.

Each property runs a fast path against the per-value code it replaced:
the joined-string row size against the per-value sum, native sort keys
against ``_SortKey``, the itemgetter projection against the compiled
column closures, the INSERT coercion skip against ``coerce_value``, and
the on-read ``byte_size`` against the rows it sums over. Results are
compared by ``repr`` so ``1``, ``1.0`` and ``True`` (equal as values),
``0.0`` and ``-0.0``, and NaN all have to match exactly.
"""

import contextlib
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SQLType
from repro.common.errors import ReproError
from repro.common.types import TypeKind, coerce_value
from repro.engine import Column, Database, TableStorage
from repro.engine import executor as executor_mod
from repro.engine.executor import _SortKey, sort_rows
from repro.engine.storage import estimate_row_bytes, estimate_value_bytes

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]
)
INTS = st.integers() | st.integers(min_value=-(10**200), max_value=10**200)
TEXT = st.text() | st.sampled_from(["", "é", "\U0001f600", "日本語", "a\x00b"])
FAST_VALUES = st.none() | INTS | FLOATS | TEXT
ANY_VALUES = FAST_VALUES | st.booleans() | st.binary() | st.binary().map(bytearray)


def per_value_row_bytes(row) -> int:
    return sum(estimate_value_bytes(v) for v in row) + len(row)


class TestRowBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_VALUES, max_size=12).map(tuple))
    def test_mixed_rows_match_per_value_sum(self, row):
        assert estimate_row_bytes(row) == per_value_row_bytes(row)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FAST_VALUES, max_size=12).map(tuple))
    def test_joined_string_path_matches_per_value_sum(self, row):
        assert estimate_row_bytes(row) == per_value_row_bytes(row)

    def test_slow_path_types(self):
        """bool sizes as 1, not len('True'); bytes by length, not repr."""
        assert estimate_row_bytes((True, False, None)) == 1 + 1 + 4 + 3
        assert estimate_row_bytes((b"abc", bytearray(b"xy"))) == 3 + 2 + 2

    def test_int_subclass_takes_per_value_path(self):
        class Flag(int):
            def __str__(self):
                return "flag"

        assert estimate_row_bytes((Flag(7),)) == per_value_row_bytes((Flag(7),))


# -- sorting ----------------------------------------------------------------------


def reference_sort(rows, keys):
    """ORDER BY as it was: one stable ``_SortKey`` pass per key."""
    out = list(rows)
    for fn, ascending in reversed(keys):
        out.sort(key=lambda r, f=fn: _SortKey(f(r)), reverse=not ascending)
    return out


@contextlib.contextmanager
def reference_paths():
    """Run the engine with the replaced code: ``_SortKey`` sorting and
    closure-only projection."""
    with mock.patch.object(
        executor_mod, "sort_rows", reference_sort
    ), mock.patch("repro.engine.database.sort_rows", reference_sort), mock.patch.object(
        executor_mod, "_column_positions", lambda items, schema: None
    ):
        yield


NUMERIC_KEYS = st.none() | st.integers(-3, 3) | st.booleans() | st.sampled_from(
    [0.5, -0.0, 0.0, 2.0, float("nan"), float("inf"), float("-inf")]
)
STRING_KEYS = st.none() | st.sampled_from(["", "a", "B", "b", "é", "\U0001f600", "10", "9"])
MIXED_KEYS = NUMERIC_KEYS | STRING_KEYS | st.sampled_from([b"a", b"", (1,)])
KEY_COLUMNS = st.sampled_from([NUMERIC_KEYS, STRING_KEYS, st.none(), MIXED_KEYS])


@st.composite
def keyed_rows(draw):
    """Rows of three key columns, each column drawn from one value family."""
    families = [draw(KEY_COLUMNS) for _ in range(3)]
    n = draw(st.integers(0, 25))
    rows = [tuple(draw(f) for f in families) + (i,) for i in range(n)]
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3
        )
    )
    return rows, [(itemgetter(i), asc) for i, asc in keys]


class TestSortRows:
    @settings(max_examples=400, deadline=None)
    @given(keyed_rows())
    def test_native_keys_match_sortkey_sort(self, case):
        rows, keys = case
        assert repr(sort_rows(rows, keys)) == repr(reference_sort(rows, keys))

    def test_nulls_last_ascending_first_descending(self):
        rows = [(None,), (2,), (1.5,), (None,), (True,)]
        asc = sort_rows(rows, [(itemgetter(0), True)])
        assert asc == [(True,), (1.5,), (2,), (None,), (None,)]
        desc = sort_rows(rows, [(itemgetter(0), False)])
        assert desc == [(None,), (None,), (2,), (1.5,), (True,)]

    def test_mixed_column_keeps_str_fallback(self):
        """10 against '9' compares '10' < '9' as text, not 9 < 10."""
        rows = [("9",), (None,), (10,)]
        assert sort_rows(rows, [(itemgetter(0), True)]) == [(10,), ("9",), (None,)]


@st.composite
def typed_table(draw):
    n = draw(st.integers(0, 20))
    return [
        [
            i,
            draw(st.none() | st.integers(-3, 3)),
            draw(st.none() | st.sampled_from([0.5, -0.0, 0.0, 2.0, float("nan")])),
            draw(st.none() | st.booleans()),
            draw(st.none() | st.sampled_from(["", "a", "B", "é", "\U0001f600"])),
        ]
        for i in range(n)
    ]


def _typed_db(rows) -> Database:
    db = Database("k", "generic")
    db.execute(
        "CREATE TABLE t (id INTEGER, n INTEGER, x DOUBLE, b BOOLEAN, s VARCHAR(8))"
    )
    db.execute("CREATE TABLE u (id INTEGER, n INTEGER, s VARCHAR(8))")
    db.bulk_insert("t", rows)
    db.bulk_insert("u", [[r[0], r[1], r[4]] for r in rows[::2]])
    return db


ORDER_COLUMNS = ["n", "x", "b", "s"]
ORDER_BY = st.lists(
    st.tuples(st.sampled_from(ORDER_COLUMNS), st.booleans()), min_size=1, max_size=3
).map(lambda keys: ", ".join(f"{c} {'ASC' if a else 'DESC'}" for c, a in keys))


def _same_under_reference(db, sql):
    fast = db.execute(sql).rows
    with reference_paths():
        slow = db.execute(sql).rows
    assert repr(fast) == repr(slow), sql


class TestSqlPaths:
    @settings(max_examples=120, deadline=None)
    @given(typed_table(), ORDER_BY)
    def test_order_by(self, rows, order):
        _same_under_reference(_typed_db(rows), f"SELECT id, n, x, b, s FROM t ORDER BY {order}")

    @settings(max_examples=120, deadline=None)
    @given(typed_table(), ORDER_BY)
    def test_union_order_by(self, rows, order):
        db = _typed_db(rows)
        _same_under_reference(
            db,
            "SELECT n, x, b, s FROM t WHERE id < 10 UNION "
            f"SELECT n, x, b, s FROM t WHERE id >= 5 ORDER BY {order}",
        )

    @settings(max_examples=60, deadline=None)
    @given(typed_table(), st.booleans())
    def test_union_mixed_int_and_string_column(self, rows, ascending):
        """A UNION can carry ints and strings in one column: the sort
        must fall back to ``_SortKey``'s str comparison."""
        direction = "ASC" if ascending else "DESC"
        _same_under_reference(
            _typed_db(rows),
            f"SELECT n AS k FROM t UNION ALL SELECT s FROM t ORDER BY k {direction}",
        )

    @settings(max_examples=120, deadline=None)
    @given(
        typed_table(),
        st.sampled_from(
            [
                "*",
                "t.*",
                "s",
                "t.x",
                "n, n, s, n",
                "b, t.*, id",
                "t.*, u.*",
                "u.s, t.s, t.id",
                "*, u.n",
            ]
        ),
        st.booleans(),
    )
    def test_column_only_projection(self, rows, items, join):
        db = _typed_db(rows)
        if "u." in items or (items == "*" and join):
            source = "t JOIN u ON t.id = u.id"
        else:
            source = "t"
        _same_under_reference(db, f"SELECT {items} FROM {source}")
        _same_under_reference(db, f"SELECT {items} FROM {source} ORDER BY t.id DESC")

    def test_projection_fast_path_is_taken(self):
        db = _typed_db([[1, 2, 0.5, True, "a"]])
        positions = []
        original = executor_mod._column_positions

        def spy(items, schema):
            positions.append(original(items, schema))
            return positions[-1]

        with mock.patch.object(executor_mod, "_column_positions", spy):
            assert db.execute("SELECT s, id, s FROM t").rows == [("a", 1, "a")]
            assert db.execute("SELECT n + 1 FROM t").rows == [(3,)]
        assert positions == [[4, 0, 4], None]


# -- INSERT coercion --------------------------------------------------------------

COLUMN_TYPES = [
    SQLType.integer(),
    SQLType.bigint(),
    SQLType(TypeKind.FLOAT),
    SQLType.double(),
    SQLType.decimal(10, 2),
    SQLType.varchar(16),
    SQLType.boolean(),
]
INSERT_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | FLOATS
    | st.sampled_from(["7", " 8 ", "1.5", "true", "x"])
)


class TestCoercionSkip:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(COLUMN_TYPES), INSERT_VALUES)
    def test_stored_value_is_coerce_value(self, ctype, value):
        table = TableStorage("t", [Column("c", ctype)])
        try:
            expected = coerce_value(value, ctype)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                table.insert([value])
            return
        (stored,) = table.insert([value])
        assert repr(stored) == repr(expected)
        assert type(stored) is type(expected)

    def test_not_null_still_enforced(self):
        table = TableStorage("t", [Column("c", SQLType.integer(), not_null=True)])
        with pytest.raises(ReproError):
            table.insert([None])


# -- on-read byte_size --------------------------------------------------------------


class TestByteSize:
    def test_byte_size_follows_every_mutation(self):
        table = TableStorage(
            "t",
            [
                Column("id", SQLType.integer(), primary_key=True),
                Column("x", SQLType.double()),
                Column("s", SQLType.varchar(8)),
            ],
        )

        def summed():
            return sum(estimate_row_bytes(r) for r in table.rows)

        assert table.byte_size == 0
        table.insert([1, 0.5, "a"])
        assert table.byte_size == summed() > 0
        table.append_rows([[2, None, "bb"], [3, -1.25, None]])
        assert table.byte_size == summed()
        table.delete_where(lambda r: r[0] != 2)
        assert table.byte_size == summed()
        table.replace_rows([(1, 1e300, "ccc"), (3, 2.0, "d")])
        assert table.byte_size == summed()
        table.add_column(Column("flag", SQLType.boolean(), default=True, has_default=True))
        assert table.byte_size == summed()
        table.drop_column("x")
        assert table.byte_size == summed() == (1 + 3 + 1 + 3) + (1 + 1 + 1 + 3)
