"""Exactness of the executor's column kernels.

Each kernel is run against the per-row code it stands in for:

- the column-test WHERE filter against the compiled row predicate (the
  kernel switched off by patching ``column_tests``), on columns mixing
  ``int``/``float``/``bool``/``str``/NULL with NaN, infinities, -0.0 and
  integers next to 2**53: rows *and order*, ``rows_examined``, and
  ``SQLTypeError`` raised by both paths or by neither;
- the positional hash join against a tuple-key reference join;
- positional GROUP BY and column aggregate arguments against the same
  query with every column wrapped in ``COALESCE(...)``, which keeps the
  compiled-closure path, and the HAVING column tests against the row
  predicate;
- all three against stdlib ``sqlite3`` as a multiset oracle, on NaN-free
  data (sqlite stores NaN as NULL).

Rows are compared by ``repr`` so ``1``, ``1.0`` and ``True`` (equal as
values), ``0.0`` and ``-0.0``, and NaN all have to match exactly. The
tables are served by a resolver over raw row lists declared ``BLOB``, so
values reach the executor uncoerced and the static type check leaves
every comparison to the runtime.
"""

import contextlib
import math
import sqlite3
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import sql_repr
from repro.common.errors import SQLTypeError
from repro.common.types import SQLType, TypeKind
from repro.engine import Column, Database
from repro.engine import executor as executor_mod
from repro.engine.executor import (
    SelectExecutor,
    column_tests,
    equi_positions,
    filter_rows,
)
from repro.sql import ast, parse_statement
from repro.sql.eval import RowSchema, SchemaColumn

BLOB = SQLType(TypeKind.BLOB)
NAN = float("nan")


class _Int(int):
    """An int subclass: the row predicate accepts it, the kernel must not."""


class _Str(str):
    """A str subclass, likewise."""


class Tables:
    """A resolver over raw row lists (no coercion, no storage)."""

    def __init__(self, **tables):
        self.tables = {
            name: ([Column(c, BLOB) for c in columns], rows)
            for name, (columns, rows) in tables.items()
        }

    def resolve_table(self, name):
        return self.tables[name.lower()]

    def base_table(self, name):
        return None


def run(resolver, sql, params=()):
    """``(repr(rows), rows_examined)``, or the name of the error raised."""
    try:
        result = SelectExecutor(resolver, params).execute(parse_statement(sql))
    except SQLTypeError:
        return "SQLTypeError"
    return repr(result.rows), result.stats.rows_examined


def row_predicate_only():
    """Switch the column-test kernel off: the WHERE runs row by row."""
    return mock.patch.object(executor_mod, "column_tests", lambda *args: None)


def schema_of(*names):
    return RowSchema([SchemaColumn("t", n, BLOB) for n in names])


# -- WHERE column tests ------------------------------------------------------------

NUMBERS = (
    st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.sampled_from(
        [
            2**53, 2**53 + 1, -(2**53) - 1, 2.0**53, 9007199254740992.0,
            0.0, -0.0, 0.5, NAN, float("inf"), float("-inf"),
        ]
    )
    | st.floats(allow_nan=True)
)
TEXT = st.sampled_from(["", "a", "b", "ab", "A", "é", "1"])
COLUMN_VALUES = {
    "num": NUMBERS | st.booleans(),
    "str": TEXT,
    "any": NUMBERS | st.booleans() | TEXT | st.none() | st.sampled_from([_Int(1), _Str("a")]),
}
#: constants that never make a column test: the kernel must decline them
ODD_CONSTANTS = st.sampled_from([True, False, None, _Int(1), _Str("a")])
OPS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def filter_tables(draw):
    flavours = [draw(st.sampled_from(sorted(COLUMN_VALUES))) for _ in "abc"]
    n = draw(st.integers(0, 12))
    return [
        tuple(draw(COLUMN_VALUES[f]) for f in flavours) for _ in range(n)
    ]


@st.composite
def where_clauses(draw):
    """1-3 tests (either operand order, BETWEEN, ``?`` parameters) and
    sometimes a conjunct no kernel handles; returns (sql, params)."""
    params = []

    def constant():
        value = draw(ODD_CONSTANTS if draw(st.integers(0, 9)) == 0 else NUMBERS | TEXT)
        # NaN, infinities and the odd constants have no literal: bind them
        literal = type(value) in (int, str) or type(value) is float and math.isfinite(value)
        if draw(st.booleans()) or not literal:
            params.append(value)
            return "?"
        return sql_repr(value)

    parts = []
    for _ in range(draw(st.integers(1, 3))):
        col = draw(st.sampled_from("abc"))
        if draw(st.integers(0, 3)) == 0:
            negated = "NOT " if draw(st.integers(0, 4)) == 0 else ""
            parts.append(f"{col} {negated}BETWEEN {constant()} AND {constant()}")
        else:
            op, const = draw(st.sampled_from(OPS)), constant()
            parts.append(f"{col} {op} {const}" if draw(st.booleans()) else f"{const} {op} {col}")
    if draw(st.integers(0, 5)) == 0:
        parts.append(draw(st.sampled_from(["a IS NOT NULL", "(b = 1 OR c = 2)", "a = b"])))
    return " AND ".join(parts), tuple(params)


class TestColumnTestPlanning:
    @pytest.mark.parametrize(
        "where, params, tests",
        [
            ("a < 3", (), [(0, "<", 3)]),
            ("3 < a", (), [(0, ">", 3)]),
            ("2.5 >= b", (), [(1, "<=", 2.5)]),
            ("a <> 'x'", (), [(0, "<>", "x")]),
            ("'x' <> a", (), [(0, "<>", "x")]),
            ("'x' = c", (), [(2, "=", "x")]),
            (
                "a BETWEEN 1 AND 2.5 AND b = 'x'",
                (),
                [(0, ">=", 1), (0, "<=", 2.5), (1, "=", "x")],
            ),
            ("a = ? AND ? > c", (2, "m"), [(0, "=", 2), (2, "<", "m")]),
            ("t.a >= -1", (), [(0, ">=", -1)]),
            ("a NOT BETWEEN 1 AND 2", (), None),
            ("a BETWEEN 1 AND ?", (None,), None),
            ("a = TRUE", (), None),
            ("a = NULL", (), None),
            ("a = ?", (True,), None),
            ("a = ?", (_Int(2),), None),
            ("a = ?", (), None),
            ("a = b", (), None),
            ("1 = 1", (), None),
            ("a < 3 OR b < 2", (), None),
            ("a < 3 AND a IS NULL", (), None),
            ("a + 1 < 3", (), None),
            ("NOT (a < 3)", (), None),
            ("zz < 3", (), None),
        ],
    )
    def test_forms(self, where, params, tests):
        expr = parse_statement(f"SELECT * FROM t WHERE {where}").where
        assert column_tests(expr, schema_of("a", "b", "c"), params) == tests


class TestFilterRows:
    ROWS = [(1, "x"), (2.5, "y"), (True, "z"), (-0.0, "")]

    def test_numeric_column_with_bool(self):
        assert filter_rows(self.ROWS, [(0, ">=", 1)]) == [(1, "x"), (2.5, "y"), (True, "z")]

    def test_conjunction_keeps_order(self):
        tests = [(0, "<", 3), (1, ">", "x")]
        assert filter_rows(self.ROWS, tests) == [(2.5, "y"), (True, "z")]

    @pytest.mark.parametrize(
        "rows, test",
        [
            ([(1,), (None,)], (0, "<", 3)),  # NULL
            ([(1,), ("a",)], (0, "<", 3)),  # type mix
            ([(1,), (_Int(2),)], (0, "<", 3)),  # subclass
            ([("a",), (_Str("b"),)], (0, "<", "z")),
            ([(True,)], (0, "=", "x")),  # bool against a string
            ([("1",)], (0, "=", 1)),  # string against a number
        ],
    )
    def test_declines(self, rows, test):
        assert filter_rows(rows, [test]) is None

    def test_every_column_checked_before_any_mask(self):
        """A later test's bad column declines, even when an earlier test
        already excludes that row."""
        assert filter_rows([(0, "a"), (5, None)], [(0, "<", 1), (1, "=", "a")]) is None

    def test_empty_input(self):
        assert filter_rows([], [(0, "<", 1)]) == []

    def test_executor_uses_kernel(self):
        resolver = Tables(t=(["a", "b"], [(1, "x"), (2, "y"), (3, "z")]))
        with mock.patch.object(executor_mod, "filter_rows", wraps=filter_rows) as spy:
            assert run(resolver, "SELECT b FROM t WHERE a BETWEEN 2 AND 9") == (
                "[('y',), ('z',)]", 6,
            )
        assert spy.call_args.args[1] == [(0, ">=", 2), (0, "<=", 9)]


class TestFilterExactness:
    @settings(max_examples=250, deadline=None)
    @given(rows=filter_tables(), where=where_clauses())
    def test_matches_row_predicate(self, rows, where):
        sql, params = where
        resolver = Tables(t=(["a", "b", "c"], rows))
        query = f"SELECT * FROM t WHERE {sql}"
        kernel = run(resolver, query, params)
        with row_predicate_only():
            assert kernel == run(resolver, query, params)

    @settings(max_examples=100, deadline=None)
    @given(rows=filter_tables(), where=where_clauses())
    def test_matches_row_predicate_after_a_join(self, rows, where):
        """The WHERE over a joined schema, as in the integrator's query."""
        sql, params = where
        resolver = Tables(t=(["a", "b", "c"], rows), u=(["k"], [(0,), (1,)]))
        query = f"SELECT * FROM u JOIN t ON u.k = t.a WHERE {sql}"
        kernel = run(resolver, query, params)
        with row_predicate_only():
            assert kernel == run(resolver, query, params)


class TestExplain:
    @pytest.fixture
    def db(self):
        d = Database("x", "generic")
        d.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, e DOUBLE, s VARCHAR(8))")
        d.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, s VARCHAR(8))")
        return d

    def test_column_tests_line_follows_filter(self, db):
        lines = db.explain("SELECT id FROM t n WHERE e < 40.5 AND 's' <= n.s AND id BETWEEN 2 AND 9")
        i = lines.index("filter: (((e < 40.5) AND ('s' <= n.s)) AND (id BETWEEN 2 AND 9))")
        assert lines[0] == "pk range scan t AS n on id [2, 9] (0 rows)"
        assert lines[i + 1] == "  column tests: n.e < 40.5, n.s >= 's', n.id >= 2, n.id <= 9"

    def test_over_a_joined_schema(self, db):
        lines = db.explain("SELECT t.id FROM t JOIN u ON t.id = u.id WHERE u.s = 'a'")
        assert "  column tests: u.s = 'a'" in lines

    @pytest.mark.parametrize(
        "where", ["e < ?", "e < 1 OR e > 2", "e NOT BETWEEN 1 AND 2", "e < 1 AND s IS NULL"]
    )
    def test_no_line_when_the_kernel_cannot_plan(self, db, where):
        lines = db.explain(f"SELECT id FROM t WHERE {where}")
        assert not any("column tests" in line for line in lines)


# -- positional hash join ----------------------------------------------------------

JOIN_KEYS = st.sampled_from([None, 0, 1, 1.0, True, False, 0.0, -0.0, 2, "a", "1", NAN]) | st.floats(
    allow_nan=True
)
RESIDUAL_VALUES = st.none() | st.integers(0, 3)


def join_tables():
    """l (k1, k2, v) and r (v, k2, k1): the key positions differ by side."""
    left = st.tuples(JOIN_KEYS, JOIN_KEYS, RESIDUAL_VALUES)
    right = st.tuples(RESIDUAL_VALUES, JOIN_KEYS, JOIN_KEYS)
    return st.lists(left, max_size=10), st.lists(right, max_size=10)


def reference_join(lrows, rrows, lpos, rpos, kind, residual):
    """Tuple-key hash join as the executor did it with compiled key
    functions; returns (rows, rows examined including both scans)."""
    table = {}
    for rr in rrows:
        key = tuple(rr[p] for p in rpos)
        if any(k is None for k in key):
            continue
        table.setdefault(key, []).append(rr)
    out = []
    for lr in lrows:
        key = tuple(lr[p] for p in lpos)
        matched = False
        for rr in [] if any(k is None for k in key) else table.get(key, []):
            if residual is None or residual(lr, rr):
                out.append(lr + rr)
                matched = True
        if not matched and kind == "LEFT":
            out.append(lr + (None,) * 3)
    return out, 2 * (len(lrows) + len(rrows))


def less_than(lr, rr):
    """The residual ``l.v < r.v``."""
    return lr[2] is not None and rr[0] is not None and lr[2] < rr[0]


class TestEquiPositions:
    L = RowSchema([SchemaColumn("l", n, BLOB) for n in ("k1", "k2", "v")])
    R = RowSchema([SchemaColumn("r", n, BLOB) for n in ("k1", "x")])

    @pytest.mark.parametrize(
        "on, positions",
        [
            ("l.k1 = r.k1", (0, 0)),
            ("r.x = l.v", (2, 1)),
            ("l.k2 = r.k1", (1, 0)),
            ("v = x", (2, 1)),
            ("l.k1 = l.k2", None),
            ("k1 = r.x", None),  # k1 is ambiguous
            ("l.k1 < r.k1", None),
            ("l.k1 = 1", None),
            ("l.k1 = r.nope", None),
        ],
    )
    def test_sides(self, on, positions):
        conj = parse_statement(f"SELECT * FROM l JOIN r ON {on}").joins[0].on
        assert equi_positions(conj, self.L, self.R) == positions


class TestHashJoinExactness:
    @settings(max_examples=200, deadline=None)
    @given(
        tables=st.tuples(*join_tables()),
        kind=st.sampled_from(["INNER", "LEFT"]),
        two_keys=st.booleans(),
        residual=st.booleans(),
    )
    def test_matches_tuple_key_reference(self, tables, kind, two_keys, residual):
        lrows, rrows = tables
        on = "l.k1 = r.k1" + (" AND r.k2 = l.k2" if two_keys else "")
        on += " AND l.v < r.v" if residual else ""
        resolver = Tables(l=(["k1", "k2", "v"], lrows), r=(["v", "k2", "k1"], rrows))
        got = run(resolver, f"SELECT * FROM l {kind} JOIN r ON {on}")
        lpos, rpos = ([0, 1], [2, 1]) if two_keys else ([0], [2])
        rows, examined = reference_join(
            lrows, rrows, lpos, rpos, kind, less_than if residual else None
        )
        assert got == (repr(rows), examined)

    @pytest.mark.parametrize("kind", ["INNER", "LEFT"])
    def test_null_keys_never_match(self, kind):
        """A NULL in any key position matches nothing, not even the same
        NULL at the same position of a right row (tuples compare
        elements by identity first)."""
        lrows = [(None, 1, 0), (1, None, 0), (None, None, 0)]
        rrows = [(0, 1, None), (0, None, 1), (0, None, None)]
        resolver = Tables(l=(["k1", "k2", "v"], lrows), r=(["v", "k2", "k1"], rrows))
        rows, _ = run(resolver, f"SELECT * FROM l {kind} JOIN r ON l.k1 = r.k1 AND l.k2 = r.k2")
        assert rows == repr([lr + (None,) * 3 for lr in lrows] if kind == "LEFT" else [])

    def test_numeric_keys_match_across_types(self):
        resolver = Tables(l=(["k"], [(1,), (True,), (2.0,)]), r=(["k"], [(1.0,), (2,), (None,)]))
        rows, _ = run(resolver, "SELECT * FROM l JOIN r ON l.k = r.k")
        assert rows == "[(1, 1.0), (True, 1.0), (2.0, 2)]"

    def test_nan_key_matches_only_itself(self):
        other_nan = float("nan")
        resolver = Tables(l=(["k"], [(NAN,), (other_nan,)]), r=(["k"], [(NAN,)]))
        rows, _ = run(resolver, "SELECT * FROM l LEFT JOIN r ON l.k = r.k")
        assert rows == "[(nan, nan), (nan, None)]"

    def test_text_never_matches_a_number(self):
        """The ON clause hash-matches and never compares, so a VARCHAR =
        INTEGER equi-join finds no rows rather than raising."""
        resolver = Tables(l=(["k"], [("1",)]), r=(["k"], [(1,)]))
        assert run(resolver, "SELECT * FROM l JOIN r ON l.k = r.k")[0] == "[]"


# -- positional GROUP BY and aggregate arguments -----------------------------------

GROUP_VALUES = st.sampled_from([None, 0, 1, 1.0, True, -0.0, 0.0, NAN, "a", "b"]) | st.floats(
    allow_nan=True
)
AGG_NUMBERS = st.none() | st.integers(-5, 5) | st.floats(allow_nan=True) | st.booleans()
AGG_ANY = AGG_NUMBERS | TEXT
AGGREGATES = (
    "COUNT(*)", "COUNT({x})", "COUNT(DISTINCT {x})", "SUM({x})", "SUM(DISTINCT {x})",
    "AVG({x})", "MIN({y})", "MAX({y})", "MIN({x})", "MAX(DISTINCT {x})",
)


def group_query(keys, wrap):
    """The GROUP BY query over ``keys``; ``wrap`` turns each column into
    a non-column expression that evaluates to the same value."""
    w = (lambda c: f"COALESCE({c})") if wrap else (lambda c: c)
    aggs = ", ".join(a.format(x=w("x"), y=w("y")) for a in AGGREGATES)
    group = ", ".join(w(k) for k in keys)
    select = f"{group}, {aggs}" if keys else aggs
    return f"SELECT {select} FROM t" + (f" GROUP BY {group}" if keys else "")


class TestGroupByExactness:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(GROUP_VALUES, GROUP_VALUES, AGG_NUMBERS, AGG_ANY), max_size=14),
        keys=st.sampled_from([(), ("g",), ("g", "h"), ("h", "g")]),
    )
    def test_matches_compiled_closures(self, rows, keys):
        resolver = Tables(t=(["g", "h", "x", "y"], rows))
        got = run(resolver, group_query(keys, wrap=False))
        assert got == run(resolver, group_query(keys, wrap=True))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(GROUP_VALUES, GROUP_VALUES, AGG_NUMBERS, AGG_ANY), max_size=14),
        having=st.sampled_from(
            ["n > 1", "lo < 0.5", "hi >= 'a'", "n BETWEEN 1 AND 2 AND lo <> 0", "1 < n AND hi < 3"]
        ),
    )
    def test_having_matches_row_predicate(self, rows, having):
        """HAVING filters the post-aggregation rows with the same kernel."""
        resolver = Tables(t=(["g", "h", "x", "y"], rows))
        query = (
            "SELECT g, COUNT(*) AS n, MIN(x) AS lo, MAX(y) AS hi FROM t "
            f"GROUP BY g HAVING {having}"
        )
        kernel = run(resolver, query)
        with row_predicate_only():
            assert kernel == run(resolver, query)

    def test_single_key_groups_are_one_tuples_in_first_seen_order(self):
        rows = [(1, 1, None, None), ("a", 2, None, None), (True, 3, None, None), (1.0, 4, None, None)]
        resolver = Tables(t=(["g", "h", "x", "y"], rows))
        got, _ = run(resolver, "SELECT g, COUNT(*), SUM(h) FROM t GROUP BY g")
        assert got == "[(1, 3, 8), ('a', 1, 2)]"

    def test_having_and_order_by_over_positional_groups(self):
        rows = [(k % 3, k, float(k), "v") for k in range(10)]
        resolver = Tables(t=(["g", "h", "x", "y"], rows))
        got, _ = run(
            resolver,
            "SELECT g, COUNT(*) AS n, AVG(x) AS m FROM t WHERE h < 8 "
            "GROUP BY g HAVING n > 2 ORDER BY m DESC LIMIT 10",
        )
        assert got == "[(1, 3, 4.0), (0, 3, 3.0)]"


# -- stdlib sqlite3 oracle (NaN-free data) -----------------------------------------

ORACLE_NUMBERS = st.integers(-4, 4) | st.floats(-4, 4, allow_nan=False, allow_infinity=False)
ORACLE_VALUES = st.none() | ORACLE_NUMBERS | TEXT


@contextlib.contextmanager
def sqlite_world(**tables):
    """sqlite3 holding the same tables, columns without type affinity."""
    with contextlib.closing(sqlite3.connect(":memory:")) as lite:
        for name, (columns, rows) in tables.items():
            lite.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            if rows:
                marks = ", ".join("?" * len(columns))
                lite.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
        yield lite


def engine_rows(resolver, sql, params=()):
    return SelectExecutor(resolver, params).execute(parse_statement(sql)).rows


@st.composite
def oracle_where(draw):
    params = []
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        col = draw(st.sampled_from("abc"))

        def constant():
            value = draw(ORACLE_NUMBERS | TEXT)
            if draw(st.booleans()):
                params.append(value)
                return "?"
            return sql_repr(value)

        if draw(st.integers(0, 3)) == 0:
            parts.append(f"{col} BETWEEN {constant()} AND {constant()}")
        else:
            op, const = draw(st.sampled_from(OPS)), constant()
            parts.append(f"{col} {op} {const}" if draw(st.booleans()) else f"{const} {op} {col}")
    return " AND ".join(parts), tuple(params)


class TestSqliteOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(ORACLE_VALUES, ORACLE_NUMBERS, TEXT), max_size=12),
        where=oracle_where(),
    )
    def test_filter_multiset(self, rows, where):
        sql, params = where
        query = f"SELECT * FROM t WHERE {sql}"
        try:
            got = engine_rows(Tables(t=(["a", "b", "c"], rows)), query, params)
        except SQLTypeError:
            return  # sqlite orders values across types instead of raising
        with sqlite_world(t=(["a", "b", "c"], rows)) as lite:
            assert Counter(got) == Counter(lite.execute(query, params).fetchall())

    @settings(max_examples=150, deadline=None)
    @given(
        lrows=st.lists(st.tuples(st.none() | st.integers(0, 3) | st.sampled_from([1.0, "1", "a"]), RESIDUAL_VALUES), max_size=8),
        rrows=st.lists(st.tuples(st.none() | st.integers(0, 3) | st.sampled_from([2.0, "1", "a"]), RESIDUAL_VALUES), max_size=8),
        kind=st.sampled_from(["INNER", "LEFT"]),
        residual=st.booleans(),
    )
    def test_join_multiset(self, lrows, rrows, kind, residual):
        query = f"SELECT * FROM l {kind} JOIN r ON l.k = r.k" + (" AND l.v < r.v" if residual else "")
        tables = {"l": (["k", "v"], lrows), "r": (["k", "v"], rrows)}
        got = engine_rows(Tables(**tables), query)
        with sqlite_world(**tables) as lite:
            assert Counter(got) == Counter(lite.execute(query).fetchall())

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.none() | st.integers(0, 3) | st.sampled_from(["a", "b"]), st.none() | st.integers(-9, 9)),
            max_size=14,
        )
    )
    def test_group_by_multiset(self, rows):
        query = (
            "SELECT g, COUNT(*), COUNT(x), COUNT(DISTINCT x), SUM(x), AVG(x), MIN(x), MAX(x) "
            "FROM t GROUP BY g"
        )
        got = engine_rows(Tables(t=(["g", "x"], rows)), query)
        with sqlite_world(t=(["g", "x"], rows)) as lite:
            assert Counter(got) == Counter(lite.execute(query).fetchall())


def test_column_ref_is_the_only_positional_form():
    """A parenthesised column is still a column reference; an expression
    is not (it keeps the compiled path the exactness tests compare to)."""
    assert isinstance(parse_statement("SELECT (g) FROM t GROUP BY (g)").group_by[0], ast.ColumnRef)
    assert not isinstance(
        parse_statement("SELECT COALESCE(g) FROM t GROUP BY COALESCE(g)").group_by[0], ast.ColumnRef
    )
