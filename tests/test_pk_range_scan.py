"""The primary-key range scan: planning, EXPLAIN, and a differential
check against stdlib sqlite3 and a PK-less twin table that always
full-scans."""

import contextlib
import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import sql_repr
from repro.engine import Database, TableStorage
from repro.engine.executor import pk_range_path
from repro.sql import parse_statement
from repro.sql.eval import RowSchema, SchemaColumn


@pytest.fixture
def db():
    d = Database("r", "generic")
    d.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w DOUBLE)")
    d.execute("CREATE TABLE u (id INTEGER, v INTEGER, w DOUBLE)")
    rows = [[k, k % 4, k * 0.5] for k in (7, 2, 9, 4, 1, 8, 3, 6, 5, 10)]
    d.bulk_insert("t", rows)
    d.bulk_insert("u", rows)
    d.execute("CREATE VIEW tv AS SELECT id, v FROM t")
    return d


@pytest.fixture
def range_calls(monkeypatch):
    """Every (lo, hi) the executor asks TableStorage.pk_range for."""
    calls = []
    original = TableStorage.pk_range

    def spy(self, lo, hi):
        calls.append((lo, hi))
        return original(self, lo, hi)

    monkeypatch.setattr(TableStorage, "pk_range", spy)
    return calls


def _bounds(db, sql, params=()):
    select = parse_statement(sql)
    columns, _ = db.resolve_table(select.from_[0].name)
    schema = RowSchema(
        [SchemaColumn(select.from_[0].binding, c.name, c.type) for c in columns]
    )
    path = pk_range_path(select, db, schema, params)
    return None if path is None else path[1:]


class TestPlanning:
    @pytest.mark.parametrize(
        "where, bounds",
        [
            ("id <= 15", (float("-inf"), 15)),
            ("15 >= id", (float("-inf"), 15)),
            ("id < 15", (float("-inf"), 14)),
            ("id > 3 AND id < 7", (4, 6)),
            ("3 < id AND 7 > id", (4, 6)),
            ("id = 5", (5, 5)),
            ("id BETWEEN 2 AND 4", (2, 4)),
            ("id < 2.5", (float("-inf"), 2)),
            ("id > 2.5", (3, float("inf"))),
            ("id >= -2.5", (-2, float("inf"))),
            ("id = 2.5", (3, 2)),
            ("id > 5 AND id < 3", (6, 2)),
            ("v > 1 AND id <= 4 AND id >= 2", (2, 4)),
        ],
    )
    def test_conjuncts_fold_into_one_interval(self, db, where, bounds):
        assert _bounds(db, f"SELECT id FROM t WHERE {where}") == bounds

    def test_bound_parameters_narrow(self, db):
        assert _bounds(db, "SELECT id FROM t WHERE id > ? AND id <= ?", (2, 6.5)) == (3, 6)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t",
            "SELECT id FROM t WHERE v < 3",
            "SELECT id FROM t WHERE id < 3 OR v > 1",
            "SELECT id FROM t WHERE id NOT BETWEEN 2 AND 4",
            "SELECT id FROM t WHERE id <> 3",
            "SELECT id FROM t WHERE id < v",
            "SELECT id FROM t WHERE id < ?",
            "SELECT id FROM t WHERE id < 'x'",
            "SELECT id FROM t WHERE id < NULL",
            "SELECT id FROM t WHERE id < TRUE",
            "SELECT id FROM u WHERE id < 3",
            "SELECT id FROM tv WHERE id < 3",
            "SELECT t.id FROM t, u WHERE t.id < 3",
            "SELECT t.id FROM t JOIN u ON t.id = u.id WHERE t.id < 3",
            "SELECT id FROM t WHERE id < 3 AND v IN (SELECT v FROM u)",
        ],
    )
    def test_full_scan_otherwise(self, db, sql):
        assert _bounds(db, sql) is None

    def test_non_finite_parameter_is_ignored(self, db):
        assert _bounds(db, "SELECT id FROM t WHERE id < ?", (float("inf"),)) is None

    def test_composite_and_text_keys_full_scan(self):
        d = Database("c", "generic")
        d.execute("CREATE TABLE c (a INT, b INT, PRIMARY KEY (a, b))")
        d.execute("CREATE TABLE s (k VARCHAR(5) PRIMARY KEY)")
        assert _bounds(d, "SELECT a FROM c WHERE a < 3") is None
        assert _bounds(d, "SELECT k FROM s WHERE k < 'm'") is None


class TestExecution:
    def test_range_scan_reads_only_the_range(self, db, range_calls):
        r = db.execute("SELECT id, v FROM t WHERE id <= 4")
        assert range_calls == [(float("-inf"), 4)]
        assert r.rows == [(2, 2), (4, 0), (1, 1), (3, 3)]

    def test_rows_examined_stays_modeled(self, db):
        ranged = db.execute("SELECT id FROM t WHERE id <= 4").stats
        scanned = db.execute("SELECT id FROM u WHERE id <= 4").stats
        assert ranged.rows_examined == scanned.rows_examined == 20

    def test_full_where_still_applies(self, db):
        r = db.execute("SELECT id FROM t WHERE id BETWEEN 2 AND 8 AND v = 0 AND id <> 8")
        assert r.rows == [(4,)]

    def test_limit_keeps_insertion_order(self, db):
        r = db.execute("SELECT id FROM t WHERE id > 3 LIMIT 3")
        assert r.rows == [(7,), (9,), (4,)]

    def test_views_and_joins_do_not_range_scan(self, db, range_calls):
        db.execute("SELECT id FROM tv WHERE id < 3")
        db.execute("SELECT t.id FROM t JOIN u ON t.id = u.id WHERE t.id < 3")
        assert range_calls == []

    def test_view_body_range_scans_its_own_table(self, db, range_calls):
        db.execute("CREATE VIEW low AS SELECT id FROM t WHERE id <= 2")
        assert db.execute("SELECT id FROM low").rows == [(2,), (1,)]
        assert range_calls == [(float("-inf"), 2)]

    def test_non_integer_key_falls_back_to_scan(self, db):
        db.catalog.get_table("t").replace_rows([(1.5, 1, 0.0), (3, 1, 0.0)])
        assert db.execute("SELECT id FROM t WHERE id < 2").rows == [(1.5,)]


class TestExplain:
    def test_shows_pk_range_scan(self, db):
        lines = db.explain("SELECT id FROM t WHERE id <= 15")
        assert lines[0] == "pk range scan t on id [-inf, 15] (10 rows)"
        assert "filter: (id <= 15)" in lines

    def test_shows_alias_and_closed_bounds(self, db):
        lines = db.explain("SELECT n.id FROM t n WHERE 2 < n.id AND n.id <= 6")
        assert lines[0] == "pk range scan t AS n on id [3, 6] (10 rows)"

    def test_full_scan_unchanged(self, db):
        assert db.explain("SELECT id FROM u WHERE id <= 15")[0] == "scan u (10 rows)"
        assert db.explain("SELECT id FROM t WHERE v = 1")[0] == "scan t (10 rows)"

    def test_union_branches_show_their_paths(self, db):
        lines = db.explain("SELECT id FROM t WHERE id = 3 UNION SELECT id FROM u")
        assert "    pk range scan t on id [3, 3] (10 rows)" in lines
        assert "    scan u (10 rows)" in lines


# -- differential: sqlite3 and a PK-less twin -----------------------------------------

_OPS = ["<", "<=", "=", ">=", ">"]
_bound_values = st.one_of(
    st.integers(-60, 60),
    st.integers(-120, 120).map(lambda n: n / 2),
    st.floats(-70, 70, allow_nan=False),
)
_non_key = st.sampled_from(
    [
        "v > 3",
        "v IS NULL",
        "w IS NOT NULL",
        "w <= 0.5",
        "(v = 1 OR w > 2.0)",
        "NOT (v < 0)",
        "id <> 3",
        "id IN (1, 2, 3, -4)",
        "(id < 0 OR v = 2)",
        "NOT (id < 5)",
    ]
)


@st.composite
def _key_conjunct(draw):
    """One PK conjunct as (sql, params)."""
    values = []

    def bound():
        value = draw(_bound_values)
        if draw(st.booleans()):
            values.append(value)
            return "?"
        return sql_repr(value)

    kind = draw(st.sampled_from(["cmp", "between", "not between"]))
    if kind == "cmp":
        op = draw(st.sampled_from(_OPS))
        b = bound()
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        sql = f"id {op} {b}" if draw(st.booleans()) else f"{b} {flipped} id"
    else:
        low, high = bound(), bound()
        sql = f"id {kind.upper()} {low} AND {high}"
    return sql, values


@st.composite
def _where(draw):
    parts = draw(st.lists(_key_conjunct(), min_size=1, max_size=4))
    parts += [(c, []) for c in draw(st.lists(_non_key, max_size=2))]
    draw(st.randoms(use_true_random=False)).shuffle(parts)
    return " AND ".join(sql for sql, _ in parts), tuple(v for _, vs in parts for v in vs)


@st.composite
def _table_rows(draw):
    keys = draw(st.lists(st.integers(-50, 50), unique=True, max_size=40))
    keys = draw(st.permutations(keys))
    return [
        (
            k,
            draw(st.one_of(st.none(), st.integers(-5, 5))),
            draw(st.one_of(st.none(), st.floats(-4, 4, allow_nan=False))),
        )
        for k in keys
    ]


@contextlib.contextmanager
def _twin_world():
    """The engine with t (INTEGER PRIMARY KEY) and its PK-less twin u,
    plus sqlite3 holding the same t."""
    db = Database("diff", "generic")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w DOUBLE)")
    db.execute("CREATE TABLE u (id INTEGER, v INTEGER, w DOUBLE)")
    with contextlib.closing(sqlite3.connect(":memory:")) as lite:
        lite.execute("CREATE TABLE t (id INTEGER, v INTEGER, w REAL)")
        yield db, lite


def _check(db, lite, where, params):
    got = db.execute(f"SELECT id, v, w FROM t WHERE {where}", params)
    twin = db.execute(f"SELECT id, v, w FROM u WHERE {where}", params)
    oracle = lite.execute(f"SELECT id, v, w FROM t WHERE {where}", params).fetchall()
    assert got.rows == twin.rows
    assert sorted(got.rows, key=repr) == sorted(oracle, key=repr)
    assert got.stats.rows_examined == twin.stats.rows_examined


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(rows=_table_rows(), where=_where(), split=st.integers(0, 40))
    def test_matches_sqlite_and_full_scan_twin(self, rows, where, split):
        """Checked after a first batch (building the sorted key list) and
        again after the rest lands (which must drop and rebuild it)."""
        sql, params = where
        with _twin_world() as (db, lite):
            for batch in (rows[:split], rows[split:]):
                if batch:
                    db.bulk_insert("t", [list(r) for r in batch])
                    db.bulk_insert("u", [list(r) for r in batch])
                    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", batch)
                _check(db, lite, sql, params)

    def test_ascending_load_matches(self):
        rng = random.Random(7)
        rows = [(k, rng.randint(-3, 3), None) for k in range(-20, 200)]
        with _twin_world() as (db, lite):
            db.bulk_insert("t", [list(r) for r in rows])
            db.bulk_insert("u", [list(r) for r in rows])
            lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            for where in ("id <= 15", "id BETWEEN -5 AND 5.5", "id > 150 AND v >= 0", "id = 300"):
                _check(db, lite, where, ())

