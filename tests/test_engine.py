"""Unit tests for storage, catalog and the Database facade (DDL/DML)."""

import pytest

from repro.common import SQLType, TableNotFoundError
from repro.common.errors import DuplicateObjectError, IntegrityError
from repro.engine import Column, Database, TableStorage, estimate_row_bytes


@pytest.fixture
def db():
    d = Database("testdb", "mysql")
    d.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), "
        "dept VARCHAR(10), salary DOUBLE)"
    )
    d.execute(
        "INSERT INTO emp (id, name, dept, salary) VALUES "
        "(1,'ann','hr',100.0),(2,'bob','it',200.0),(3,'cho','it',150.0),"
        "(4,'dee','fin',NULL)"
    )
    return d


def _pk_table(keys) -> TableStorage:
    t = TableStorage(
        "t", [Column("id", SQLType.integer(), primary_key=True), Column("v", SQLType.varchar(5))]
    )
    for k in keys:
        t.insert([k, f"r{k}"])
    return t


class TestTableStorage:
    def test_insert_coerces_types(self):
        t = TableStorage("t", [Column("a", SQLType.integer()), Column("b", SQLType.varchar(10))])
        row = t.insert(["5", 42])
        assert row == (5, "42")

    def test_pk_uniqueness_enforced(self):
        t = TableStorage("t", [Column("id", SQLType.integer(), primary_key=True, not_null=True)])
        t.insert([1])
        with pytest.raises(IntegrityError):
            t.insert([1])

    def test_not_null_enforced(self):
        t = TableStorage("t", [Column("a", SQLType.integer(), not_null=True)])
        with pytest.raises(IntegrityError):
            t.insert([None])

    def test_partial_insert_applies_defaults(self):
        t = TableStorage(
            "t",
            [
                Column("a", SQLType.integer()),
                Column("b", SQLType.varchar(5), default="x", has_default=True),
            ],
        )
        assert t.insert([1], ["a"]) == (1, "x")

    def test_partial_insert_unknown_column_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        with pytest.raises(Exception):
            t.insert([1], ["zzz"])

    def test_wrong_arity_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        with pytest.raises(IntegrityError):
            t.insert([1, 2])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(DuplicateObjectError):
            TableStorage("t", [Column("a", SQLType.integer()), Column("A", SQLType.integer())])

    def test_byte_size_tracks_rows(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        assert t.byte_size == 0
        t.insert([12345])
        assert t.byte_size == estimate_row_bytes((12345,))

    def test_pk_point_lookup(self):
        t = TableStorage("t", [Column("id", SQLType.integer(), primary_key=True)])
        t.insert([7])
        assert t.lookup_pk((7,)) == (7,)
        assert t.lookup_pk((8,)) is None

    def test_range_key_needs_one_integer_pk_column(self):
        t = TableStorage("t", [Column("a", SQLType.integer()), Column("id", SQLType.bigint(), primary_key=True)])
        assert t.range_key() == 1
        assert TableStorage("t", [Column("a", SQLType.integer())]).range_key() is None
        text = TableStorage("t", [Column("k", SQLType.varchar(5), primary_key=True)])
        assert text.range_key() is None
        composite = TableStorage(
            "t",
            [Column("a", SQLType.integer(), primary_key=True), Column("b", SQLType.integer(), primary_key=True)],
        )
        assert composite.range_key() is None

    def test_pk_range_returns_insertion_order(self):
        t = _pk_table([5, -3, 9, 1, 7])
        assert t.pk_range(-3, 5) == [(5, "r5"), (-3, "r-3"), (1, "r1")]
        assert t.pk_range(float("-inf"), float("inf")) == t.rows
        assert t.pk_range(10, 20) == []
        assert t.pk_range(6, 4) == []

    def test_pk_range_ascending_load_is_a_slice(self):
        t = _pk_table(range(10))
        assert t.pk_range(3, 5) == t.rows[3:6]

    def test_pk_range_skips_null_keys(self):
        t = TableStorage("t", [Column("id", SQLType.integer(), primary_key=True)])
        t.append_rows([[2], [None], [1]])
        assert t.pk_range(float("-inf"), float("inf")) == [(2,), (1,)]

    def test_pk_range_declines_non_integer_keys(self):
        t = _pk_table([1, 2])
        t.replace_rows([(1.5, "x"), (2, "y")])
        assert t.pk_range(0, 3) is None

    def test_sorted_pk_rebuilt_after_insert(self):
        t = _pk_table([3, 1])
        assert t.pk_range(0, 9) == [(3, "r3"), (1, "r1")]
        t.insert([2, "r2"])
        assert t._pk_sorted is None
        assert t.pk_range(0, 9) == [(3, "r3"), (1, "r1"), (2, "r2")]

    def test_sorted_pk_rebuilt_after_append_rows(self):
        t = _pk_table([3, 1])
        t.pk_range(0, 9)
        t.append_rows([[0, "r0"], [2, "r2"]])
        assert t._pk_sorted is None
        assert t.pk_range(1, 2) == [(1, "r1"), (2, "r2")]

    def test_sorted_pk_rebuilt_after_delete_where(self):
        t = _pk_table([3, 1, 2])
        t.pk_range(0, 9)
        t.delete_where(lambda row: row[0] != 1)
        assert t._pk_sorted is None
        assert t.pk_range(0, 9) == [(3, "r3"), (2, "r2")]

    def test_sorted_pk_rebuilt_after_replace_rows(self):
        t = _pk_table([3, 1])
        t.pk_range(0, 9)
        t.replace_rows([(8, "r8"), (4, "r4")])
        assert t._pk_sorted is None
        assert t.pk_range(0, 5) == [(4, "r4")]

    def test_sorted_pk_rebuilt_after_add_column(self):
        t = _pk_table([3, 1])
        t.pk_range(0, 9)
        t.add_column(Column("c", SQLType.integer(), default=0, has_default=True))
        assert t._pk_sorted is None
        assert t.pk_range(1, 1) == [(1, "r1", 0)]

    def test_sorted_pk_rebuilt_after_drop_column(self):
        t = _pk_table([3, 1])
        t.pk_range(0, 9)
        t.drop_column("v")
        assert t._pk_sorted is None
        assert t.pk_range(3, 3) == [(3,)]

    def test_add_column_backfills(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        t.insert([1])
        t.add_column(Column("b", SQLType.varchar(5), default="x", has_default=True))
        assert t.rows == [(1, "x")]

    def test_add_not_null_without_default_on_nonempty_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        t.insert([1])
        with pytest.raises(IntegrityError):
            t.add_column(Column("b", SQLType.integer(), not_null=True))

    def test_drop_column(self):
        t = TableStorage("t", [Column("a", SQLType.integer()), Column("b", SQLType.integer())])
        t.insert([1, 2])
        t.drop_column("a")
        assert t.column_names == ["b"]
        assert t.rows == [(2,)]

    def test_drop_pk_column_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer(), primary_key=True)])
        with pytest.raises(IntegrityError):
            t.drop_column("a")


class TestDatabaseDDL:
    def test_create_and_drop_table(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        assert db.catalog.has_table("t")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_create_duplicate_raises(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(DuplicateObjectError):
            db.execute("CREATE TABLE t (a INT)")

    def test_if_not_exists_is_noop(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")

    def test_drop_missing_raises_unless_if_exists(self):
        db = Database("x")
        with pytest.raises(TableNotFoundError):
            db.execute("DROP TABLE t")
        db.execute("DROP TABLE IF EXISTS t")

    def test_case_insensitive_table_names(self, db):
        assert db.execute("SELECT COUNT(*) FROM EMP").rows == [(4,)]

    def test_create_view_and_query(self, db):
        db.execute("CREATE VIEW it AS SELECT name FROM emp WHERE dept = 'it'")
        rows = db.execute("SELECT * FROM it ORDER BY name").rows
        assert rows == [("bob",), ("cho",)]

    def test_view_reflects_underlying_changes(self, db):
        db.execute("CREATE VIEW it AS SELECT name FROM emp WHERE dept = 'it'")
        db.execute("INSERT INTO emp (id, name, dept) VALUES (9, 'zed', 'it')")
        assert db.execute("SELECT COUNT(*) FROM it").rows == [(3,)]

    def test_view_name_collision_with_table(self, db):
        with pytest.raises(DuplicateObjectError):
            db.execute("CREATE VIEW emp AS SELECT 1")

    def test_alter_rename(self, db):
        db.execute("ALTER TABLE emp RENAME TO people")
        assert db.catalog.has_table("people")
        assert not db.catalog.has_table("emp")

    def test_create_index_validates_columns(self, db):
        with pytest.raises(Exception):
            db.execute("CREATE INDEX i ON emp (nosuch)")
        db.execute("CREATE INDEX i ON emp (dept)")
        assert db.catalog.index_names() == ["i"]


class TestDatabaseDML:
    def test_insert_select(self, db):
        db.execute("CREATE TABLE emp2 (id INTEGER, name VARCHAR(40))")
        r = db.execute("INSERT INTO emp2 SELECT id, name FROM emp")
        assert r.rowcount == 4

    def test_update_with_where(self, db):
        r = db.execute("UPDATE emp SET salary = 999 WHERE dept = 'it'")
        assert r.rowcount == 2
        assert db.execute("SELECT SUM(salary) FROM emp WHERE dept = 'it'").rows == [(1998.0,)]

    def test_update_all_rows(self, db):
        assert db.execute("UPDATE emp SET dept = 'all'").rowcount == 4

    def test_update_null_into_notnull_raises(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT NOT NULL)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(IntegrityError):
            db.execute("UPDATE t SET a = NULL")

    def test_delete_with_where(self, db):
        assert db.execute("DELETE FROM emp WHERE dept = 'it'").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM emp").rows == [(2,)]

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM emp").rowcount == 4
        assert db.execute("SELECT COUNT(*) FROM emp").rows == [(0,)]

    def test_bulk_insert_bypasses_parser(self, db):
        n = db.bulk_insert("emp", [[10, "x", "qa", 1.0], [11, "y", "qa", 2.0]])
        assert n == 2
        assert db.execute("SELECT COUNT(*) FROM emp").rows == [(6,)]


class TestSelectSemantics:
    def test_where_null_mismatch_filtered(self, db):
        # dee has NULL salary: neither > nor <= matches
        high = db.execute("SELECT COUNT(*) FROM emp WHERE salary > 120").rows[0][0]
        low = db.execute("SELECT COUNT(*) FROM emp WHERE salary <= 120").rows[0][0]
        assert high + low == 3

    def test_order_by_nulls_last_asc(self, db):
        rows = db.execute("SELECT name FROM emp ORDER BY salary").rows
        assert rows[-1] == ("dee",)

    def test_order_by_desc_nulls_first(self, db):
        rows = db.execute("SELECT name FROM emp ORDER BY salary DESC").rows
        assert rows[0] == ("dee",)

    def test_limit_offset(self, db):
        rows = db.execute("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1").rows
        assert rows == [(2,), (3,)]

    def test_distinct(self, db):
        rows = db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept").rows
        assert rows == [("fin",), ("hr",), ("it",)]

    def test_select_star_columns(self, db):
        r = db.execute("SELECT * FROM emp")
        assert r.columns == ["id", "name", "dept", "salary"]

    def test_qualified_star(self, db):
        r = db.execute("SELECT e.* FROM emp e")
        assert len(r.columns) == 4

    def test_aggregates_on_empty_input(self, db):
        r = db.execute("SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE id > 99")
        assert r.rows == [(0, None, None)]

    def test_count_ignores_nulls(self, db):
        assert db.execute("SELECT COUNT(salary) FROM emp").rows == [(3,)]

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT dept) FROM emp").rows == [(3,)]

    def test_group_by_having(self, db):
        rows = db.execute(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n > 1"
        ).rows
        assert rows == [("it", 2)]

    def test_expression_over_aggregate(self, db):
        rows = db.execute(
            "SELECT dept, MAX(salary) - MIN(salary) AS spread FROM emp "
            "WHERE salary IS NOT NULL GROUP BY dept ORDER BY dept"
        ).rows
        assert ("it", 50.0) in rows

    def test_bare_column_not_in_group_by_raises(self, db):
        from repro.common import PlanningError

        with pytest.raises(PlanningError):
            db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")

    def test_scalar_select(self, db):
        assert db.execute("SELECT 2 * 3 AS x").rows == [(6,)]

    def test_params_flow_through(self, db):
        rows = db.execute("SELECT name FROM emp WHERE dept = ? ORDER BY id", ("it",)).rows
        assert rows == [("bob",), ("cho",)]

    def test_mssql_top_syntax_runs(self, db):
        rows = db.execute("SELECT TOP 2 id FROM emp ORDER BY id").rows
        assert rows == [(1,), (2,)]

    def test_stats_rows_examined(self, db):
        r = db.execute("SELECT * FROM emp WHERE salary > 0")
        assert r.stats.rows_examined >= 4
        assert r.stats.tables_accessed == ["emp"]


class TestJoinSemantics:
    @pytest.fixture
    def jdb(self, db):
        db.execute("CREATE TABLE dept (code VARCHAR(10) PRIMARY KEY, label VARCHAR(30))")
        db.execute("INSERT INTO dept VALUES ('hr','HumanRes'),('it','Infotech')")
        return db

    def test_inner_join_uses_hash_strategy(self, jdb):
        r = jdb.execute("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code")
        assert r.stats.join_strategy == ["hash"]
        assert r.row_count == 3  # fin has no dept row

    def test_left_join_pads_nulls(self, jdb):
        r = jdb.execute(
            "SELECT e.name, d.label FROM emp e LEFT JOIN dept d ON e.dept = d.code "
            "ORDER BY e.id"
        )
        assert r.rows[-1] == ("dee", None)

    def test_join_on_expression_falls_back_to_nested_loop(self, jdb):
        r = jdb.execute(
            "SELECT COUNT(*) FROM emp e JOIN dept d ON e.salary > 120 AND e.dept = d.code"
        )
        # equi conjunct extracted -> hash join with residual (bob, cho)
        assert r.rows == [(2,)]

    def test_pure_inequality_join_nested_loop(self, jdb):
        r = jdb.execute("SELECT COUNT(*) FROM emp e JOIN emp f ON e.salary < f.salary")
        assert r.stats.join_strategy == ["nested-loop"]
        assert r.rows == [(3,)]

    def test_cross_join(self, jdb):
        r = jdb.execute("SELECT COUNT(*) FROM emp CROSS JOIN dept")
        assert r.rows == [(8,)]

    def test_comma_join_with_where(self, jdb):
        r = jdb.execute(
            "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.code"
        )
        assert r.rows == [(3,)]

    def test_self_join_with_aliases(self, jdb):
        r = jdb.execute(
            "SELECT a.name, b.name FROM emp a JOIN emp b ON a.id = b.id WHERE a.id = 1"
        )
        assert r.rows == [("ann", "ann")]

    def test_null_keys_never_match_in_hash_join(self, jdb):
        jdb.execute("INSERT INTO emp (id, name, dept) VALUES (20, 'nul', NULL)")
        jdb.execute("CREATE TABLE tags (dept VARCHAR(10), tag VARCHAR(10))")
        jdb.execute("INSERT INTO tags VALUES (NULL, 'ghost'), ('it', 'tech')")
        r = jdb.execute("SELECT COUNT(*) FROM emp e JOIN tags t ON e.dept = t.dept")
        assert r.rows == [(2,)]  # only bob and cho match 'it'; NULLs never join

    def test_three_way_join(self, jdb):
        jdb.execute("CREATE TABLE site (dept VARCHAR(10), city VARCHAR(20))")
        jdb.execute("INSERT INTO site VALUES ('it','geneva'),('hr','pasadena')")
        r = jdb.execute(
            "SELECT e.name, s.city FROM emp e "
            "JOIN dept d ON e.dept = d.code JOIN site s ON d.code = s.dept "
            "ORDER BY e.name"
        )
        assert r.rows == [
            ("ann", "pasadena"),
            ("bob", "geneva"),
            ("cho", "geneva"),
        ]
