"""Property-based tests (hypothesis) for the SQL layer."""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.common import SQLType, TypeKind, coerce_value, common_supertype, sql_repr
from repro.common.errors import SQLTypeError
from repro.dialects import get_dialect
from repro.dialects.registry import available_vendors
from repro.engine import Database
from repro.sql import ast, parse_expression, parse_statement, tokenize
from repro.unity.driver import UnityDriver


# -- value strategies -------------------------------------------------------------

sql_ints = st.integers(min_value=-(2**40), max_value=2**40)
sql_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
sql_strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=30
)
sql_scalars = st.one_of(st.none(), st.booleans(), sql_ints, sql_floats, sql_strings)


class TestLiteralRoundTrip:
    @given(sql_ints)
    def test_int_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert expr.value == value

    @given(sql_floats)
    def test_float_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert math.isclose(float(expr.value), value, rel_tol=0, abs_tol=0) or (
            expr.value == value
        )

    @given(sql_strings)
    def test_string_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert expr.value == value

    @given(st.booleans())
    def test_bool_literal_round_trip(self, value):
        assert parse_expression(sql_repr(value)).value is value

    def test_null_round_trip(self):
        assert parse_expression(sql_repr(None)).value is None


# -- expression AST round trip ----------------------------------------------------------

_idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in __import__("repro.sql.lexer", fromlist=["KEYWORDS"]).KEYWORDS
)


def _exprs():
    leaves = st.one_of(
        sql_ints.map(ast.Literal),
        sql_strings.map(ast.Literal),
        st.booleans().map(ast.Literal),
        st.just(ast.Literal(None)),
        _idents.map(lambda c: ast.ColumnRef(column=c)),
        st.tuples(_idents, _idents).map(
            lambda t: ast.ColumnRef(column=t[1], table=t[0])
        ),
    )

    def extend(children):
        binary = st.tuples(
            st.sampled_from(["+", "-", "*", "/", "AND", "OR", "=", "<", ">=", "||"]),
            children,
            children,
        ).map(lambda t: ast.BinaryOp(*t))
        unary = children.map(lambda e: ast.UnaryOp("NOT", e))
        isnull = st.tuples(children, st.booleans()).map(
            lambda t: ast.IsNull(t[0], t[1])
        )
        inlist = st.tuples(children, st.lists(children, min_size=1, max_size=3)).map(
            lambda t: ast.InList(t[0], tuple(t[1]))
        )
        between = st.tuples(children, children, children).map(
            lambda t: ast.Between(*t)
        )
        func = st.tuples(
            st.sampled_from(["ABS", "LOWER", "UPPER", "LENGTH", "COALESCE"]),
            st.lists(children, min_size=1, max_size=2),
        ).map(lambda t: ast.FunctionCall(t[0], tuple(t[1])))
        return st.one_of(binary, unary, isnull, inlist, between, func)

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionRoundTrip:
    @given(_exprs())
    @settings(max_examples=150)
    def test_unparse_parse_fixed_point(self, expr):
        """parse(unparse(e)) unparsed again must be byte-identical."""
        text = expr.unparse()
        reparsed = parse_expression(text)
        assert reparsed.unparse() == text

    @given(_exprs())
    @settings(max_examples=80)
    def test_unparse_tokenizes(self, expr):
        tokenize(expr.unparse())


# -- statement round trip --------------------------------------------------------------------


def _selects():
    tables = st.lists(_idents, min_size=1, max_size=3, unique=True)

    def build(names):
        items = tuple(
            ast.SelectItem(ast.ColumnRef(column=f"c{i}"), alias=None)
            for i in range(len(names))
        )
        from_ = tuple(ast.TableRef(name=n) for n in names)
        return ast.Select(items=items, from_=from_)

    return tables.map(build)


class TestStatementRoundTrip:
    @given(_selects())
    def test_select_round_trip(self, select):
        text = select.unparse()
        assert parse_statement(text).unparse() == text


# -- vendor round trip: the AST a backend executes ----------------------------------------


@st.composite
def _random_selects(draw):
    """A SELECT with every clause, normalized once through the parser:
    a backend is only ever handed parser-built ASTs (the client's query
    is parsed, and decompose rearranges its nodes)."""
    exprs = _exprs()
    items = draw(st.lists(st.tuples(exprs, st.none() | _idents), min_size=1, max_size=3))
    tables = draw(st.lists(_idents, min_size=1, max_size=3, unique=True))
    joins = [
        ast.Join(kind, ast.TableRef(name), None if kind == "CROSS" else draw(exprs))
        for kind, name in zip(
            draw(st.lists(st.sampled_from(["INNER", "LEFT", "CROSS"]), max_size=2)),
            tables[1:],
        )
    ]
    group_by = tuple(draw(st.lists(exprs, max_size=2)))
    select = ast.Select(
        items=tuple(ast.SelectItem(e, alias) for e, alias in items),
        from_=tuple(ast.TableRef(n) for n in tables[len(joins) + 1 :] + tables[:1]),
        joins=tuple(joins),
        where=draw(st.none() | exprs),
        group_by=group_by,
        having=draw(st.none() | exprs) if group_by else None,
        order_by=tuple(
            ast.OrderItem(e, asc) for e, asc in draw(st.lists(st.tuples(exprs, st.booleans()), max_size=2))
        ),
        limit=draw(st.none() | st.integers(0, 10_000)),
        offset=draw(st.none() | st.integers(0, 10_000)),
        distinct=draw(st.booleans()),
    )
    normalized = parse_statement(select.unparse())
    assert isinstance(normalized, ast.Select)
    return normalized


class TestVendorRoundTrip:
    """Local backends execute ``Dialect.vendor_select``'s AST without
    parsing the vendor text, so the text must say exactly that AST."""

    @given(_random_selects())
    @settings(max_examples=150, deadline=None)
    def test_vendor_text_parses_to_the_vendor_ast(self, select):
        for vendor in available_vendors():
            dialect = get_dialect(vendor)
            vendor_ast, text = dialect.vendor_select(select)
            assert parse_statement(text) == vendor_ast, (vendor, text)
            assert dialect.render_select(select) == text
            if dialect.limit_applied_client_side:
                assert vendor_ast == replace(select, limit=None)
            else:
                assert vendor_ast == select

    def test_plan_cache_hit_hands_backends_the_planned_ast(self, two_db_federation, monkeypatch):
        """A cached plan's sub-query ASTs are shared between queries;
        the backend must get them, equal to what was first planned."""
        directory, dictionary, _events, _runs, _urls = two_db_federation
        driver = UnityDriver(dictionary, directory, cache=True)
        handed = []
        original = Database.execute_statement

        def recording(db, stmt, params=(), sql_text=None):
            handed.append((db.name, stmt, sql_text))
            return original(db, stmt, params, sql_text)

        monkeypatch.setattr(Database, "execute_statement", recording)
        sql = (
            "SELECT e.event_id, r.detector FROM events e JOIN runs r "
            "ON e.run_id = r.run_id WHERE e.energy > 3.0 ORDER BY e.event_id"
        )
        first = driver.execute(sql)
        planned = {
            sub.location.database_name: get_dialect(sub.location.vendor).vendor_select(sub.select)
            for sub in first.plan.subqueries
        }
        first_handed = list(handed)
        handed.clear()
        for database in planned:  # drop the sub-results, keep the plan
            driver.cache.epochs.bump(database)
        second = driver.execute(sql)
        assert second.plan is first.plan  # a plan-cache hit
        assert second.rows == first.rows
        assert handed == first_handed
        # the integrator's scratch database runs the merge, not a sub-query
        backends = {name: (stmt, text) for name, stmt, text in handed if name in planned}
        assert backends == planned
        for stmt, text in backends.values():
            assert parse_statement(text) == stmt


# -- type system properties ------------------------------------------------------------------

_types = st.sampled_from(
    [
        SQLType.integer(),
        SQLType.bigint(),
        SQLType.double(),
        SQLType(TypeKind.FLOAT),
        SQLType.decimal(10, 2),
        SQLType.varchar(64),
        SQLType.text(),
        SQLType.boolean(),
        SQLType.timestamp(),
    ]
)


class TestTypeProperties:
    @given(_types, _types)
    def test_supertype_commutative(self, a, b):
        try:
            ab = common_supertype(a, b)
        except SQLTypeError:
            try:
                common_supertype(b, a)
                raise AssertionError("asymmetric supertype failure")
            except SQLTypeError:
                return
        assert ab.kind == common_supertype(b, a).kind

    @given(_types)
    def test_supertype_idempotent(self, t):
        assert common_supertype(t, t).kind == t.kind

    @given(sql_scalars, _types)
    def test_coerce_idempotent(self, value, target):
        try:
            once = coerce_value(value, target)
        except SQLTypeError:
            return
        assert coerce_value(once, target) == once

    @given(sql_scalars)
    def test_null_coerces_everywhere(self, _):
        for t in (SQLType.integer(), SQLType.text(), SQLType.boolean()):
            assert coerce_value(None, t) is None
