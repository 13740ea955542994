"""Exactness of the wire-sizing kernels.

``payload_bytes`` computes the Clarens wire size without building the
XML text, and the result-path byte estimate sizes a whole result in one
``estimate_row_bytes`` call over its flattened values. Each property
runs the fast form against the reference it replaced: the length of
``encode_payload``'s text, and the per-row sum of ``estimate_row_bytes``.
"""

import enum
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.clarens import codec
from repro.clarens.codec import decode_payload, encode_payload, payload_bytes
from repro.common.errors import ClarensFault
from repro.core import GridFederation
from repro.engine import Database
from repro.engine.storage import estimate_row_bytes


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 22


class Meters(float):
    def __repr__(self):
        return f"Meters({float(self)!r})"


class Count(int):
    pass


class Label(str):
    pass


def reference_bytes(method, value) -> int:
    return len(encode_payload(method, value).encode("utf-8"))


# -- strategies ---------------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]
)
INTS = st.integers() | st.integers(min_value=-(10**200), max_value=10**200)
TEXT = st.text() | st.sampled_from(
    ["", "é", "\U0001f600", "a\x00b", "\\x00005c", "<&>", "tab\there", "\r\n", "\ud800", "￾"]
)
SUBCLASSED = st.one_of(
    st.booleans(),
    st.sampled_from(list(Level)),
    FLOATS.map(Meters),
    INTS.map(Count),
    TEXT.map(Label),
)
SCALARS = st.none() | INTS | FLOATS | TEXT | SUBCLASSED
#: one column's values: a single exact type (the joined-text paths) or a mix
COLUMN_KINDS = st.sampled_from([FLOATS, INTS, TEXT, st.none(), SCALARS])


@st.composite
def row_arrays(draw, row_type=st.sampled_from([list, tuple])):
    """A list of equal-width rows, each column drawn from one kind."""
    width = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=0, max_value=12))
    kinds = [draw(COLUMN_KINDS) for _ in range(width)]
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    return [draw(row_type)(row) for row in zip(*columns)]


KEYS = st.text(max_size=8) | st.sampled_from(["<k>", "a&b", "\x01", "\\"])
WIRE_VALUES = st.recursive(
    SCALARS | row_arrays(),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
        st.lists(st.lists(children, max_size=3), max_size=4),  # ragged rows
    ),
    max_leaves=25,
)
METHODS = st.sampled_from(["dataaccess.query", "m", "svc.m"]) | st.text(max_size=12)


# -- payload_bytes == len(encode_payload(...)) -------------------------------------


class TestPayloadBytes:
    @settings(max_examples=400, deadline=None)
    @given(METHODS, WIRE_VALUES)
    def test_matches_encoded_length(self, method, value):
        assert payload_bytes(method, value) == reference_bytes(method, value)

    @settings(max_examples=200, deadline=None)
    @given(row_arrays())
    def test_row_arrays_match_encoded_length(self, rows):
        response = {"columns": ["a"], "rows": rows, "distributed": False}
        assert payload_bytes("dataaccess.query", rows) == reference_bytes("dataaccess.query", rows)
        assert payload_bytes("m", response) == reference_bytes("m", response)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            [[]],
            [[], []],
            [()],
            [[1.5]],
            [[1], [2, 3]],
            [[1, "a"], (2, None)],
            [[1, 2.0], [True, 3.0]],
            [[float("nan")], [float("inf")], [-0.0]],
            [[10**200, -(10**150)]],
            [["\U0001f600", "\x07"], ["a&b", "\\"]],
            [[Level.HIGH, Meters(2.5), Count(3), Label("x")]],
            [[[1, 2]], [[3, 4]]],
            [{"k": 1}, {"k": 2}],
            {"<&>": 1, "\x02": [1.0, None], "\\x": "v"},
            {3: "a", -1: "b"},
            (("nested", ("tuple",)),),
        ],
    )
    def test_edge_shapes(self, value):
        assert payload_bytes("m", value) == reference_bytes("m", value)

    def test_deep_nesting_beyond_the_sizers_recursion_still_sizes(self):
        value = 1
        for _ in range(450):
            value = [value]
        assert payload_bytes("m", value) == reference_bytes("m", value)

    @pytest.mark.parametrize("method", ["a\x01b", "x\\y", "<m>&", "\ud83d"])
    def test_method_names_that_need_escaping(self, method):
        assert payload_bytes(method, 1) == reference_bytes(method, 1)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


class TestErrorsMatchTheEncoder:
    @pytest.mark.parametrize(
        "value",
        [
            object(),
            [1, object()],
            [[1.0, b"bytes"], [2.0, b"more"]],
            {0: 1, "a": 2},
            [{"ok": {1: None, "b": 2}}],
            [[1, object()], [10**5000, 2]],  # the encoder meets object() first
            [[10**5000, object()]],
            10**5000,
            {"k": [[1.5, 10**5000]]},
        ],
        ids=[
            "object",
            "object-in-list",
            "bytes-column",
            "unorderable-keys",
            "nested-unorderable-keys",
            "object-before-huge-int",
            "huge-int-before-object",
            "huge-int",
            "huge-int-in-row-array",
        ],
    )
    def test_same_exception_type_and_fault_code(self, value):
        expected = _raised(encode_payload, "m", value)
        got = _raised(payload_bytes, "m", value)
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        if isinstance(expected, ClarensFault):
            assert got.method == expected.method == "encode"


class TestMethodNameEscaping:
    def test_control_character_method_name_round_trips(self):
        """The method name is escaped like every other string, so a name
        with a control character decodes instead of faulting."""
        assert decode_payload(encode_payload("a\x01b", 1)) == ("a\x01b", 1)
        assert decode_payload(encode_payload("x\\x000041", 1)) == ("x\\x000041", 1)

    def test_plain_method_names_keep_their_wire_text(self):
        text = encode_payload("dataaccess.query", 1)
        assert text.startswith("<methodCall><methodName>dataaccess.query</methodName>")


class TestColumnPath:
    @pytest.fixture(scope="class")
    def response(self):
        fed = GridFederation()
        server = fed.create_server("srv", "srv.cern.ch")
        db = Database("events_db", "mysql")
        db.execute("CREATE TABLE EVENTS (ID INT PRIMARY KEY, E DOUBLE, PX DOUBLE)")
        for i in range(1, 41):
            db.execute(f"INSERT INTO EVENTS VALUES ({i}, {i * 1.25}, {-i / 3})")
        fed.attach_database(server, db, logical_names={"EVENTS": "events"})
        client = fed.client("laptop.cern.ch")
        return client.call(server.server, "dataaccess.query", "SELECT id, e, px FROM events", [])

    def test_query_rows_are_sized_column_by_column(self, response):
        rows = response["rows"]
        assert len(rows) == 40
        with (
            mock.patch.object(codec, "_encode_value", wraps=codec._encode_value) as encode,
            mock.patch.object(codec, "_column_bytes", wraps=codec._column_bytes) as column,
        ):
            size = payload_bytes("dataaccess.query", rows)
        assert size == reference_bytes("dataaccess.query", rows)
        assert encode.call_count == 0
        assert column.call_count == 3

    def test_whole_response_sends_only_flags_to_the_encoder(self, response):
        with mock.patch.object(codec, "_encode_value", wraps=codec._encode_value) as encode:
            size = payload_bytes("dataaccess.query", response)
        assert size == reference_bytes("dataaccess.query", response)
        assert {type(call.args[0]) for call in encode.call_args_list} <= {bool}


# -- one estimate_row_bytes call per result ----------------------------------------

ROW_VALUES = SCALARS | st.binary() | st.binary().map(bytearray)


class TestFlattenedRowBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(ROW_VALUES, max_size=6).map(tuple), max_size=10))
    def test_flattened_equals_per_row_sum(self, rows):
        flat = estimate_row_bytes(tuple(chain.from_iterable(rows)))
        assert flat == sum(estimate_row_bytes(r) for r in rows)

    def test_empty_result(self):
        assert estimate_row_bytes(tuple(chain.from_iterable([]))) == 0
        assert estimate_row_bytes(tuple(chain.from_iterable([(), ()]))) == 0

    def test_mixed_fast_and_slow_rows(self):
        rows = [(1, 2.5, "x"), (True, b"ab", None), (Count(7), Label("yz"))]
        flat = estimate_row_bytes(tuple(chain.from_iterable(rows)))
        assert flat == sum(estimate_row_bytes(r) for r in rows)
