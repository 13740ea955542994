"""XML-RPC-style wire codec.

Values really are encoded to (and decoded from) an XML text, because
the benchmarks need *honest* payload sizes: Figure 6's slope is mostly
the per-row encode/transfer/decode cost, and an invented size constant
would make that slope an artifact. The element vocabulary is the
classic XML-RPC one (``<int>``, ``<double>``, ``<string>``,
``<boolean>``, ``<nil>``, ``<array>``).

:func:`payload_bytes` computes that size exactly from the values
without building the text: each exact scalar costs its fixed tag width
plus its text, and a row array (a list of equal-width rows, such as a
``dataaccess.query`` response's ``rows``) is sized a column at a time
with C-level joins. :func:`encode_payload` stays the reference the
tests compare it against, and ``repr`` of each float, once per hop, is
the floor of the cost.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from repro.common.errors import ClarensFault

# XML 1.0 cannot carry control characters (or lone non-characters) at
# all — real XML-RPC shares the restriction. We escape them (and the
# escape introducer itself) as ``\xHHHH`` so arbitrary SQL data
# round-trips the wire.
_XML_UNSAFE = re.compile(r"[^\x09\x0a\x20-퟿-�\U00010000-\U0010ffff]|\\")
_ESCAPE_SEQ = re.compile(r"\\x([0-9a-fA-F]{6})")


def _escape_text(text: str) -> str:
    return _XML_UNSAFE.sub(lambda m: f"\\x{ord(m.group()):06x}", text)


def _unescape_text(text: str) -> str:
    return _ESCAPE_SEQ.sub(lambda m: chr(int(m.group(1), 16)), text)


def _encode_value(value, out: list[str]) -> None:
    if value is None:
        out.append("<nil/>")
    elif isinstance(value, bool):
        out.append(f"<boolean>{1 if value else 0}</boolean>")
    elif isinstance(value, int):
        out.append(f"<int>{value}</int>")
    elif isinstance(value, float):
        out.append(f"<double>{value!r}</double>")
    elif isinstance(value, str):
        out.append(f"<string>{escape(_escape_text(value))}</string>")
    elif isinstance(value, (list, tuple)):
        out.append("<array>")
        for item in value:
            _encode_value(item, out)
        out.append("</array>")
    elif isinstance(value, dict):
        try:
            keys = sorted(value)
        except TypeError:
            raise ClarensFault(
                "encode", "cannot encode struct whose keys cannot be ordered"
            ) from None
        out.append("<struct>")
        for key in keys:
            out.append(f"<member><name>{escape(_escape_text(str(key)))}</name>")
            _encode_value(value[key], out)
            out.append("</member>")
        out.append("</struct>")
    else:
        raise ClarensFault("encode", f"cannot encode value of type {type(value).__name__}")


def encode_payload(method: str, value) -> str:
    """Encode one request/response payload to wire text."""
    out = [f"<methodCall><methodName>{escape(_escape_text(method))}</methodName><params>"]
    _encode_value(value, out)
    out.append("</params></methodCall>")
    return "".join(out)


# -- sizing without encoding ---------------------------------------------------

# tag widths in bytes: each exact scalar costs its tags plus its text
_CALL_TAGS = len("<methodCall><methodName></methodName><params></params></methodCall>")
_NIL_BYTES = len("<nil/>")
_INT_TAGS = len("<int></int>")
_DOUBLE_TAGS = len("<double></double>")
_STRING_TAGS = len("<string></string>")
_ARRAY_TAGS = len("<array></array>")
_STRUCT_TAGS = len("<struct></struct>")
_MEMBER_TAGS = len("<member><name></name></member>")

_NUMBER_TAGS = {int: _INT_TAGS, float: _DOUBLE_TAGS}
#: text that :func:`_escape_text` or ``escape`` would change
_NEEDS_ESCAPE = re.compile(f"{_XML_UNSAFE.pattern}|[&<>]")
_ROW_TYPES = frozenset({list, tuple})


def _text_bytes(text: str) -> int:
    return len(escape(_escape_text(text)).encode("utf-8"))


def _value_bytes(value) -> int:
    kind = type(value)
    tags = _NUMBER_TAGS.get(kind)
    if tags is not None:
        return tags + len(repr(value))
    if kind is str:
        return _STRING_TAGS + _text_bytes(value)
    if value is None:
        return _NIL_BYTES
    if kind is list or kind is tuple:
        return _array_bytes(value)
    if kind is dict:
        keys = sorted(value)  # as the encoder does: unorderable keys raise
        return (
            _STRUCT_TAGS
            + _MEMBER_TAGS * len(keys)
            + sum(_text_bytes(str(key)) + _value_bytes(value[key]) for key in keys)
        )
    # bool, subclasses and unknown types: the encoder decides (or raises)
    out: list[str] = []
    _encode_value(value, out)
    return len("".join(out).encode("utf-8"))


def _array_bytes(items) -> int:
    """An array; a row array (equal non-zero widths) goes column-wise."""
    if items and _ROW_TYPES.issuperset(map(type, items)):
        widths = set(map(len, items))
        if len(widths) == 1 and 0 not in widths:
            return _ARRAY_TAGS * (len(items) + 1) + sum(
                map(_column_bytes, zip(*items))
            )
    return _ARRAY_TAGS + sum(map(_value_bytes, items))


def _column_bytes(column: tuple) -> int:
    """One column of a row array: a single exact scalar type is sized
    from one joined text, anything else value by value."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        kind = kinds.pop()
        tags = _NUMBER_TAGS.get(kind)
        if tags is not None:
            return tags * len(column) + len("".join(map(repr, column)))
        if kind is type(None):
            return _NIL_BYTES * len(column)
        if kind is str:
            joined = "".join(column)
            if _NEEDS_ESCAPE.search(joined) is None:
                return _STRING_TAGS * len(column) + len(joined.encode("utf-8"))
    return sum(map(_value_bytes, column))


def payload_bytes(method: str, value) -> int:
    """Wire size of the encoded payload in bytes, equal to
    ``len(encode_payload(method, value).encode("utf-8"))``."""
    try:
        return _CALL_TAGS + _text_bytes(method) + _value_bytes(value)
    except Exception:
        # the encoder raises what it raises at the first bad value in
        # wire order (and sizes what only the sizer's deeper recursion
        # could not)
        return len(encode_payload(method, value).encode("utf-8"))


def _decode_element(el: ET.Element):
    tag = el.tag
    if tag == "nil":
        return None
    if tag == "boolean":
        return el.text == "1"
    if tag == "int":
        return int(el.text or "0")
    if tag == "double":
        return float(el.text or "0")
    if tag == "string":
        return _unescape_text(el.text or "")
    if tag == "array":
        return [_decode_element(child) for child in el]
    if tag == "struct":
        out = {}
        for member in el:
            name = member.find("name")
            if name is None or len(member) < 2:
                raise ClarensFault("decode", "malformed struct member")
            out[_unescape_text(name.text or "")] = _decode_element(member[1])
        return out
    raise ClarensFault("decode", f"unknown wire element <{tag}>")


def decode_payload(text: str) -> tuple[str, object]:
    """Decode wire text back to ``(method, value)``.

    Lists decode as Python lists (tuples do not survive the wire — just
    like real XML-RPC, which the result-merging code must cope with).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ClarensFault("decode", f"malformed wire payload: {exc}") from None
    if root.tag != "methodCall":
        raise ClarensFault("decode", f"expected <methodCall>, found <{root.tag}>")
    name_el = root.find("methodName")
    params_el = root.find("params")
    if name_el is None or params_el is None or len(params_el) != 1:
        raise ClarensFault("decode", "payload missing methodName or params")
    return _unescape_text(name_el.text or ""), _decode_element(params_el[0])
