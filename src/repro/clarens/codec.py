"""XML-RPC-style wire codec.

Values really are encoded to (and decoded from) an XML text, because
the benchmarks need *honest* payload sizes: Figure 6's slope is mostly
the per-row encode/transfer/decode cost, and an invented size constant
would make that slope an artifact. The element vocabulary is the
classic XML-RPC one (``<int>``, ``<double>``, ``<string>``,
``<boolean>``, ``<nil>``, ``<array>``).
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
    out = [f"<methodCall><methodName>{escape(method)}</methodName><params>"]
    _encode_value(value, out)
    out.append("</params></methodCall>")
    return "".join(out)


def payload_bytes(method: str, value) -> int:
    """Wire size of the encoded payload in bytes."""
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
    return name_el.text or "", _decode_element(params_el[0])
