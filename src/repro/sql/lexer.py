"""SQL lexer: one compiled master regex.

Produces a flat token stream; keywords are recognized case-insensitively
and carried upper-cased. Identifier quoting follows the dialect-neutral
double-quote form plus MySQL backticks and MS-SQL brackets so that text
generated by any of our dialects can be re-lexed.

Every token kind, and every kind of bad input, is one alternative of
``_MASTER``; ``finditer`` walks the text with no gaps because the last
alternative matches any single character. The character classes are
``str`` predicates: whitespace is ``str.isspace``, a number digit
``str.isdigit``, an identifier start ``str.isalpha`` or ``_``, an
identifier character ``str.isalnum``, ``_`` or ``$``. ``\\s`` and ``\\w``
are exactly those sets, but ``\\d`` is only ``str.isdecimal`` and ``\\w``
also holds numeric characters that are not letters (``'½'``), so the
classes add or remove those characters, found once at import by a scan
of every code point. ``tests/test_lexer_differential.py`` checks the
token stream and every error against a character-by-character reference
lexer.
"""

from __future__ import annotations

import enum
import re
import sys
from itertools import filterfalse
from typing import NamedTuple

from repro.common.errors import SQLSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    PARAM = "PARAM"
    EOF = "EOF"


KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET TOP
    DISTINCT ALL AS AND OR NOT IN IS NULL LIKE BETWEEN EXISTS UNION
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE VIEW INDEX DROP
    ALTER ADD COLUMN RENAME TO PRIMARY KEY FOREIGN REFERENCES UNIQUE
    DEFAULT CHECK JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING
    CASE WHEN THEN ELSE END CAST TRUE FALSE IF
    COUNT SUM AVG MIN MAX
    INTEGER INT BIGINT SMALLINT FLOAT DOUBLE REAL DECIMAL NUMERIC NUMBER
    VARCHAR VARCHAR2 CHAR TEXT CLOB NVARCHAR BOOLEAN BOOL DATE DATETIME
    TIMESTAMP BLOB PRECISION
    """.split()
)


class Token(NamedTuple):
    """One lexeme: its kind, its text (keywords upper-cased), its offset."""

    type: TokenType
    value: str
    position: int

    def matches(self, ttype: TokenType, value: str | None = None) -> bool:
        if self.type is not ttype:
            return False
        return value is None or self.value == value


def _numeric_extras() -> tuple[str, str]:
    """The characters where ``\\d``/``\\w`` and the ``str`` predicates
    disagree: ``(digits beyond \\d, word characters that start neither a
    number nor an identifier)``."""
    # one plane (65,536 code points) at a time, built as UTF-32 at C
    # speed; a plane at a time keeps the scan's memory small
    plane = bytearray(4 * 65536)
    plane[0::4] = bytes(range(256)) * 256
    plane[1::4] = b"".join(bytes((b,)) * 256 for b in range(256))
    kept = []
    for number in range((sys.maxunicode + 1) // 65536):
        plane[2::4] = bytes((number,)) * 65536
        # \w minus \d minus "_": letters plus the numeric non-decimals
        kept.append(re.sub(r"[\W\d_]+", "", plane.decode("utf-32-le", "surrogatepass")))
    letters_and_numerics = "".join(kept)
    digits = "".join(filter(str.isdigit, letters_and_numerics))
    others = "".join(filterfalse(str.isdigit, filterfalse(str.isalpha, letters_and_numerics)))
    return digits, others


def _ranges(chars: str) -> str:
    """``chars`` as the body of a character class, runs folded to ranges."""
    runs: list[list[int]] = []
    for cp in sorted(set(map(ord, chars))):
        if runs and runs[-1][1] == cp - 1:
            runs[-1][1] = cp
        else:
            runs.append([cp, cp])
    return "".join(
        re.escape(chr(lo)) if lo == hi else f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
        for lo, hi in runs
    )


#: code points above the BMP; ``re`` tests a class member there one by one,
#: so the hot classes keep them out of their main class
_ASTRAL = "\U00010000-\U0010ffff"


def _master() -> re.Pattern:
    extra_digits, not_word = _numeric_extras()
    digit = f"[\\d{_ranges(extra_digits)}]"
    # an identifier starts with a letter or "_": \w minus every digit and
    # the non-letter numerics, with astral characters checked apart
    no_start = not_word + extra_digits
    bmp_no_start = "".join(ch for ch in no_start if ord(ch) <= 0xFFFF)
    astral_no_start = "".join(ch for ch in no_start if ord(ch) > 0xFFFF)
    word_start = (
        f"(?:[^\\W\\d{_ranges(bmp_no_start)}{_ASTRAL}]"
        f"|(?=[{_ASTRAL}])(?![{_ranges(astral_no_start)}])[^\\W\\d])"
    )
    # The start characters of the alternatives are disjoint except where
    # the earlier one must win: comments before "-" and "/", a number
    # before ".", a terminated quote before its "open_" error.
    return re.compile(
        "|".join(
            (
                rf"(?P<word>{word_start}[\w$]*)",
                r"(?P<skip>\s+|--[^\n]*\n?|/\*.*?\*/)",
                # an exponent needs a digit or sign after the e ("1e+" is
                # one number); no dot after the exponent
                rf"(?P<number>(?:{digit}+(?:\.{digit}*)?|\.{digit}+)"
                rf"(?:[eE](?:[+-]{digit}*|{digit}+))?)",
                r"(?P<punct>[(),.;])",
                r"(?P<open_comment>/\*)",
                r"(?P<operator><>|!=|<=|>=|\|\||[=<>+\-*/%])",
                # a string ends at the first quote not doubled ('' escapes)
                r"'(?P<string>[^']*(?:''[^']*)*)'(?!')",
                r"(?P<open_string>')",
                r'"(?P<dquote>[^"]*)"|`(?P<backtick>[^`]*)`|\[(?P<bracket>[^\]]*)\]',
                r'(?P<open_ident>["`\[])',
                r"(?P<param>\?)",
                r"(?P<bad>.)",
            )
        ),
        re.DOTALL,
    )


_MASTER = _master()

_KIND_TYPES = {
    "number": TokenType.NUMBER,
    "dquote": TokenType.IDENT,
    "backtick": TokenType.IDENT,
    "bracket": TokenType.IDENT,
    "param": TokenType.PARAM,
    "operator": TokenType.OPERATOR,
    "punct": TokenType.PUNCT,
}

_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_ident": "unterminated quoted identifier",
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its Python-level __new__
    for m in _MASTER.finditer(sql):
        kind = m.lastgroup
        if kind == "skip":
            continue
        value = m.group(kind)
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                append(new(Token, (TokenType.KEYWORD, upper, m.start())))
            else:
                append(new(Token, (TokenType.IDENT, value, m.start())))
        elif kind == "string":
            append(new(Token, (TokenType.STRING, value.replace("''", "'"), m.start())))
        elif kind in _KIND_TYPES:
            append(new(Token, (_KIND_TYPES[kind], value, m.start())))
        else:
            message = _ERRORS.get(kind) or f"unexpected character {value!r}"
            raise SQLSyntaxError(message, m.start(), sql)
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens
