"""Differential test: the regex lexer against the hand-written one it replaced.

``reference_tokenize`` is the original character-by-character lexer,
kept here unchanged as the oracle. On every input the two must give the
same token list, or the same :class:`SQLSyntaxError` message and
position.
"""

import sys

from hypothesis import given, settings, strategies as st

from repro.common.errors import SQLSyntaxError
from repro.sql.lexer import KEYWORDS, Token, TokenType, tokenize

# Multi-character operators first so maximal munch works.
_OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = ("(", ")", ",", ".", ";")


def reference_tokenize(sql: str) -> list[Token]:
    """The character-by-character lexer the regex replaced, verbatim."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        # Comments: -- to end of line, /* ... */
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SQLSyntaxError("unterminated block comment", i, sql)
            i = end + 2
            continue
        # String literal with '' escaping.
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n:
                    raise SQLSyntaxError("unterminated string literal", i, sql)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(buf), i))
            i = j + 1
            continue
        # Quoted identifiers: "x", `x`, [x]
        if ch in ('"', "`", "["):
            closer = {"[": "]"}.get(ch, ch)
            end = sql.find(closer, i + 1)
            if end == -1:
                raise SQLSyntaxError("unterminated quoted identifier", i, sql)
            tokens.append(Token(TokenType.IDENT, sql[i + 1 : end], i))
            i = end + 1
            continue
        # Numbers: integer, decimal, exponent.
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < n and (sql[j + 1].isdigit() or sql[j + 1] in "+-"):
                        seen_exp = True
                        j += 2 if sql[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        # Identifiers / keywords.
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_$"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        # Positional parameter.
        if ch == "?":
            tokens.append(Token(TokenType.PARAM, "?", i))
            i += 1
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i, sql)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def outcome(lex, sql):
    """Tokens as tuples, or the error's message and position."""
    try:
        return [(t.type, t.value, t.position) for t in lex(sql)]
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)


def assert_same(sql):
    assert outcome(tokenize, sql) == outcome(reference_tokenize, sql), repr(sql)


# -- inputs -----------------------------------------------------------------------

_ASCII_FRAGMENTS = (
    "SELECT", "select", "FROM", "where", "x", "t1", "_a", "a$b", "$", "ab_9",
    " ", "  ", "\t", "\n", "\r\n", "\f", "\v",
    "'", "''", "'it''s'", "'a'", '"', '"q x"', "`", "`b`", "[", "]", "[c d]",
    "--", "-- note\n", "/*", "*/", "/* c */", "/*/", "*",
    "?", "0", "7", "42", "3.14", ".", ".5", "1.", "1e5", "1e", "1e+", "1E-",
    "2.5E-3", "e", "E", "+", "-", "<>", "!=", "<=", ">=", "||", "|", "!",
    "=", "<", ">", "/", "%", "(", ")", ",", ";", "^", "#", "@", "\\", "&", "~",
)

# letters, digits and spaces outside ASCII, including characters where
# \d and \w disagree with str.isdigit and str.isalpha
_UNICODE_FRAGMENTS = (
    "é", "ß", "ſelect", "ǅ", "Ω", "ж", "一", "兆", "ℵ", "ª",
    "٣", "߁", "१", "𝟙", "²", "¹²", "①", "𐩀", "½", "Ⅻ", "〇", "𐄇", "፩",
    "\u00a0", "\u2003", "\u3000", "\u2028", "\u0085", "\x1c",
)

_fragments = st.one_of(
    st.sampled_from(_ASCII_FRAGMENTS),
    st.sampled_from(_UNICODE_FRAGMENTS),
    st.characters(blacklist_categories=("Cs",)),
)
_texts = st.lists(_fragments, max_size=24).map("".join)


# -- properties -------------------------------------------------------------------


class TestDifferential:
    @given(_texts)
    @settings(max_examples=600)
    def test_fragment_soup(self, sql):
        assert_same(sql)

    @given(st.text(max_size=40))
    @settings(max_examples=300)
    def test_arbitrary_text(self, sql):
        assert_same(sql)

    def test_quirks(self):
        for sql in (
            "1e+", "1e+x", "1e5e5", "1.5e5.5", ".5.5", "1..2", "5.e+", "1.e",
            "a -- c", "a -- c\nb", "/*/ x */ y", "/* a */*/", "'abc''", "'a'''",
            "''''", "'a'' '", "'x'y'", '""', "``", "[]", '"a""b"', "[a]]",
            "a$ $a", "_$1", "ſelect x", "1²3", "a½", "½a", "x.²", "1e²",
        ):
            assert_same(sql)

    def test_every_numeric_and_space_character(self):
        """Every character outside ASCII that \\d, \\w or \\s could misfile,
        in each context where the lexer tests a character class."""
        specials = [
            chr(cp)
            for cp in range(128, sys.maxunicode + 1)
            if chr(cp).isnumeric() or chr(cp).isspace()
        ]
        assert len(specials) > 1000
        for ch in specials:
            for sql in (ch, f"1{ch}", f"a{ch}", f".{ch}", f"1e{ch}", f"{ch}x"):
                assert_same(sql)

    def test_keywords_and_identifiers(self):
        for word in sorted(KEYWORDS):
            assert_same(f"{word.lower()} {word}x _{word}")
