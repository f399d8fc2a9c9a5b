"""SQL tokenizer."""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "TRUE", "FALSE",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "SEMI", "ANTI", "ON",
    "UNION", "ALL", "DISTINCT", "CASE", "WHEN", "THEN", "ELSE", "END",
    "CAST", "ASC", "DESC", "CREATE", "OR", "REPLACE", "MATERIALIZED",
    "VIEW", "TABLE", "INSERT", "INTO", "VALUES", "GRANT", "REVOKE", "TO",
    "ALTER", "COLUMN", "SET", "DROP", "ROW", "FILTER", "MASK", "FUNCTION",
    "NULLS", "FIRST", "LAST", "EXISTS", "IF", "SHOW", "GRANTS", "DESCRIBE",
    "LIKE", "BETWEEN", "UPDATE", "DELETE", "MERGE", "USING", "MATCHED",
    "BEGIN", "TRANSACTION", "COMMIT", "ROLLBACK",
}

# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
KEYWORD = "KEYWORD"
OP = "OP"
EOF = "EOF"
#: A lifted literal in a template (:func:`lift_literals`); never produced by
#: :func:`tokenize`.
SLOT = "SLOT"


class Token(NamedTuple):
    """One lexeme: kind, raw text, and source position."""

    kind: str
    value: str
    position: int

    def matches_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.value == word.upper()


#: The master pattern: each match skips whitespace (``\s`` is exactly
#: ``str.isspace``) and ``--`` comments, then takes one lexeme. An identifier
#: goes on over ``\w`` (exactly ``str.isalnum`` or ``_``); ``{alpha}`` /
#: ``{digit}`` add the text's non-ASCII ``str.isalpha`` / ``isdigit``
#: characters. A string's closing quote is no half of a ``''`` pair, so one
#: without it is an error at its opening quote, not a shorter string.
_PATTERN = r"""(?s)(?:\s+|--[^\n]*)*(?:
 (?P<word>[A-Za-z_{alpha}]\w*)
|(?P<number>(?:[0-9{digit}]+(?:\.[0-9{digit}]+)?|\.[0-9{digit}]+)(?:[eE][+-]?[0-9{digit}]+)?)
|'(?P<string>(?:[^']|'')*)'(?!')
|`(?P<quoted>[^`]*)`
|(?P<op><=|>=|!=|<>|[-+*/%(),.=<>;])
|(?P<bad>.)
|(?P<end>\Z))"""

#: The pattern's groups, by number (``Match.lastindex``).
_WORD, _NUMBER, _STRING, _QUOTED, _OP, _BAD, _END = range(1, 8)

_ASCII = re.compile(_PATTERN.format(alpha="", digit=""), re.VERBOSE).finditer


def _scanner(text: str) -> Any:
    """The master pattern for ``text``'s non-ASCII letters and digits (``re``
    caches the compiled pattern)."""
    if text.isascii():
        return _ASCII
    wide = sorted({c for c in text if not c.isascii()})
    alpha, digit = ("".join(filter(test, wide)) for test in (str.isalpha, str.isdigit))
    return re.compile(_PATTERN.format(alpha=alpha, digit=digit), re.VERBOSE).finditer


def tokenize(text: str) -> list[Token]:
    """Turn SQL text into a token list ending with an EOF token."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # ``Token(...)`` minus a frame
    for m in _scanner(text)(text):
        group = m.lastindex
        if group == _WORD:
            word = m.group(group)
            upper = word.upper()
            if upper in KEYWORDS:
                append(new(Token, (KEYWORD, upper, m.start(group))))
            else:
                append(new(Token, (IDENT, word, m.start(group))))
        elif group == _OP:
            value = m.group(group)
            append(new(Token, (OP, "!=" if value == "<>" else value, m.start(group))))
        elif group == _NUMBER:
            append(new(Token, (NUMBER, m.group(group), m.start(group))))
        elif group == _STRING:
            value = m.group(group).replace("''", "'")
            append(new(Token, (STRING, value, m.start(group) - 1)))
        elif group == _QUOTED:
            append(new(Token, (IDENT, m.group(group), m.start(group) - 1)))
        elif group == _END:
            break
        else:
            ch, at = m.group(group), m.start(group)
            if ch == "'":
                raise ParseError("unterminated string literal", at)
            if ch == "`":
                raise ParseError("unterminated backquoted identifier", at)
            raise ParseError(f"unexpected character {ch!r}", at)
    append(Token(EOF, "", len(text)))
    return tokens


def literal_value(token: Token) -> int | float | str:
    """The Python value of a NUMBER or STRING token."""
    if token.kind == STRING:
        return token.value
    if any(c in token.value for c in ".eE"):
        return float(token.value)
    return int(token.value)


#: What closes an operand, beside an identifier or a literal: a ``-``
#: after one of these is binary.
_OPERAND_ENDS = frozenset({"NULL", "TRUE", "FALSE", "END", ")"})


def lifted_tokens(text: str) -> list[Token]:
    """``tokenize(text)`` with each unary minus directly before a NUMBER
    folded into it, so ``> -5.0`` holds one literal, ``-5.0``, as ``> 5.0``
    holds ``5.0``. A minus after the end of an operand is binary and stays:
    ``a - 5``, ``a -5`` and ``(a)-5`` are unchanged."""
    tokens = tokenize(text)
    if "-" not in text:
        return tokens
    out: list[Token] = []
    signed = False  # is the last token kept a unary minus?
    for token in tokens:
        if signed and token.kind == NUMBER:
            out[-1] = Token(NUMBER, "-" + token.value, out[-1].position)
            signed = False
            continue
        signed = token.kind == OP and token.value == "-" and not (out and (
            out[-1].kind in (IDENT, NUMBER, STRING) or out[-1].value in _OPERAND_ENDS
        ))
        out.append(token)
    return out


def lift_literals(text: str) -> tuple[tuple[tuple[str, str], ...], tuple[Any, ...]]:
    """``text`` as a literal-free template plus its literal values, in order.

    The template is the token sequence as ``(kind, value)`` pairs with every
    NUMBER / STRING token replaced by ``(SLOT, <Python type name>)``: two
    texts share a template exactly when everything but their literals'
    values is equal — table names included, since those are identifiers.
    A unary minus is part of its number (:func:`lifted_tokens`), so a sign
    flip keeps the template. Raises :class:`ParseError` when ``text`` does
    not tokenize.
    """
    template: list[tuple[str, str]] = []
    values: list[Any] = []
    for token in lifted_tokens(text):
        if token.kind == NUMBER or token.kind == STRING:
            value = literal_value(token)
            values.append(value)
            template.append((SLOT, type(value).__name__))
        else:
            template.append((token.kind, token.value))
    return tuple(template), tuple(values)
