"""The per-character SQL tokenizer the master-pattern scanner in
:mod:`repro.sql.lexer` replaced, kept verbatim (with the unary-minus fold
over it) as the reference its tokens are checked against
(``tests/test_lexer_scanner.py``)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError
from repro.sql.lexer import EOF, IDENT, KEYWORD, KEYWORDS, NUMBER, OP, STRING

_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>")
_ONE_CHAR_OPS = "+-*/%(),.=<>"


@dataclass(frozen=True)
class Token:
    """One lexeme: kind, raw text, and source position."""

    kind: str
    value: str
    position: int

    def matches_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.value == word.upper()


def tokenize(text: str) -> list[Token]:
    """Turn SQL text into a token list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":
            # Line comment.
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, start))
            else:
                tokens.append(Token(IDENT, word, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    # A dot not followed by a digit ends the number
                    # (e.g. ``1.x`` is not valid here anyway).
                    if i + 1 >= n or not text[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            # Scientific notation: 1e5, 2.5E-7, 3e+2.
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    while j < n and text[j].isdigit():
                        j += 1
                    i = j
                    seen_dot = True  # exponents always produce floats
            value = text[start:i]
            if seen_dot and "." not in value and "e" not in value and "E" not in value:
                value += ".0"
            tokens.append(Token(NUMBER, value, start))
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: list[str] = []
            while i < n:
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        chunks.append("'")  # escaped quote
                        i += 2
                        continue
                    break
                chunks.append(text[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated string literal", start)
            i += 1  # closing quote
            tokens.append(Token(STRING, "".join(chunks), start))
            continue
        if ch == "`":
            start = i
            i += 1
            end = text.find("`", i)
            if end < 0:
                raise ParseError("unterminated backquoted identifier", start)
            tokens.append(Token(IDENT, text[i:end], start))
            i = end + 1
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(OP, "!=" if two == "<>" else two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS or ch == ";":
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(EOF, "", n))
    return tokens


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
