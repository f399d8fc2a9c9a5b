"""The master-pattern scanner against the per-character tokenizer it
replaced, and the parser's direct read of VALUES literals.

``tests/reference_lexer.py`` holds the old loop verbatim. Every text gives
the same tokens (kind, value, position) from both, through the unary-minus
fold too, or the same :class:`~repro.errors.ParseError` message and
position. The VALUES shortcut must give exactly the values the expression
grammar gives, and leave every other entry to the grammar.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.sql import lexer
from repro.sql.parser import parse_statement
from tests import reference_lexer

#: Pieces SQL text is made of, the awkward ones included: exponents, a
#: number ending in ``.``, ``<>``, comments, escaped and unterminated
#: quotes, and non-ASCII letters, digits (decimal or not), numerics and
#: spaces that ``str.isalpha`` / ``isdigit`` / ``isspace`` decide.
_FRAGMENTS = (
    "SELECT", "from", "Where", "id", "_x1", "a.b", "VALUES", "NULL", "true",
    "0", "17", "1.5", "1.", ".5", "2.5e-3", "3E+2", "1e", "1.2.3", "-", "--",
    "-- note\n", "+", "*", "/", "%", "(", ")", ",", ".", "=", "<", ">", "<=",
    ">=", "!=", "<>", ";", "'it''s'", "''", "'", "`weird name`", "`", "@", "!",
    " ", "\t", "\n", " ", "\x1c", "é", "ß", "中", "٣", "²", "½", "Ⅻ",
)

_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map("".join),
    st.text(max_size=24),
)


def _scan(tokenize, text):
    try:
        return [(t.kind, t.value, t.position) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.position)


class TestScannerMatchesReference:
    @settings(max_examples=600)
    @given(_texts)
    def test_tokens_and_errors_are_identical(self, text):
        assert _scan(lexer.tokenize, text) == _scan(reference_lexer.tokenize, text)

    @settings(max_examples=300)
    @given(_texts)
    def test_unary_minus_fold_is_identical(self, text):
        assert _scan(lexer.lifted_tokens, text) == _scan(
            reference_lexer.lifted_tokens, text
        )

    @pytest.mark.parametrize("text", [
        "INSERT INTO t VALUES (1, 'a', -2.5e3), (NULL, 'it''s', -0.0)",
        "SELECT a FROM t WHERE b <> 1. AND c >= .5 -- tail",
        "SELECT naïve, x² FROM `odd table` WHERE ٣ = 1²",
        "'unterminated", "`unterminated", "SELECT @", "a   \n\t  ",
    ])
    def test_statements(self, text):
        assert _scan(lexer.tokenize, text) == _scan(reference_lexer.tokenize, text)

    def test_a_string_token_is_at_its_opening_quote(self):
        assert lexer.tokenize("x = 'a''b'")[2] == (lexer.STRING, "a'b", 4)

    def test_tokens_keep_the_keyword_test(self):
        token = lexer.tokenize("select")[0]
        assert token.matches_keyword("SELECT") and not token.matches_keyword("FROM")


def _values(entry: str, lifted: bool = False) -> object:
    return parse_statement(f"INSERT INTO t VALUES ({entry}, 0)", lifted).rows[0][0]


class TestValuesLiterals:
    @pytest.mark.parametrize("lifted", [False, True])
    def test_negative_zero_keeps_its_sign(self, lifted):
        value = _values("-0.0", lifted)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("lifted", [False, True])
    def test_a_negative_integer_stays_an_int(self, lifted):
        value = _values("-5", lifted)
        assert value == -5 and type(value) is int

    @pytest.mark.parametrize("entry, value", [
        ("'it''s'", "it's"), ("NULL", None), ("TRUE", True), ("FALSE", False),
        ("2.5e3", 2500.0), ("7", 7),
    ])
    def test_constants(self, entry, value):
        got = _values(entry)
        assert got == value and type(got) is type(value)

    def test_the_last_entry_of_a_row_and_many_rows(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, -2), ('a', NULL)")
        assert stmt.rows == [[1, -2], ["a", None]]

    @pytest.mark.parametrize("entry, value", [
        ("1+2", 3), ("-2*3", -6), ("CAST('7' AS int)", 7), ("(4)", 4),
        ("- -5", 5), ("-TRUE", -1),
    ])
    def test_other_constant_entries_go_through_the_grammar(self, entry, value):
        assert _values(entry) == value

    def test_a_column_reference_is_still_refused(self):
        with pytest.raises(ParseError, match="must be constants"):
            _values("id")

    def test_a_literal_not_ending_its_entry_is_an_error_as_before(self):
        with pytest.raises(ParseError, match="expected"):
            parse_statement("INSERT INTO t VALUES (1 2)")
