"""Recursive-descent SQL parser."""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.aggregates import AGGREGATE_FUNCTIONS, AggregateCall
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    CaseWhen,
    Cast,
    Comparison,
    CurrentUser,
    Expression,
    FunctionCall,
    InList,
    IsAccountGroupMember,
    IsNull,
    Like,
    Literal,
    Not,
    Parameter,
    Star,
    UnresolvedColumn,
    literal_type,
)
from repro.engine.expressions import BUILTIN_FUNCTIONS
from repro.engine.types import type_from_name
from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    STRING,
    Token,
    lifted_tokens,
    literal_value,
    tokenize,
)


class UnresolvedFunction(Expression):
    """A function call whose name is not an engine built-in or aggregate.

    Resolved by the plan builder against session / catalog UDFs.
    """

    def __init__(self, name: str, args: tuple[Expression, ...]):
        super().__init__(args)
        self.name = name

    @property
    def resolved(self) -> bool:
        return False

    def with_children(self, children):
        return UnresolvedFunction(self.name, tuple(children))

    def eval(self, batch, ctx):
        raise ParseError(f"unresolved function '{self.name}' reached execution")

    def __str__(self):
        return f"{self.name}({', '.join(str(c) for c in self.children)})"


#: The keyword literals a VALUES entry may be.
_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}


class _Parser:
    def __init__(self, text: str, lifted: bool = False):
        self.text = text
        # A lifted parse reads the token stream ``lift_literals`` lifts, so
        # a slot's value (``-5.0``) is the literal the predicate holds.
        self.tokens = lifted_tokens(text) if lifted else tokenize(text)
        self.pos = 0
        #: Token index -> slot of each literal token (lifted parses only):
        #: the literal's ordinal in the text, as in ``lift_literals``.
        self._slots: dict[int, int] = {}
        if lifted:
            literal_positions = (
                i for i, t in enumerate(self.tokens) if t.kind in (NUMBER, STRING)
            )
            self._slots = {i: slot for slot, i in enumerate(literal_positions)}
        #: True while parsing a predicate (WHERE / HAVING / JOIN ON), where
        #: a lifted literal becomes a :class:`Parameter`.
        self._in_predicate = False

    # -- stream helpers -----------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = self.pos + ahead  # ``advance`` never steps past EOF
        return self.tokens[index] if index < len(self.tokens) else self.tokens[-1]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def accept_kw(self, *words: str) -> bool:
        token = self.peek()
        if token.kind == KEYWORD and token.value in {w.upper() for w in words}:
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        token = self.peek()
        if not token.matches_keyword(word):
            raise ParseError(
                f"expected keyword {word!r}, found {token.value!r}", token.position
            )
        return self.advance()

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == OP and token.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if not (token.kind == OP and token.value == op):
            raise ParseError(
                f"expected {op!r}, found {token.value!r}", token.position
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        # Allow non-reserved use of some keywords as identifiers is skipped
        # for simplicity: identifiers must not be keywords.
        if token.kind != IDENT:
            raise ParseError(
                f"expected identifier, found {token.value!r}", token.position
            )
        self.advance()
        return token.value

    def qualified_name(self) -> str:
        parts = [self.expect_ident()]
        while self.peek().kind == OP and self.peek().value == "." and (
            self.peek(1).kind == IDENT
        ):
            self.advance()
            parts.append(self.expect_ident())
        return ".".join(parts)

    def predicate(self) -> Expression:
        """A WHERE / HAVING / JOIN ON expression (parameter position)."""
        return self._parse_with_params(True, self.parse_expr)

    def _parse_with_params(self, on: bool, parse: Callable[[], Any]) -> Any:
        """Run ``parse()`` with literal lifting switched on or off."""
        outer, self._in_predicate = self._in_predicate, on and bool(self._slots)
        try:
            return parse()
        finally:
            self._in_predicate = outer

    def at_end(self) -> bool:
        if self.peek().kind == OP and self.peek().value == ";":
            self.advance()
        return self.peek().kind == EOF

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.matches_keyword("SELECT"):
            stmt = self.parse_query()
        elif token.matches_keyword("CREATE"):
            stmt = self._parse_create()
        elif token.matches_keyword("INSERT"):
            stmt = self._parse_insert()
        elif token.matches_keyword("UPDATE"):
            stmt = self._parse_update()
        elif token.matches_keyword("DELETE"):
            stmt = self._parse_delete()
        elif token.matches_keyword("MERGE"):
            stmt = self._parse_merge()
        elif token.matches_keyword("BEGIN"):
            self.advance()
            self.accept_kw("TRANSACTION")
            stmt = ast.BeginStatement()
        elif token.matches_keyword("COMMIT"):
            self.advance()
            stmt = ast.CommitStatement()
        elif token.matches_keyword("ROLLBACK"):
            self.advance()
            stmt = ast.RollbackStatement()
        elif token.matches_keyword("GRANT"):
            stmt = self._parse_grant(revoke=False)
        elif token.matches_keyword("REVOKE"):
            stmt = self._parse_grant(revoke=True)
        elif token.matches_keyword("ALTER"):
            stmt = self._parse_alter()
        elif token.matches_keyword("DROP"):
            stmt = self._parse_drop()
        elif token.matches_keyword("SHOW"):
            stmt = self._parse_show()
        elif token.matches_keyword("DESCRIBE"):
            self.advance()
            self.accept_kw("TABLE")
            stmt = ast.DescribeStatement(self.qualified_name())
        else:
            raise ParseError(
                f"cannot parse statement starting with {token.value!r}",
                token.position,
            )
        if not self.at_end():
            extra = self.peek()
            raise ParseError(
                f"unexpected trailing input {extra.value!r}", extra.position
            )
        return stmt

    def _parse_create(self) -> ast.Statement:
        self.expect_kw("CREATE")
        or_replace = False
        if self.accept_kw("OR"):
            self.expect_kw("REPLACE")
            or_replace = True
        materialized = self.accept_kw("MATERIALIZED")
        if self.accept_kw("VIEW"):
            name = self.qualified_name()
            as_token = self.expect_kw("AS")
            query_start = self.peek().position
            # Validate the defining query parses, then keep its raw text.
            self.parse_query()
            query_sql = self.text[query_start:].rstrip().rstrip(";")
            return ast.CreateViewStatement(
                name=name,
                query_sql=query_sql,
                materialized=materialized,
                or_replace=or_replace,
            )
        if materialized:
            raise ParseError("MATERIALIZED requires VIEW", self.peek().position)
        self.expect_kw("TABLE")
        name = self.qualified_name()
        if self.accept_kw("AS"):
            query_start = self.peek().position
            self.parse_query()
            query_sql = self.text[query_start:].rstrip().rstrip(";")
            return ast.CreateTableAsSelectStatement(name=name, query_sql=query_sql)
        self.expect_op("(")
        columns: list[tuple[str, str]] = []
        while True:
            col_name = self.expect_ident()
            col_type = self.expect_ident()
            type_from_name(col_type)  # validate early
            columns.append((col_name, col_type))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateTableStatement(name=name, columns=columns)

    def _parse_insert(self) -> ast.InsertStatement:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.qualified_name()
        if self.peek().matches_keyword("SELECT"):
            query_start = self.peek().position
            self.parse_query()  # validate; keep the raw text
            query_sql = self.text[query_start:].rstrip().rstrip(";")
            return ast.InsertStatement(table=table, rows=[], query_sql=query_sql)
        self.expect_kw("VALUES")
        rows: list[list[Any]] = []
        while True:
            self.expect_op("(")
            row: list[Any] = []
            while True:
                row.append(self._parse_literal_value())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
            rows.append(row)
            if not self.accept_op(","):
                break
        return ast.InsertStatement(table=table, rows=rows)

    def _parse_literal_value(self) -> Any:
        """One VALUES entry: a lone NUMBER, STRING, NULL, TRUE or FALSE (or
        ``-`` NUMBER) before ``,`` / ``)`` read off the tokens, else folded."""
        tokens, at = self.tokens, self.pos
        negate = tokens[at].kind == OP and tokens[at].value == "-"
        token = tokens[at + negate]  # not past EOF: a ``-`` is not EOF
        if token.kind == NUMBER or (not negate and (
            token.kind == STRING or token.value in _CONSTANTS and token.kind == KEYWORD
        )):
            follow = tokens[at + negate + 1]
            if follow.kind == OP and follow.value in (",", ")"):
                self.pos = at + negate + 1
                if token.kind == KEYWORD:
                    return _CONSTANTS[token.value]
                value = literal_value(token)
                return -value if negate else value
        expr = self.parse_expr()
        if isinstance(expr, Literal):
            return expr.value
        # Constant expressions (CAST('01' AS binary), 1+2, ...) are allowed;
        # they must not reference columns or session state.
        if any(isinstance(n, (UnresolvedColumn, CurrentUser)) for n in expr.walk()):
            raise ParseError("INSERT VALUES entries must be constants")
        from repro.engine.batch import ONE_ROW
        from repro.engine.expressions import EvalContext

        return expr.eval(ONE_ROW, EvalContext())[0]

    def _parse_assignments(self) -> list[tuple[str, Expression]]:
        """``col = expr [, ...]`` after SET (UPDATE and MERGE share it)."""
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self.qualified_name()
            self.expect_op("=")
            assignments.append((column, self.parse_expr()))
            if not self.accept_op(","):
                break
        return assignments

    def _parse_update(self) -> ast.UpdateStatement:
        self.expect_kw("UPDATE")
        table = self.qualified_name()
        self.expect_kw("SET")
        assignments = self._parse_assignments()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return ast.UpdateStatement(table=table, assignments=assignments,
                                   where=where)

    def _parse_delete(self) -> ast.DeleteStatement:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.qualified_name()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        return ast.DeleteStatement(table=table, where=where)

    def _parse_merge(self) -> ast.MergeStatement:
        self.expect_kw("MERGE")
        self.expect_kw("INTO")
        target = self.qualified_name()
        target_alias = self._accept_alias()
        self.expect_kw("USING")
        source = self.qualified_name()
        source_alias = self._accept_alias()
        self.expect_kw("ON")
        on = self.parse_expr()
        matched_assignments: list[tuple[str, Expression]] | None = None
        matched_delete = False
        insert_values: list[Expression] | None = None
        saw_when = False
        while self.accept_kw("WHEN"):
            saw_when = True
            if self.accept_kw("MATCHED"):
                if matched_assignments is not None or matched_delete:
                    raise ParseError(
                        "MERGE supports at most one WHEN MATCHED clause",
                        self.peek().position,
                    )
                self.expect_kw("THEN")
                if self.accept_kw("UPDATE"):
                    self.expect_kw("SET")
                    matched_assignments = self._parse_assignments()
                else:
                    self.expect_kw("DELETE")
                    matched_delete = True
                continue
            self.expect_kw("NOT")
            self.expect_kw("MATCHED")
            if insert_values is not None:
                raise ParseError(
                    "MERGE supports at most one WHEN NOT MATCHED clause",
                    self.peek().position,
                )
            self.expect_kw("THEN")
            self.expect_kw("INSERT")
            self.expect_kw("VALUES")
            self.expect_op("(")
            insert_values = [self.parse_expr()]
            while self.accept_op(","):
                insert_values.append(self.parse_expr())
            self.expect_op(")")
        if not saw_when:
            raise ParseError(
                "MERGE requires at least one WHEN clause", self.peek().position
            )
        return ast.MergeStatement(
            target=target,
            source=source,
            on=on,
            target_alias=target_alias,
            source_alias=source_alias,
            matched_assignments=matched_assignments,
            matched_delete=matched_delete,
            insert_values=insert_values,
        )

    def _accept_alias(self) -> str | None:
        if self.accept_kw("AS"):
            return self.expect_ident()
        if self.peek().kind == IDENT:
            return self.expect_ident()
        return None

    def _parse_grant(self, revoke: bool) -> ast.Statement:
        self.expect_kw("REVOKE" if revoke else "GRANT")
        token = self.advance()
        if token.kind not in (IDENT, KEYWORD):
            raise ParseError("expected a privilege name", token.position)
        privilege = token.value.upper()
        # Two-word privileges such as USE CATALOG / USE SCHEMA.
        if privilege == "USE":
            second = self.advance()
            privilege = f"USE_{second.value.upper()}"
        self.expect_kw("ON")
        securable = self.qualified_name()
        if revoke:
            self.expect_kw("FROM")
        else:
            self.expect_kw("TO")
        token = self.peek()
        if token.kind == STRING:
            principal = self.advance().value
        else:
            principal = self.qualified_name()
        if revoke:
            return ast.RevokeStatement(privilege, securable, principal)
        return ast.GrantStatement(privilege, securable, principal)

    def _parse_alter(self) -> ast.Statement:
        self.expect_kw("ALTER")
        self.expect_kw("TABLE")
        table = self.qualified_name()
        if self.accept_kw("SET"):
            self.expect_kw("ROW")
            self.expect_kw("FILTER")
            self.expect_op("(")
            condition = self.parse_expr()
            self.expect_op(")")
            return ast.SetRowFilterStatement(table=table, condition=condition)
        if self.accept_kw("DROP"):
            self.expect_kw("ROW")
            self.expect_kw("FILTER")
            return ast.DropRowFilterStatement(table=table)
        self.expect_kw("ALTER")
        self.expect_kw("COLUMN")
        column = self.expect_ident()
        if self.accept_kw("SET"):
            self.expect_kw("MASK")
            self.expect_op("(")
            mask = self.parse_expr()
            self.expect_op(")")
            return ast.SetColumnMaskStatement(table=table, column=column, mask=mask)
        self.expect_kw("DROP")
        self.expect_kw("MASK")
        return ast.DropColumnMaskStatement(table=table, column=column)

    def _parse_drop(self) -> ast.DropObjectStatement:
        self.expect_kw("DROP")
        if self.accept_kw("TABLE"):
            kind = "TABLE"
        elif self.accept_kw("VIEW"):
            kind = "VIEW"
        else:
            raise ParseError(
                "DROP supports TABLE and VIEW", self.peek().position
            )
        return ast.DropObjectStatement(kind=kind, name=self.qualified_name())

    def _parse_show(self) -> ast.ShowGrantsStatement:
        self.expect_kw("SHOW")
        self.expect_kw("GRANTS")
        self.expect_kw("ON")
        return ast.ShowGrantsStatement(securable=self.qualified_name())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parse_query(self) -> ast.QueryStatement:
        first = self._parse_select()
        selects = [first]
        while self.peek().matches_keyword("UNION"):
            self.advance()
            self.expect_kw("ALL")
            selects.append(self._parse_select())
        if len(selects) == 1:
            return first
        return ast.UnionStatement(inputs=selects)

    def _parse_select(self) -> ast.SelectStatement:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())

        source: ast.FromSource | None = None
        joins: list[ast.JoinClause] = []
        if self.accept_kw("FROM"):
            source = self._parse_from_source()
            joins = self._parse_joins()

        where = self.predicate() if self.accept_kw("WHERE") else None

        group_by: list[Expression] = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())

        having = self.predicate() if self.accept_kw("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())

        limit: int | None = None
        offset = 0
        if self.accept_kw("LIMIT"):
            limit = self._parse_int()
            if self.accept_kw("OFFSET"):
                offset = self._parse_int()

        return ast.SelectStatement(
            items=items,
            source=source,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_int(self) -> int:
        token = self.peek()
        if token.kind != NUMBER or not token.value.isdigit():
            raise ParseError("expected an integer", token.position)
        self.advance()
        return int(token.value)

    def _parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.kind == OP and token.value == "*":
            self.advance()
            return ast.SelectItem(Star())
        # qualified star: ident.*
        if (
            token.kind == IDENT
            and self.peek(1).kind == OP
            and self.peek(1).value == "."
            and self.peek(2).kind == OP
            and self.peek(2).value == "*"
        ):
            qualifier = self.expect_ident()
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(Star(qualifier))
        expr = self.parse_expr()
        alias: str | None = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == IDENT:
            alias = self.expect_ident()
        return ast.SelectItem(expr, alias)

    def _parse_from_source(self) -> ast.FromSource:
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            self.accept_kw("AS")
            alias = self.expect_ident()
            return ast.SubquerySource(query=query, alias=alias)
        name = self.qualified_name()
        alias: str | None = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == IDENT:
            alias = self.expect_ident()
        return ast.TableSource(name=name, alias=alias)

    def _parse_joins(self) -> list[ast.JoinClause]:
        joins: list[ast.JoinClause] = []
        while True:
            how = None
            if self.accept_kw("INNER"):
                how = "inner"
            elif self.accept_kw("LEFT"):
                how = "left"
            elif self.accept_kw("RIGHT"):
                how = "right"
            elif self.accept_kw("FULL"):
                how = "full"
            elif self.accept_kw("CROSS"):
                how = "cross"
            elif self.accept_kw("SEMI"):
                how = "semi"
            elif self.accept_kw("ANTI"):
                how = "anti"
            if how is None:
                if self.peek().matches_keyword("JOIN"):
                    how = "inner"
                else:
                    break
            self.expect_kw("JOIN")
            source = self._parse_from_source()
            condition: Expression | None = None
            if how != "cross":
                self.expect_kw("ON")
                condition = self.predicate()
            joins.append(ast.JoinClause(how=how, source=source, condition=condition))
        return joins

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_kw("DESC"):
            ascending = False
        else:
            self.accept_kw("ASC")
        nulls_first: bool | None = None
        if self.accept_kw("NULLS"):
            if self.accept_kw("FIRST"):
                nulls_first = True
            else:
                self.expect_kw("LAST")
                nulls_first = False
        return ast.OrderItem(expr, ascending, nulls_first)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expr(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_kw("OR"):
            left = BooleanOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_kw("AND"):
            left = BooleanOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_kw("NOT"):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == OP and token.value in ("=", "!=", "<", "<=", ">", ">="):
            op = self.advance().value
            return Comparison(op, left, self._parse_additive())
        if token.matches_keyword("IS"):
            self.advance()
            negated = self.accept_kw("NOT")
            self.expect_kw("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if token.matches_keyword("NOT"):
            # e.g. x NOT IN (...), x NOT LIKE 'p', x NOT BETWEEN a AND b
            if self.peek(1).matches_keyword("IN") or self.peek(1).matches_keyword(
                "LIKE"
            ) or self.peek(1).matches_keyword("BETWEEN"):
                self.advance()
                negated = True
                token = self.peek()
        if self.peek().matches_keyword("LIKE"):
            self.advance()
            pattern = self.peek()
            if pattern.kind != STRING:
                raise ParseError(
                    "LIKE requires a string literal pattern", pattern.position
                )
            self.advance()
            return Like(left, pattern.value, negated=negated)
        if self.peek().matches_keyword("BETWEEN"):
            self.advance()
            low = self._parse_additive()
            self.expect_kw("AND")
            high = self._parse_additive()
            between = BooleanOp(
                "AND",
                Comparison(">=", left, low),
                Comparison("<=", left, high),
            )
            return Not(between) if negated else between
        if self.peek().matches_keyword("IN"):
            self.advance()
            self.expect_op("(")
            values: list[Any] = []
            while True:
                value = self._parse_with_params(False, self.parse_expr)
                if not isinstance(value, Literal):
                    raise ParseError("IN list entries must be literals")
                values.append(value.value)
                if not self.accept_op(","):
                    break
            self.expect_op(")")
            return InList(left, tuple(values), negated=negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == OP and token.value in ("+", "-"):
                op = self.advance().value
                left = Arithmetic(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind == OP and token.value in ("*", "/", "%"):
                op = self.advance().value
                left = Arithmetic(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind == OP and token.value == "-":
            self.advance()
            inner = self._parse_unary()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return Arithmetic("-", Literal(0), inner)
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind == NUMBER or token.kind == STRING:
            slot = self._slots.get(self.pos) if self._in_predicate else None
            self.advance()
            value = literal_value(token)
            if slot is not None:
                return Parameter(slot, literal_type(value))
            return Literal(value)
        if token.matches_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.matches_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.matches_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.matches_keyword("CASE"):
            return self._parse_case()
        if token.matches_keyword("CAST"):
            return self._parse_cast()
        if token.matches_keyword("IF"):
            # IF(cond, a, b) function form.
            self.advance()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(",")
            then = self.parse_expr()
            self.expect_op(",")
            otherwise = self.parse_expr()
            self.expect_op(")")
            return CaseWhen([(cond, then)], otherwise)
        if token.kind == OP and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind == IDENT:
            name = self.qualified_name()
            if self.peek().kind == OP and self.peek().value == "(":
                return self._parse_function_call(name)
            return UnresolvedColumn(name)
        # Keywords that double as builtin function names (e.g. REPLACE from
        # CREATE OR REPLACE) are callable when directly followed by '('.
        if (
            token.kind == KEYWORD
            and token.value.lower() in BUILTIN_FUNCTIONS
            and self.peek(1).kind == OP
            and self.peek(1).value == "("
        ):
            self.advance()
            return self._parse_function_call(token.value)
        raise ParseError(
            f"unexpected token {token.value!r} in expression", token.position
        )

    def _parse_case(self) -> Expression:
        self.expect_kw("CASE")
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            value = self.parse_expr()
            branches.append((cond, value))
        otherwise: Expression | None = None
        if self.accept_kw("ELSE"):
            otherwise = self.parse_expr()
        self.expect_kw("END")
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        return CaseWhen(branches, otherwise)

    def _parse_cast(self) -> Expression:
        self.expect_kw("CAST")
        self.expect_op("(")
        expr = self.parse_expr()
        self.expect_kw("AS")
        type_name = self.expect_ident()
        self.expect_op(")")
        return Cast(expr, type_from_name(type_name))

    def _parse_function_call(self, name: str) -> Expression:
        self.expect_op("(")
        lowered = name.lower()
        distinct = self.accept_kw("DISTINCT")
        args: list[Expression] = []
        if self.peek().kind == OP and self.peek().value == "*":
            self.advance()
            self.expect_op(")")
            if lowered != "count":
                raise ParseError(f"'*' argument only valid for count, not {name}")
            return AggregateCall("count", None)
        # The group name is resolved at plan time: never a parameter.
        in_predicate = self._in_predicate and lowered != "is_account_group_member"
        if not (self.peek().kind == OP and self.peek().value == ")"):
            args.append(self._parse_with_params(in_predicate, self.parse_expr))
            while self.accept_op(","):
                args.append(self._parse_with_params(in_predicate, self.parse_expr))
        self.expect_op(")")

        if lowered == "current_user":
            return CurrentUser()
        if lowered == "is_account_group_member":
            if len(args) != 1 or not isinstance(args[0], Literal):
                raise ParseError(
                    "is_account_group_member takes one string literal"
                )
            return IsAccountGroupMember(str(args[0].value))
        if lowered in AGGREGATE_FUNCTIONS or (distinct and lowered == "count"):
            if len(args) != 1:
                raise ParseError(f"aggregate {name} takes exactly one argument")
            return AggregateCall(lowered, args[0], distinct=distinct)
        if distinct:
            raise ParseError(f"DISTINCT is not valid for function {name}")
        if lowered in BUILTIN_FUNCTIONS:
            return FunctionCall(lowered, tuple(args))
        return UnresolvedFunction(name, tuple(args))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_statement(sql: str, lifted: bool = False) -> ast.Statement:
    """Parse one SQL statement into an AST.

    ``lifted`` parses the text as a plan-cache template: each literal in a
    predicate of a query (WHERE, HAVING, JOIN ON) becomes
    ``Parameter(slot, type)``, ``slot`` being the literal's ordinal in the
    text (:func:`repro.sql.lexer.lift_literals`). Literals anywhere else —
    projections, GROUP / ORDER BY, LIMIT / OFFSET, IN lists, LIKE
    patterns, ``is_account_group_member`` — stay literals: the plan
    depends on their values.
    """
    return _Parser(sql, lifted).parse_statement()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone SQL expression (row filters, masks, tests)."""
    parser = _Parser(sql)
    expr = parser.parse_expr()
    if not parser.at_end():
        extra = parser.peek()
        raise ParseError(
            f"unexpected trailing input {extra.value!r}", extra.position
        )
    return expr
