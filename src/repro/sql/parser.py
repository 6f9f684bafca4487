"""Recursive-descent parser for the paper's SQL subset.

Grammar (conjunctive conditions only, matching §1's query class)::

    query     := SELECT items FROM table joins* [WHERE conj]
                 [GROUP BY columns] [HAVING conj]
                 (SELECT DISTINCT is refused: π keeps every row)
    items     := item (',' item)*
    item      := column | agg '(' column | '*' ')' [AS ident]
                 (agg '(' DISTINCT … ')' is refused, not read as agg)
    joins     := [INNER] JOIN table ON conj
    conj      := cond (AND cond)*
    cond      := operand op operand | column [NOT] LIKE string
               | column [NOT] IN '(' literal (',' literal)* ')'
               | column BETWEEN literal AND literal
    operand   := column | literal
    literal   := number | string | DATE string
"""

from __future__ import annotations

from datetime import date

from repro.core.operators import AggregateFunction
from repro.core.predicates import ComparisonOp
from repro.exceptions import SqlSyntaxError, SqlUnsupportedError
from repro.sql.ast import (
    AggregateCall,
    ColumnRef,
    ComparisonExpr,
    JoinClause,
    Literal,
    SelectItem,
    SelectQuery,
    TableRef,
)
from repro.sql.tokenizer import (
    AGGREGATE_NAMES,
    Token,
    TokenType,
    tokenize,
    unquote_string,
)

_OPERATOR_MAP = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NEQ,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}


def parse_sql(sql: str) -> SelectQuery:
    """Parse one SELECT statement.

    Examples
    --------
    >>> q = parse_sql("select T, avg(P) from Hosp join Ins on S=C "
    ...               "where D='stroke' group by T having avg(P)>100")
    >>> len(q.select), len(q.joins), len(q.where), len(q.having)
    (2, 1, 1, 1)
    """
    return _Parser(tokenize(sql)).parse_query()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.END:
            self._position += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.current
        return SqlSyntaxError(
            f"{message} (found {token.value!r})",
            line=token.line, column=token.column,
        )

    def expect_keyword(self, name: str) -> Token:
        if not self.current.is_keyword(name):
            raise self.error(f"expected {name.upper()}")
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        if self.current.type is not TokenType.PUNCTUATION \
                or self.current.value != value:
            raise self.error(f"expected {value!r}")
        return self.advance()

    def accept_keyword(self, *names: str) -> Token | None:
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def expect_identifier(self) -> str:
        if self.current.type is not TokenType.IDENTIFIER:
            raise self.error("expected an identifier")
        return self.advance().value

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_query(self) -> SelectQuery:
        query = SelectQuery()
        self.expect_keyword("select")
        if self.current.is_keyword("distinct"):
            token = self.current
            raise SqlUnsupportedError(
                f"select distinct is not supported: no plan operator drops "
                f"duplicate rows, so it would be evaluated as plain select "
                f"(line {token.line}, column {token.column})")
        query.select.append(self.parse_select_item())
        while self._accept_comma():
            query.select.append(self.parse_select_item())

        self.expect_keyword("from")
        query.from_table = TableRef(self.expect_identifier())
        while True:
            if self.accept_keyword("inner"):
                self.expect_keyword("join")
                query.joins.append(self.parse_join())
            elif self.current.is_keyword("join"):
                self.advance()
                query.joins.append(self.parse_join())
            elif self.current.type is TokenType.PUNCTUATION \
                    and self.current.value == ",":
                # Comma join: cartesian product, conditions in WHERE.
                self.advance()
                query.joins.append(
                    JoinClause(TableRef(self.expect_identifier()), ())
                )
            else:
                break

        if self.accept_keyword("where"):
            query.where = self.parse_conjunction()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            query.group_by.append(self.parse_column())
            while self._accept_comma():
                query.group_by.append(self.parse_column())
        if self.accept_keyword("having"):
            query.having = self.parse_conjunction()

        if self.current.type is TokenType.PUNCTUATION \
                and self.current.value == ";":
            self.advance()
        if self.current.type is not TokenType.END:
            raise self.error("unexpected trailing input")
        return query

    def parse_select_item(self) -> SelectItem:
        token = self.current
        if token.type is TokenType.IDENTIFIER \
                and token.value.lower() in AGGREGATE_NAMES \
                and self._peek_is_open_paren():
            return SelectItem(self.parse_aggregate())
        return SelectItem(self.parse_column())

    def _peek_is_open_paren(self) -> bool:
        nxt = self._tokens[self._position + 1]
        return nxt.type is TokenType.PUNCTUATION and nxt.value == "("

    def parse_aggregate(self) -> AggregateCall:
        name = self.expect_identifier().lower()
        function = AggregateFunction(name)
        self.expect_punct("(")
        if self.current.type is TokenType.STAR:
            if function is not AggregateFunction.COUNT:
                raise self.error(f"{name}(*) is not valid")
            self.advance()
            argument = None
        else:
            if self.current.is_keyword("distinct"):
                token = self.current
                raise SqlUnsupportedError(
                    f"{name}(distinct …) is not supported: it would be "
                    f"evaluated as plain {name}(…) (line {token.line}, "
                    f"column {token.column})")
            argument = self.parse_column()
        self.expect_punct(")")
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        if argument is None and alias is None:
            alias = "count"
        return AggregateCall(function=function, argument=argument,
                             alias=alias)

    def parse_column(self) -> ColumnRef:
        first = self.expect_identifier()
        if self.current.type is TokenType.PUNCTUATION \
                and self.current.value == ".":
            self.advance()
            second = self.expect_identifier()
            return ColumnRef(name=second, table=first)
        return ColumnRef(name=first)

    def parse_join(self) -> JoinClause:
        table = TableRef(self.expect_identifier())
        self.expect_keyword("on")
        conditions = self.parse_conjunction()
        return JoinClause(table, tuple(conditions))

    def parse_conjunction(self) -> list[ComparisonExpr]:
        conditions = [self.parse_condition()]
        while self.accept_keyword("and"):
            conditions.append(self.parse_condition())
        return conditions

    def parse_condition(self) -> ComparisonExpr:
        left = self.parse_operand()
        negated = bool(self.accept_keyword("not"))
        if self.accept_keyword("like"):
            right = self.parse_literal()
            if negated:
                raise self.error("NOT LIKE is not supported")
            return ComparisonExpr(left, ComparisonOp.LIKE, right)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            values = [self.parse_literal()]
            while self._accept_comma():
                values.append(self.parse_literal())
            self.expect_punct(")")
            if negated:
                raise self.error("NOT IN is not supported")
            return ComparisonExpr(left, ComparisonOp.IN, tuple(values))
        if self.accept_keyword("between"):
            if negated:
                raise self.error("NOT BETWEEN is not supported")
            low = self.parse_literal()
            self.expect_keyword("and")
            high = self.parse_literal()
            # BETWEEN is sugar for two range conditions; represent as a
            # synthetic IN-like pair the planner expands.
            return ComparisonExpr(left, ComparisonOp.IN,
                                  ("__between__", low, high))
        if negated:
            raise self.error("NOT must be followed by LIKE/IN/BETWEEN")
        if self.current.type is not TokenType.OPERATOR:
            raise self.error("expected a comparison operator")
        op = _OPERATOR_MAP[self.advance().value]
        right = self.parse_operand()
        return ComparisonExpr(left, op, right)

    def parse_operand(self) -> ColumnRef | Literal | AggregateCall:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            if token.value.lower() in AGGREGATE_NAMES \
                    and self._peek_is_open_paren():
                # HAVING conditions may reference aggregates (avg(P) > 100).
                return self.parse_aggregate()
            return self.parse_column()
        return self.parse_literal()

    def parse_literal(self) -> Literal:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(unquote_string(token.value))
        if token.is_keyword("date"):
            self.advance()
            if self.current.type is not TokenType.STRING:
                raise self.error("expected a date string")
            text = unquote_string(self.advance().value)
            try:
                return Literal(date.fromisoformat(text))
            except ValueError:
                raise self.error(f"invalid date {text!r}") from None
        raise self.error("expected a literal")

    def _accept_comma(self) -> bool:
        if self.current.type is TokenType.PUNCTUATION \
                and self.current.value == ",":
            self.advance()
            return True
        return False
