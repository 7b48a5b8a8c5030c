"""Recursive-descent parser for element expressions.

Grammar (whitespace insignificant between tokens):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := ['-'] ('x' | 'y' | 'h' | '(' expr ')' | scalar)
    scalar := digits ['/' digits]

A leading '-' binds to its atom, a number as much as a letter: "-x^2" is
(-x)^2, just as "-3^2" is 9, and "-x" evaluates as "-1*x".

Parsing builds a small syntax tree and counts the words it expands to
(sums add, products multiply, atoms are one word), raising CapacityExceeded
as soon as a count passes SEARCH_CAP.  Only a fully parsed, in-bound tree
is evaluated, with the normal-form arithmetic of `Element`.

Parentheses nest at most MAX_NESTING deep, well inside the interpreter's
recursion limit (a level costs four frames); a '(' past it is an
ExprSyntaxError at its position.

Error positions are 0-based character offsets.  Two canonical cases:
"x**2" raises ExprSyntaxError at position 2 (the second '*'), and "x+"
raises ExprSyntaxError at position 2 (an atom was expected at end of
input).
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple

from .algebra import MAX_EXPONENT, AlgebraParams, Element
from .capacity import check_search
from .errors import CapacityExceeded, DivisionByZero, ExprSyntaxError, LexError
from .serial import DECIMAL

# first characters of the atoms that a leading '-' binds to
_SIGNABLE = set("0123456789xyh(")
MAX_NESTING = 100

_Token = namedtuple("_Token", "kind text pos")  # kind: "letter", "number", "op" or "end"
# a token's kind is its group's name; any other character but whitespace is "bad"
_TOKEN = re.compile(
    rf"(?P<letter>[xyh])|(?P<number>{DECIMAL.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastgroup == "bad":
            raise LexError(f"unexpected character {match.group()!r}", match.start())
        tokens.append(_Token(match.lastgroup, match.group(), match.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _evaluate(node):
    """A node is an Element, an int exponent, or (first node, [(operator,
    operand node), ...]) folded left to right; each sum or product is one
    flat node, so the depth is the nesting of parentheses and powers."""
    if not isinstance(node, tuple):
        return node
    first, steps = node
    value = _evaluate(first)
    for op, operand in steps:
        value = op(value, _evaluate(operand))
    return value


class _Parser:
    """Each production returns (word count, syntax node)."""

    def __init__(self, tokens: list[_Token], algebra: AlgebraParams):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0
        self.algebra = algebra
        self.field = algebra.field
        self.letters = dict(zip("xyh", algebra.generators()))

    def _peek(self) -> _Token:
        return self.tokens[self.idx]

    def _advance(self) -> _Token:
        token = self.tokens[self.idx]
        self.idx += 1
        return token

    def _number(self, expected: str) -> int:
        """Consume a number token; any other token is the syntax error
        `expected` at its position, and too many digits for int() is one too."""
        token = self._advance()
        if token.kind != "number":
            raise ExprSyntaxError(expected, token.pos)
        try:
            return int(token.text)
        except ValueError:
            raise ExprSyntaxError(
                f"integer literal of {len(token.text)} digits is too long", token.pos
            ) from None

    def _at_op(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind == "op" and token.text in ops

    def parse(self):
        _, node = self.expr()
        token = self._peek()
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected input {token.text!r}", token.pos)
        return node

    def expr(self):
        count, first = self.term()
        steps = []
        while self._at_op("+", "-"):
            op = operator.sub if self._advance().text == "-" else operator.add
            rhs_count, rhs = self.term()
            count += rhs_count
            steps.append((op, rhs))
        return count, (first, steps)

    def term(self):
        count, first = self.factor()
        steps = []
        while self._at_op("*"):
            self._advance()
            rhs_count, rhs = self.factor()
            count *= rhs_count
            check_search(count, "expression expansion")
            steps.append((operator.mul, rhs))
        return count, (first, steps)

    def factor(self):
        count, base = self.atom()
        if not self._at_op("^"):
            return count, base
        self._advance()
        exponent = self._number("expected a nonnegative integer exponent")
        if exponent > MAX_EXPONENT:
            raise CapacityExceeded(f"exponent {exponent} beyond 2^31")
        # base^1, ..., base^n in turn: the first size over the bound is reported
        for k in range(1, exponent + 1) if count > 1 else ():
            check_search(count**k, "expression expansion")
        return count**exponent, (base, [(operator.pow, exponent)])

    def atom(self):
        token = self._peek()
        if self._at_op("-") and self.tokens[self.idx + 1].text[:1] in _SIGNABLE:
            self._advance()
            count, node = self.atom()
            minus_one = Element.from_scalar(self.algebra, -self.field.one)
            return count, (minus_one, [(operator.mul, node)])
        if token.kind == "letter":
            self._advance()
            return 1, self.letters[token.text]
        if self._at_op("("):
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"more than {MAX_NESTING} nested parentheses", token.pos)
            self._advance()
            self.depth += 1
            result = self.expr()
            self.depth -= 1
            closing = self._peek()
            if not self._at_op(")"):
                raise ExprSyntaxError("expected ')'", closing.pos)
            self._advance()
            return result
        return 1, Element.from_scalar(self.algebra, self._scalar())

    def _scalar(self):
        """The last alternative of an atom, so a missing numerator is
        reported as a missing atom."""
        value = self.field.scalar(self._number("expected 'x', 'y', 'h', a scalar or '('"))
        if self._at_op("/"):
            self._advance()
            denominator = self.field.scalar(self._number("expected digits after '/'"))
            if denominator.is_zero():
                raise DivisionByZero("scalar with zero denominator")
            value = value / denominator
        return value


def parse_element_expr(text: str, algebra: AlgebraParams) -> Element:
    """Parse and size-check an element expression, then evaluate it."""
    return _evaluate(_Parser(_tokenize(text), algebra).parse())
