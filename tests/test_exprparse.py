import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgha import Element, FreeWord, Poly, parse_element_expr, reduce_word
from qgha.exprparse import MAX_NESTING
from qgha.errors import (
    CapacityExceeded,
    DivisionByZero,
    ExprSyntaxError,
    LexError,
)

from conftest import QQ, F7, algebra, random_element, rng_for


@pytest.fixture
def A():
    return algebra(QQ, 2, [0, 0, 1], [0, 1])  # q=2, f=h^2, g=h


def test_relation_normalization(A):
    x, y, h = A.generators()
    assert parse_element_expr("y*x", A) == 2 * (x * y) + h


def test_mixed_expression(A):
    e = parse_element_expr("3*x^2*h*y + (1/2)*h^3", A)
    expected = Element(
        A, {(2, 1): Poly([0, 3], QQ), (0, 0): Poly([0, 0, 0, Fraction(1, 2)], QQ)}
    )
    assert e == expected


def test_precedence_and_parens(A):
    x, y, h = A.generators()
    assert parse_element_expr("x + y*h", A) == x + y * h
    assert parse_element_expr("(x + y)*h", A) == (x + y) * h
    assert parse_element_expr("x^2*y", A) == x * x * y
    assert parse_element_expr("2*x - 3*y", A) == 2 * x - 3 * y


def test_scalars(A):
    assert parse_element_expr("-3", A) == Element.from_scalar(A, -3)
    assert parse_element_expr("1/2 + 1/3", A) == Element.from_scalar(A, Fraction(5, 6))
    assert parse_element_expr("x * -2", A) == -2 * A.x()
    assert parse_element_expr("0", A).is_zero()
    with pytest.raises(DivisionByZero):
        parse_element_expr("1/0", A)


def test_whitespace_insignificant(A):
    assert parse_element_expr(" y * x ", A) == parse_element_expr("y*x", A)
    assert parse_element_expr("1 / 2", A) == Element.from_scalar(A, Fraction(1, 2))


def test_whitespace_is_str_isspace(A):
    # tab, a separator control, NEXT LINE and the ideographic space are all
    # str.isspace(); ZERO WIDTH SPACE is not, nor is a digit, ARABIC-INDIC THREE
    for space in ("\t", "\x1c", "\x85", "\u3000"):
        assert parse_element_expr(f"{space}y{space}*{space}x{space}", A) == A.y() * A.x()
        half = parse_element_expr(f"1{space}/{space}2", A)
        assert half == Element.from_scalar(A, Fraction(1, 2))
    for bad in ("\u200b", "\u0663"):
        with pytest.raises(LexError) as info:
            parse_element_expr(f"y * {bad}x", A)
        assert info.value.position == 4


def test_power_zero_and_one(A):
    assert parse_element_expr("x^0", A) == A.one()
    assert parse_element_expr("h^1", A) == A.h()


def test_syntax_error_double_star(A):
    with pytest.raises(ExprSyntaxError) as info:
        parse_element_expr("x**2", A)
    assert info.value.position == 2


def test_syntax_error_trailing_operator(A):
    with pytest.raises(ExprSyntaxError) as info:
        parse_element_expr("x+", A)
    assert info.value.position == 2


def test_syntax_error_positions(A):
    cases = {
        "x 2": 2,  # trailing input
        "x^y": 2,  # exponent must be a number
        "(x+y": 4,  # missing ')'
        "": 0,  # empty input
        "x/2": 1,  # '/' is only part of a scalar
    }
    for text, pos in cases.items():
        with pytest.raises(ExprSyntaxError) as info:
            parse_element_expr(text, A)
        assert info.value.position == pos, text


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() converts any number of digits")
def test_oversized_integer_literal(A):
    digits = "9" * (_DIGIT_LIMIT + 1)
    for text, pos in ((digits, 0), ("x^" + digits, 2), ("-1/" + digits, 3)):
        with pytest.raises(ExprSyntaxError, match="too long") as info:
            parse_element_expr(text, A)
        assert info.value.position == pos


@pytest.mark.parametrize("levels", [2000, 10**5])
def test_deep_nesting_is_a_syntax_error(A, levels):
    # past the bound the parser stops at the first '(' too many instead of
    # running into the interpreter's recursion limit
    text = "(" * levels + "x" + ")" * levels
    # CPU time of this process, so that load on the host does not count
    start = time.process_time()
    with pytest.raises(ExprSyntaxError, match="nested parentheses") as info:
        parse_element_expr(text, A)
    assert time.process_time() - start < 1.0
    assert info.value.position == MAX_NESTING


def test_nesting_up_to_the_bound_parses(A):
    x, y, h = A.generators()
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_element_expr(deepest, A) == x
    with pytest.raises(ExprSyntaxError):
        parse_element_expr("(" + deepest + ")", A)
    # a power and a product at every level keep the same bound
    text = "y"
    for _ in range(MAX_NESTING):
        text = f"(h*{text})^1"
    assert parse_element_expr(text, A) == h**MAX_NESTING * y


def test_lex_error(A):
    with pytest.raises(LexError) as info:
        parse_element_expr("x$2", A)
    assert info.value.position == 1


def test_exponent_capacity(A):
    with pytest.raises(CapacityExceeded):
        parse_element_expr("x^99999999999", A)
    with pytest.raises(CapacityExceeded):
        parse_element_expr("(x+y)^30", A)  # 2^30 word expansion


def test_expansion_capacity_fails_before_arithmetic(A):
    # (x+y)^13 alone would take seconds to multiply out; the size check on
    # the whole parse must fire first
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded) as info:
        parse_element_expr("(x+y)^13*(x+y)^2", A)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "expression expansion of size 32768 exceeds capacity bound 10000"
    )


def test_fp_scalars():
    B = algebra(F7, 3, [0, 0, 1], [0, 1, 1])
    assert parse_element_expr("10", B) == Element.from_scalar(B, 3)
    assert parse_element_expr("1/3", B) == Element.from_scalar(B, 5)
    assert parse_element_expr("-1", B) == Element.from_scalar(B, 6)


# A leading '-' is the sign of the atom it precedes, be it a number, a letter
# or a '(': each text with its value, built from the generators x, y, h and
# the scalar c(num, den) = num/den of the algebra's field.
_SIGNED_VALUES = [
    ("-3", lambda x, y, h, c: c(-3)),
    ("-3/4", lambda x, y, h, c: c(-3, 4)),
    ("-3^2", lambda x, y, h, c: c(9)),
    ("-3/4^2", lambda x, y, h, c: c(9, 16)),
    ("2*-3/4", lambda x, y, h, c: c(-3, 2)),
    ("- 3", lambda x, y, h, c: c(-3)),
    ("x*-h", lambda x, y, h, c: -(x * h)),
    ("-(x+1)", lambda x, y, h, c: -x - c(1)),
    ("-x^2", lambda x, y, h, c: x * x),
    ("(-1/3)*y", lambda x, y, h, c: c(-1, 3) * y),
    ("x - -2*y", lambda x, y, h, c: x + c(2) * y),
    ("-0", lambda x, y, h, c: c(0)),
]
_SIGNED_VALUES_F7 = [("-7", lambda x, y, h, c: c(0))]

# Each text with its error type, message and position (None for errors that
# carry no position).
_SIGN_AND_NUMBER_ERRORS = [
    ("--3", ExprSyntaxError, "expected 'x', 'y', 'h', a scalar or '('", 0),
    ("-/2", ExprSyntaxError, "expected 'x', 'y', 'h', a scalar or '('", 0),
    ("-", ExprSyntaxError, "expected 'x', 'y', 'h', a scalar or '('", 0),
    ("-3/", ExprSyntaxError, "expected digits after '/'", 3),
    ("3/x", ExprSyntaxError, "expected digits after '/'", 2),
    ("x^", ExprSyntaxError, "expected a nonnegative integer exponent", 2),
    ("x^-1", ExprSyntaxError, "expected a nonnegative integer exponent", 2),
    ("x^y", ExprSyntaxError, "expected a nonnegative integer exponent", 2),
    ("-3/0", DivisionByZero, "scalar with zero denominator", None),
]
_SIGN_AND_NUMBER_ERRORS_F7 = [
    ("1/7*x", DivisionByZero, "scalar with zero denominator", None),
]

_SIGN_ALGEBRAS = {
    "Q": algebra(QQ, 2, [0, 0, 1], [0, 1]),
    "F7": algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
}


@pytest.mark.parametrize(
    "field_name, text, value",
    [(name, text, value) for name in ("Q", "F7") for text, value in _SIGNED_VALUES]
    + [("F7", text, value) for text, value in _SIGNED_VALUES_F7],
)
def test_signed_literal_values(field_name, text, value):
    A = _SIGN_ALGEBRAS[field_name]

    def c(num, den=1):
        return Element.from_scalar(A, Fraction(num, den))

    assert parse_element_expr(text, A) == value(*A.generators(), c)


@pytest.mark.parametrize(
    "field_name, text, error, message, position",
    [(name, *case) for name in ("Q", "F7") for case in _SIGN_AND_NUMBER_ERRORS]
    + [("F7", *case) for case in _SIGN_AND_NUMBER_ERRORS_F7],
)
def test_sign_and_number_errors(field_name, text, error, message, position):
    with pytest.raises(error) as info:
        parse_element_expr(text, _SIGN_ALGEBRAS[field_name])
    assert type(info.value) is error
    if position is None:
        assert str(info.value) == message
    else:
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


def test_print_parse_round_trip():
    rng = rng_for("round-trip")
    algebras = [
        algebra(QQ, 2, [0, 0, 1], [0, 1]),
        algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
    ]
    for A in algebras:
        _, y, h = A.generators()
        # over Q a leading -1 before an even power prints as -1*h^2*y and
        # (-1*h^2 + h)*y, since -h^2 parses as (-h)^2
        fixed = [-(h**2 * y), (h - h**2) * y]
        for e in fixed + [random_element(rng, A) for _ in range(50)]:
            assert parse_element_expr(str(e), A) == e, str(e)


def test_oracle_normalization_matches_fast_path(A):
    # products of generators in the parser must agree with the same
    # products written out in engine multiplication
    x, y, h = A.generators()
    assert parse_element_expr("y*x*y*x", A) == y * x * y * x
    assert parse_element_expr("h*x^3", A) == h * x * x * x
    assert parse_element_expr("(y*x)^2", A) == (y * x) * (y * x)


# Differential test against the rewriting oracle: a random expression tree is
# rendered to text, and its parse must equal reduce_word of the tree's own
# expansion into free words.  A tree is ("letter", l), ("scalar", text),
# ("sum", [(negate, tree), ...]), ("product", [tree, ...]) or ("power", tree, n).

_ORACLE_ALGEBRAS = [
    algebra(QQ, 1, [0, 0, 1], [0, 1]),  # q=1, f=h^2, g=h
    algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1]),  # q=2, f=h^2+1, g=h^3
    algebra(F7, 3, [0, 0, 1], [0, 1, 1]),  # q=3, f=h^2, g=h^2+h over F_7
]

_scalar_texts = st.builds(
    lambda sign, num, den: sign + str(num) + (f"/{den}" if den > 1 else ""),
    st.sampled_from(["", "-"]),
    st.integers(0, 12),  # residues past 7 reduce over F_7
    st.sampled_from([1, 1, 2, 3, 5]),  # all invertible mod 7
)
_leaves = st.one_of(
    st.sampled_from("xyh").map(lambda letter: ("letter", letter)),
    _scalar_texts.map(lambda text: ("scalar", text)),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.lists(st.tuples(st.booleans(), sub), min_size=2, max_size=3).map(
            lambda parts: ("sum", [(False, parts[0][1])] + parts[1:])
        ),
        st.lists(sub, min_size=2, max_size=3).map(lambda parts: ("product", parts)),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: ("power", t[0], t[1])),
    ),
    max_leaves=6,
)


def _render(tree) -> str:
    kind = tree[0]
    if kind in ("letter", "scalar"):
        return tree[1]
    if kind == "sum":
        return "(" + "".join(
            ("-" if negate else "+") * bool(i or negate) + _render(part)
            for i, (negate, part) in enumerate(tree[1])
        ) + ")"
    if kind == "product":
        return "*".join(_render(part) for part in tree[1])
    base = _render(tree[1])
    if tree[1][0] not in ("letter", "sum"):  # a rendered sum is parenthesized
        base = f"({base})"
    return f"{base}^{tree[2]}"


def _expand(tree, field) -> list:
    """Scalar-weighted free words of the tree, multiplied out in order."""
    kind = tree[0]
    if kind == "letter":
        return [(field.one, (tree[1],))]
    if kind == "scalar":
        num, _, den = tree[1].partition("/")
        return [(field.scalar(int(num)) / field.scalar(int(den or 1)), ())]
    if kind == "sum":
        return [
            (-c if negate else c, w)
            for negate, part in tree[1]
            for c, w in _expand(part, field)
        ]
    factors = tree[1] if kind == "product" else [tree[1]] * tree[2]
    words = [(field.one, ())]
    for factor in factors:
        words = [
            (c1 * c2, w1 + w2) for c1, w1 in words for c2, w2 in _expand(factor, field)
        ]
    return words


def _size(tree) -> tuple[int, int]:
    """(number of words, longest word) of the tree's expansion."""
    kind = tree[0]
    if kind == "letter":
        return 1, 1
    if kind == "scalar":
        return 1, 0
    if kind == "sum":
        sizes = [_size(part) for _, part in tree[1]]
        return sum(n for n, _ in sizes), max(m for _, m in sizes)
    factors = tree[1] if kind == "product" else [tree[1]] * tree[2]
    count, length = 1, 0
    for n, m in map(_size, factors):
        count, length = count * n, length + m
    return count, length


@given(
    tree=_trees.filter(lambda t: _size(t)[0] <= 64 and _size(t)[1] <= 6),
    index=st.integers(0, len(_ORACLE_ALGEBRAS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_parse_matches_oracle_on_random_trees(tree, index):
    A = _ORACLE_ALGEBRAS[index]
    text = _render(tree)
    words = [FreeWord(c, w) for c, w in _expand(tree, A.field)]
    assert parse_element_expr(text, A) == reduce_word(words, A), text
