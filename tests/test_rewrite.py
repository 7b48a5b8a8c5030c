import itertools
from fractions import Fraction

import pytest

import qgha.algebra
from qgha import Element, FreeWord, Poly, element_words, oracle_multiply, reduce_word
from qgha.errors import AlgebraMismatch, DivisionByZero, FieldMismatch, InvalidArgument

from conftest import QQ, F7, algebra, random_element, rng_for


def _fractional():
    # q = 1/2, f = h^2/3 + 1/2, g = 2h/5: every rule scales by a fraction
    return algebra(QQ, Fraction(1, 2), [Fraction(1, 2), 0, Fraction(1, 3)], [0, Fraction(2, 5)])


def _letter_product(A, word):
    gens = {"x": A.x(), "y": A.y(), "h": A.h()}
    acc = A.one()
    for ch in word:
        acc = acc * gens[ch]
    return acc


def test_reduce_single_relations():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])  # q=2, f=h^2, g=h
    x, y, h = A.generators()
    assert reduce_word("yx", A) == A.q * (x * y) + Element.from_poly(A, A.g)
    assert reduce_word("hx", A) == Element.monomial(A, 1, A.f, 0)
    assert reduce_word("yh", A) == Element.monomial(A, 0, A.f, 1)


def test_reduce_word_forms():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])
    expected = Element(A, {(2, 1): Poly.one(QQ), (1, 0): Poly([0, 1, 1], QQ)})
    assert reduce_word("yxx", A) == expected
    weighted = FreeWord(QQ.scalar(3), "yxx")
    assert reduce_word(weighted, A) == 3 * expected
    assert reduce_word([weighted, FreeWord(QQ.scalar(-3), "yxx")], A).is_zero()
    # letters from any iterable are kept as a str
    tupled = FreeWord(QQ.scalar(3), ("y", "x", "x"))
    assert tupled.letters == "yxx"
    assert repr(tupled) == "FreeWord(3, 'yxx')"
    assert repr(FreeWord(QQ.scalar(Fraction(-3, 2)), iter("hy"))) == "FreeWord(-3/2, 'hy')"
    assert reduce_word(tupled, A) == 3 * expected
    assert reduce_word((w for w in ["yxx", tupled, "yxx"]), A) == 5 * expected
    assert reduce_word("", A) == A.one()
    assert reduce_word([], A).is_zero()
    # words whose coefficients have different denominators, over fractional rules
    B = _fractional()
    x, y, h = B.generators()
    words = [FreeWord(QQ.scalar(Fraction(1, 2)), "yx"), FreeWord(QQ.scalar(Fraction(-2, 3)), "hyx")]
    assert reduce_word(words, B) == (y * x).scale(Fraction(1, 2)) - (h * y * x).scale(Fraction(2, 3))
    with pytest.raises(ValueError):
        FreeWord(QQ.one, "xz")
    with pytest.raises(ValueError):
        FreeWord(QQ.one, ("x", "xy"))
    with pytest.raises(FieldMismatch):
        reduce_word(FreeWord(F7.one, "yx"), A)


def test_word_coefficients_coerce_into_the_field():
    # an int or a Fraction weighs a word as the equal Scalar does
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    for value, word in ((3, "yx"), (-2, "hyxx"), (Fraction(3, 2), "hyx"), (Fraction(-5, 7), "yyx")):
        want = reduce_word(FreeWord(QQ.scalar(value), word), A)
        assert reduce_word(FreeWord(value, word), A) == want
        assert reduce_word([FreeWord(value, word), word], A) == want + reduce_word(word, A)
    B = algebra(F7, 3, [1, 0, 1], [0, 1, 1])
    for value, residue in ((10, 3), (-1, 6), (Fraction(1, 2), 4), (Fraction(-3, 5), 5)):
        assert reduce_word(FreeWord(value, "yhx"), B) == reduce_word(FreeWord(F7.scalar(residue), "yhx"), B)
    # another field's Scalar is refused; so is a Fraction that is not a residue mod p
    with pytest.raises(FieldMismatch):
        reduce_word(FreeWord(F7.scalar(3), "yx"), A)
    with pytest.raises(FieldMismatch):
        reduce_word(FreeWord(QQ.scalar(3), "yx"), B)
    with pytest.raises(DivisionByZero):
        reduce_word(FreeWord(Fraction(1, 7), "yx"), B)
    # a float or a digit string would coerce inexactly or by accident: refused
    for value in (0.1, 2.0, "3"):
        with pytest.raises(InvalidArgument):
            FreeWord(value, "yx")


def test_reduce_degenerate_presentations():
    # f = 0 sends h x to zero; q = 0 drops the x y part of y x
    A = algebra(QQ, 0, [], [1])
    assert reduce_word("hx", A).is_zero()
    assert reduce_word("yx", A) == A.one()


def test_oracle_equivalence_exhaustive():
    algebras = [
        algebra(QQ, 1, [0, 0, 1], [0, 1]),
        algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1]),
        algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
        _fractional(),
    ]
    for A in algebras:
        for length in range(5):
            for word in itertools.product("xyh", repeat=length):
                word = "".join(word)
                assert reduce_word(word, A) == _letter_product(A, word), word


def test_oracle_equivalence_randomized_long_words():
    rng = rng_for("long-words")
    A = algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1])
    for _ in range(40):
        word = "".join(rng.choice("xyh") for _ in range(rng.randint(6, 8)))
        assert reduce_word(word, A) == _letter_product(A, word), word


def test_confluence_strategy_independence():
    algebras = [
        algebra(QQ, 2, [0, 0, 1], [0, 1]),
        algebra(QQ, 0, [1, 1], [2, 0, 1]),
        algebra(F7, 3, [0, 1, 1], [5, 1]),
        _fractional(),
    ]
    for A in algebras:
        for length in range(7):
            for word in itertools.product("xyh", repeat=length):
                word = "".join(word)
                left = reduce_word(word, A, strategy="leftmost")
                right = reduce_word(word, A, strategy="rightmost")
                assert left == right, word
    with pytest.raises(ValueError):
        reduce_word("yx", algebras[0], strategy="innermost")


def test_element_words_round_trip(alg_q2_h2p1_h3, alg_f7):
    rng = rng_for("words-rt")
    for A in (alg_q2_h2p1_h3, alg_f7):
        for _ in range(20):
            e = random_element(rng, A)
            assert reduce_word(element_words(e), A) == e


def test_oracle_multiply_rejects_two_presentations(alg_f7):
    other = algebra(F7, 2, [0, 0, 1], [0, 1, 1])
    with pytest.raises(AlgebraMismatch):
        oracle_multiply(alg_f7.x(), other.y())


def test_oracle_multiply_agrees(alg_f7):
    rng = rng_for("oracle-f7")
    for _ in range(10):
        a = random_element(rng, alg_f7, max_support=2, max_exp=2, max_deg=2)
        b = random_element(rng, alg_f7, max_support=2, max_exp=2, max_deg=2)
        assert oracle_multiply(a, b) == a * b


def test_oracle_is_independent_of_the_fast_path(monkeypatch):
    # the oracle checks the fast path only while it shares none of its arithmetic
    cases = []
    for A in (_fractional(), algebra(F7, 3, [0, 1, 1], [5, 1])):
        x, y, h = A.generators()
        a = x * h * y + (y * y).scale(Fraction(1, 3)) - h
        b = (h * x).scale(Fraction(3, 2)) + y * x * x
        words = ["yxhyx", "hhyxxy", "yyhxx"]
        cases.append((A, a, b, a * b, b * a, [(w, _letter_product(A, w)) for w in words]))

    def forbidden(*args, **kwargs):
        raise AssertionError("the rewriting oracle reached the fast path")

    for name in ("__add__", "__mul__", "compose"):
        monkeypatch.setattr(Poly, name, forbidden)
    monkeypatch.setattr(qgha.algebra, "_times", forbidden)
    for A, a, b, ab, ba, products in cases:
        with pytest.raises(AssertionError):
            a * b
        assert oracle_multiply(a, b) == ab
        assert oracle_multiply(b, a) == ba
        for word, fast in products:
            assert reduce_word(word, A) == fast, word
            assert reduce_word(word, A, strategy="rightmost") == fast, word
