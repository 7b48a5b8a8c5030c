import itertools
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgha import (
    DEG_BOTTOM,
    AlgebraParams,
    Element,
    FieldSpec,
    Poly,
    leading_term_product,
    oracle_multiply,
    reduce_word,
    sigma_pow,
    yx_expand,
)
from qgha import poly as poly_module
from qgha.algebra import MAX_EXPONENT, _times, _yx_terms
from qgha.errors import (
    AlgebraMismatch,
    CapacityExceeded,
    DegenerateAlgebra,
    FieldMismatch,
    ZeroPolynomial,
)
from qgha.serial import algebra_to_dict, dump_algebra, json_text, load_algebra

from conftest import QQ, F7, algebra, random_element, random_poly, rng_for


def test_algebra_make_flags():
    a = algebra(QQ, 1, [0, 1], [0, 1])  # q=1, f=h, g=h
    assert a.is_domain and a.is_gdua
    b = algebra(QQ, 0, [0, 0, 1], [0, 1])  # q=0, f=h^2
    assert not b.is_domain and not b.is_gdua
    c = algebra(F7, 3, [0, 0, 1], [0, 1, 1])
    assert c.is_domain and not c.is_gdua
    with pytest.raises(FieldMismatch):
        AlgebraParams(QQ, 1, Poly([0, 1], F7), Poly([0, 1], QQ))


def test_element_rejects_large_exponents_and_foreign_coefficients(alg_q1_h2_h):
    A = alg_q1_h2_h
    one = Poly.one(QQ)
    assert Element(A, {(MAX_EXPONENT, MAX_EXPONENT): one}).deg_lex() == (
        MAX_EXPONENT,
        MAX_EXPONENT,
    )
    with pytest.raises(CapacityExceeded):
        Element(A, {(MAX_EXPONENT + 1, 0): one})
    with pytest.raises(CapacityExceeded):
        Element(A, {(0, MAX_EXPONENT + 1): one})
    with pytest.raises(FieldMismatch):
        Element(A, {(1, 0): Poly.one(F7)})


def test_element_linear_ops(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    xh = x * h
    assert (xh + (-1) * xh).is_zero()
    e = x * x * h * y + h * h * h
    assert e.support() == {(2, 1), (0, 0)}
    tripled = Element(A, {key: 3 * p for key, p in e.terms.items()})
    assert e * QQ.scalar(3) == e * 3 == 3 * e == tripled
    assert (e * 0).is_zero()
    other = algebra(QQ, 2, [0, 0, 1], [0, 1])
    with pytest.raises(AlgebraMismatch):
        e + other.x()


def test_element_equality_across_algebras(alg_q1_h2_h):
    other = algebra(QQ, 2, [0, 0, 1], [0, 1])
    assert not (alg_q1_h2_h.x() == other.x())


def test_multiply_defining_relations(alg_q1_h2_h, alg_f7):
    for A in (alg_q1_h2_h, alg_f7):
        x, y, h = A.generators()
        assert h * x == Element.monomial(A, 1, A.f, 0)  # h x = x f(h)
        assert y * h == Element.monomial(A, 0, A.f, 1)  # y h = f(h) y
        expected = A.q * (x * y) + Element.from_poly(A, A.g)
        assert y * x == expected  # y x = q x y + g(h)


def test_multiply_h_commutes_with_itself(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    # (x h)(h y) = x h^2 y: h-runs merge with no straightening
    assert (x * h) * (h * y) == Element.monomial(A, 1, Poly([0, 0, 1], QQ), 1)


def test_yx_expand(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    assert yx_expand(1, 1, A) == A.q * (x * y) + Element.from_poly(A, A.g)
    assert yx_expand(0, 3, A) == x * x * x
    assert yx_expand(2, 0, A) == y * y
    # q=1, f=h^2, g=h: y x^2 = x^2 y + x (h^2 + h)
    expected = Element(A, {(2, 1): Poly.one(QQ), (1, 0): Poly([0, 1, 1], QQ)})
    assert yx_expand(1, 2, A) == expected
    assert reduce_word("yxx", A) == expected


def test_yx_expand_matches_oracle_on_words(alg_q2_h2p1_h3, alg_f7):
    presentations = [
        alg_q2_h2p1_h3,
        alg_f7,
        algebra(FieldSpec(13), 2, [0, 0, 1], []),  # g = 0 over F_13
        algebra(QQ, 0, [1, 0, 1], [0, 0, 0, 1]),  # q = 0
        algebra(QQ, 2, [1, 1], [0, 1]),  # deg f = 1
        algebra(F7, 3, [5], [0, 1, 1]),  # constant f
    ]
    for A in presentations:
        for b in range(4):
            for c in range(4):
                word = "y" * b + "x" * c
                assert yx_expand(b, c, A) == reduce_word(word, A)
    # largest word first, on a fresh algebra per word and on one shared
    # algebra, so the memo fills from empty and then serves smaller words
    # (the oracle alone takes seconds on y^4 x^4 in the first presentation)
    for params in presentations[1:]:
        shared = AlgebraParams(params.field, params.q, params.f, params.g)
        for b, c in itertools.product(range(4, -1, -1), repeat=2):
            fresh = AlgebraParams(params.field, params.q, params.f, params.g)
            expected = reduce_word("y" * b + "x" * c, fresh)
            assert yx_expand(b, c, fresh) == expected, (params, b, c)
            assert yx_expand(b, c, shared) == expected, (params, b, c)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_deep_yx_expand_matches_gamma_sum(field):
    # y x^c = q^c x^c y + x^(c-1) Gamma_c, Gamma_c = sum_{j<c} q^(c-1-j) sigma^j(g):
    # each sigma^j(g) here walks j steps from g, independently of the
    # step-on loop in `_yx_terms`
    A = algebra(field, 3, [1, 2], [1, 0, 1])  # f = 2h + 1, g = h^2 + 1
    c = 200
    gamma = Poly.zero(field)
    for j in range(c):
        gamma = gamma + A.q ** (c - 1 - j) * sigma_pow(A.f, j, A.g)
    expected = Element(A, {(c, 1): Poly.const(A.q**c), (c - 1, 0): gamma})
    # each sigma^(n-1)(g) is one memo step on from sigma^(n-2)(g): c - 1 steps
    # in all, where walking from g for every n would take c (c - 1) / 2
    images = _CountingDict()
    assert Element(A, dict(_yx_terms(A, 1, c, images))) == expected
    assert images.lookups == c - 1
    assert yx_expand(1, c, A) == expected


class _CountingDict(dict):
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


_LINEAR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "perfbench", "corpus", "linear.json"
)


@pytest.mark.parametrize(
    "A",
    [algebra(QQ, "-3/2", [1, 0, 1], ["1/3", 0, 0, 1]), algebra(F7, 3, [0, 0, 1], [0, 1, 1])],
    ids=["Q", "F7"],
)
def test_dump_algebra_round_trip(A, tmp_path):
    path = tmp_path / "a.json"
    dump_algebra(A, path)
    assert load_algebra(path) == A
    assert path.read_text(encoding="utf-8") == json_text(algebra_to_dict(A))


@pytest.mark.parametrize("b, c", [(1, 1500), (1500, 1)], ids=["y*x^1500", "y^1500*x"])
def test_deep_products_on_a_linear_f_are_fast(b, c):
    # y * x^1500 runs the Gamma_c loop to c = 1500 and y^1500 * x the y^b
    # loop to b = 1500 (each about 0.05 s on a 2-vCPU host); the step count
    # in test_deep_yx_expand_matches_gamma_sum pins the Gamma_c loop as linear
    A = load_algebra(_LINEAR)
    x, y, _ = A.generators()
    start = time.perf_counter()
    product = y**b * x**c
    assert time.perf_counter() - start < 1.0
    assert product.deg_lex() == (c, b)


def test_deg_lex(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    assert (x * x * h * y + h * h * h).deg_lex() == (2, 1)
    assert Element.zero(A).deg_lex() == DEG_BOTTOM
    assert (x * y**3 + x * y).deg_lex() == (1, 3)
    assert DEG_BOTTOM < (0, 0)


def test_deg_lex_additive(alg_q2_h2p1_h3):
    A = alg_q2_h2p1_h3
    rng = rng_for("deg-additive")
    for _ in range(50):
        a = random_element(rng, A, nonzero=True)
        b = random_element(rng, A, nonzero=True)
        da, db = a.deg_lex(), b.deg_lex()
        assert (a * b).deg_lex() == (da[0] + db[0], da[1] + db[1])


def test_degenerate_zero_divisors():
    # q = 0, f = h, g = h: h is central and y x = h, so (x y - h) x = 0
    A = algebra(QQ, 0, [0, 1], [0, 1])
    x, y, h = A.generators()
    a = x * y - h
    assert not a.is_zero()
    assert (a * x).is_zero()
    # the same pair surfaces in a search over small supports
    monos = [A.one(), x, y, h, x * y]
    found = []
    for signs in itertools.product((-1, 0, 1), repeat=len(monos)):
        cand = Element.zero(A)
        for s, m in zip(signs, monos):
            cand = cand + s * m
        if cand.is_zero():
            continue
        for b in (x, y, h):
            if (cand * b).is_zero():
                found.append((cand, b))
    assert found


def test_associativity_random(alg_q1_h2_h, alg_q2_h2p1_h3, alg_f7):
    rng = rng_for("assoc")
    for A in (alg_q1_h2_h, alg_q2_h2p1_h3, alg_f7):
        for _ in range(25):
            a = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
            b = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
            c = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
            assert (a * b) * c == a * (b * c)


def test_domain_property_random(alg_q2_h2p1_h3):
    rng = rng_for("domain")
    A = alg_q2_h2p1_h3
    for _ in range(30):
        a = random_element(rng, A, nonzero=True)
        b = random_element(rng, A, nonzero=True)
        assert not (a * b).is_zero()


def test_leading_term_product(alg_q1_h2_h):
    A = alg_q1_h2_h
    p = Poly([1, 1], QQ)
    pt = Poly([2, 0, 1], QQ)
    i, poly, k = leading_term_product((1, p, 0), (1, pt, 0), A)
    assert (i, k) == (2, 0)
    assert poly == sigma_pow(A.f, 1, p) * pt
    # q = 2, f = h^2: (p y)(x pt) has top term 2 x sigma(p) sigma(pt) y
    B = algebra(QQ, 2, [0, 0, 1], [0, 1])
    i, poly, k = leading_term_product((0, p, 1), (1, pt, 0), B)
    assert (i, k) == (1, 1)
    assert poly == QQ.scalar(2) * sigma_pow(B.f, 1, p) * sigma_pow(B.f, 1, pt)
    degenerate = algebra(QQ, 0, [0, 1], [0, 1])
    with pytest.raises(DegenerateAlgebra):
        leading_term_product((1, p, 0), (1, pt, 0), degenerate)
    zero = Poly.zero(QQ)
    with pytest.raises(ZeroPolynomial):
        leading_term_product((1, zero, 0), (1, pt, 0), A)
    with pytest.raises(ZeroPolynomial):
        leading_term_product((1, p, 0), (1, zero, 0), A)


def test_leading_term_matches_multiply(alg_q2_h2p1_h3, alg_f7):
    rng = rng_for("leading")
    for A in (alg_q2_h2p1_h3, alg_f7):
        for _ in range(50):
            m1 = (
                rng.randint(0, 3),
                random_poly(rng, A.field, 2, allow_zero=False),
                rng.randint(0, 3),
            )
            m2 = (
                rng.randint(0, 3),
                random_poly(rng, A.field, 2, allow_zero=False),
                rng.randint(0, 3),
            )
            i, top, k = leading_term_product(m1, m2, A)
            full = Element.monomial(A, m1[0], m1[1], m1[2]) * Element.monomial(
                A, m2[0], m2[1], m2[2]
            )
            assert full.deg_lex() == (i, k)
            assert full.terms[(i, k)] == top
            rest = full - Element.monomial(A, i, top, k)
            assert rest.deg_lex() < (i, k)


def test_graded_relations_top_coefficient(alg_q2_h2p1_h3):
    # the top term of a y-monomial times an x-monomial carries q^(c*b),
    # exactly the multiplication in the g = 0 companion presentation
    A = alg_q2_h2p1_h3
    A0 = AlgebraParams(A.field, A.q, A.f, Poly.zero(A.field))
    one = Poly.one(A.field)
    for b in range(3):
        for c in range(3):
            _, top, _ = leading_term_product((0, one, b), (c, one, 0), A)
            companion = Element.monomial(A0, 0, one, b) * Element.monomial(
                A0, c, one, 0
            )
            assert companion == Element.monomial(A0, c, top, b)


def test_graded_components(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    e = x * x * y + h
    parts = e.graded_components()
    assert set(parts) == {1, 0}
    assert parts[1] == x * x * y
    assert parts[0] == h
    diag = x * h * y
    assert diag.graded_components() == {0: diag}
    assert Element.zero(A).graded_components() == {}
    # components sum back and multiply compatibly with the grading
    total = Element.zero(A)
    for part in parts.values():
        total = total + part
    assert total == e
    for d1, p1 in parts.items():
        for d2, p2 in parts.items():
            prod = p1 * p2
            if not prod.is_zero():
                assert set(prod.graded_components()) == {d1 + d2}


def test_iota(alg_q1_h2_h):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    assert (x * x * h * y).iota() == x * h * y * y
    cubed = h * h * h
    assert cubed.iota() == cubed
    # anti-multiplicativity, checked against the engine: iota(hx) = iota(x)iota(h)
    assert (h * x).iota() == x.iota() * h.iota()
    assert x.iota() * h.iota() == Element.monomial(A, 0, A.f, 1)  # = f(h) y


def test_iota_involution_and_antimult(alg_q2_h2p1_h3, alg_f7):
    rng = rng_for("iota")
    for A in (alg_q2_h2p1_h3, alg_f7):
        for _ in range(25):
            a = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
            b = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
            assert a.iota().iota() == a
            assert (a * b).iota() == b.iota() * a.iota()


def test_element_str_deterministic(alg_q1_h2_h, alg_f7):
    A = alg_q1_h2_h
    x, y, h = A.generators()
    e = h + x * x * y + x * (h * h - h)
    assert str(e) == "x^2*y + x*(h^2 - h) + h"
    assert str(Element.zero(A)) == "0"
    assert str(A.one() - A.one()) == "0"

    def element(algebra, *terms):
        return Element(algebra, {(i, k): Poly(cs, algebra.field) for i, cs, k in terms})

    for terms, text in (
        # a negative fraction after the first term
        (((2, [1], 0), (0, [0, Fraction(-1, 2)], 0)), "x^2 - 1/2*h"),
        # a -1 constant in a later term
        (((1, [1], 1), (0, [-1], 0)), "x*y - 1"),
        # a non-first term with a fraction, x, h and y
        (((2, [1], 0), (1, [0, 0, Fraction(-3, 2)], 1)), "x^2 - 3/2*x*h^2*y"),
        # a multi-term p with a negative leading coefficient
        (((2, [1], 0), (1, [1, 0, -1], 1)), "x^2 + x*(-1*h^2 + 1)*y"),
        # a -1 in the first term keeps its sign
        (((0, [-1], 2),), "-1*y^2"),
    ):
        assert str(element(A, *terms)) == text
    # over F_7 a coefficient 6 is a residue, written without a minus sign
    assert str(element(alg_f7, (1, [0, 6], 0), (0, [6], 0))) == "6*x*h + 6"
    assert str(element(alg_f7, (1, [1, 6], 1))) == "x*(6*h + 1)*y"


def test_oracle_multiply_matches_fast(alg_q2_h2p1_h3):
    rng = rng_for("oracle-mul")
    A = alg_q2_h2p1_h3
    for _ in range(10):
        a = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
        b = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
        assert oracle_multiply(a, b) == a * b


def _multiply_by_sigma_pow(a, b):
    """Reference product: sigma^s of each coefficient composed from scratch."""
    A = a.algebra
    out = Element.zero(A)
    for (i1, k1), p1 in a.terms.items():
        for (i2, k2), p2 in b.terms.items():
            for (s, t), w in yx_expand(k1, i2, A).terms.items():
                coeff = sigma_pow(A.f, s, p1) * w * sigma_pow(A.f, t, p2)
                out = out + Element.monomial(A, i1 + s, coeff, t + k2)
    return out


_ORBIT_ALGEBRAS = [
    algebra(QQ, 0, [0, 0, 1], [0, 1]),
    algebra(QQ, 2, [3], [0, 1]),
    algebra(QQ, -1, [Fraction(1, 2), 3], [1, 0, 1]),
    algebra(F7, 0, [2, 5], [3]),
    algebra(F7, 4, [6], [0, 2, 1]),
    algebra(F7, 3, [0, 1], [0, 1, 1]),
    algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
    algebra(QQ, 2, [1, -1], [0, 1]),  # f = 1 - h: sigma has period 2
]


@given(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, len(_ORBIT_ALGEBRAS) - 1),
    max_deg=st.sampled_from([0, 2]),
)
@settings(max_examples=60, deadline=None)
def test_multiply_orbits_match_references(seed, index, max_deg):
    A = _ORBIT_ALGEBRAS[index]
    rng = random.Random(seed)
    # max_deg 0 gives constant coefficients, which sigma fixes
    a = random_element(rng, A, max_support=2, max_exp=4, max_deg=max_deg)
    b = random_element(rng, A, max_support=2, max_exp=4, max_deg=max_deg)
    product = a * b
    assert product == _multiply_by_sigma_pow(a, b)
    assert product == oracle_multiply(a, b)


@given(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, len(_ORBIT_ALGEBRAS) - 1),
)
@settings(max_examples=30, deadline=None)
def test_powers_share_orbits_between_operands(seed, index):
    A = _ORBIT_ALGEBRAS[index]
    e = random_element(random.Random(seed), A, max_support=2, max_exp=2, max_deg=2)
    # both operands of e * e hold the same polynomials, so one sigma memo serves both
    square = oracle_multiply(e, e)
    assert e * e == square
    assert e**3 == oracle_multiply(e, square)


@pytest.mark.parametrize("field", [QQ, FieldSpec(1009)], ids=str)
def test_product_through_a_65_coefficient_compose(field):
    # h * x^7 = x^7 sigma^7(h): the last step composes sigma^6(h), 65
    # coefficients, with f = h^2 + 300, whose numerators exceed a byte
    A = algebra(field, 2, [300, 0, 1], [0, 1])
    h = Element.monomial(A, 0, Poly.h(field), 0)
    x7 = Element.monomial(A, 7, Poly.one(field), 0)
    product = h * x7
    assert product == Element.monomial(A, 7, sigma_pow(A.f, 7, Poly.h(field)), 0)
    assert product == oracle_multiply(h, x7)


# Left terms that share k1 = 2; right terms of one grade i2 - k2 meet on one
# key (s, t + k2), since y^k1 x^i2 has terms x^s y^(s - i2 + k1).
_LEFT_KEYS = [(0, 2), (1, 2), (3, 2), (2, 1)]
_RIGHT_KEYS = [(1, 1), (0, 0), (1, 0), (2, 1)]


def _element_on(A, rng, keys):
    polys = [random_poly(rng, A.field, max_deg=2, allow_zero=False) for _ in keys]
    return Element(A, dict(zip(keys, polys)))


def _shifted_keys(A, a, b):
    """For each k1 of a: the keys (s, t + k2) of y^k1 * b, with repeats."""
    return {
        k1: [(s, t + k2) for (i2, k2) in b.terms for (s, t) in yx_expand(k1, i2, A).terms]
        for _, k1 in a.terms
    }


@pytest.mark.parametrize(
    "A",
    [
        algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1]),  # f = h^2 + 1
        algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
        algebra(QQ, 0, [1, 0, 1], [0, 1]),  # q = 0
        algebra(F7, 4, [6], [0, 2, 1]),  # constant f
        algebra(QQ, -1, [Fraction(1, 2)], [1, 0, 1]),
    ],
    ids=repr,
)
@pytest.mark.parametrize("seed", range(3))
def test_multi_term_products_match_the_oracle(A, seed):
    rng = random.Random(f"multi-{seed}")
    a, b = _element_on(A, rng, _LEFT_KEYS), _element_on(A, rng, _RIGHT_KEYS)
    # several left terms share k1, and several right terms meet on one key
    ks = [k1 for _, k1 in a.terms]
    assert len(set(ks)) < len(ks)
    keys = _shifted_keys(A, a, b)[2]
    assert len(set(keys)) < len(keys)
    assert a * b == oracle_multiply(a, b)
    assert b * a == oracle_multiply(b, a)


def test_product_straightens_the_right_operand_once_per_k1(monkeypatch, alg_q2_h2p1_h3):
    A = alg_q2_h2p1_h3
    rng = random.Random("factored")
    a, b = _element_on(A, rng, _LEFT_KEYS[1:]), _element_on(A, rng, _RIGHT_KEYS[:3])
    keys = _shifted_keys(A, a, b)
    # y^k1 * b once per distinct k1, then one product per left term and key
    factored = sum(len(keys[k1]) for k1 in keys) + sum(len(set(keys[k1])) for _, k1 in a.terms)
    termwise = 2 * sum(len(keys[k1]) for _, k1 in a.terms)
    assert factored < termwise
    images: dict = {}
    expected = _times(A, a.terms, b.terms, images, {})
    # with the sigma memo filled, every _int_conv call is a product in _times
    calls = []
    int_conv = poly_module._int_conv
    monkeypatch.setattr(poly_module, "_int_conv", lambda x, y: calls.append(1) or int_conv(x, y))
    assert _times(A, a.terms, b.terms, images, {}) == expected
    assert 0 < len(calls) <= factored
