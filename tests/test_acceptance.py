"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Every tolerance is exact equality; the stated wall-clock
budgets are asserted where given.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from qgha import (
    AlgebraParams,
    CenterKind,
    Element,
    FieldSpec,
    NoetherianReason,
    Poly,
    apply_witness,
    automorphism_group,
    automorphism_preserves_relations,
    center_describe,
    downup_candidates,
    from_gdua,
    gk_dimension_sequence,
    GduaPresentation,
    is_central,
    is_isomorphic,
    is_noetherian,
    leading_term_product,
    noetherian_witness_check,
    parse_element_expr,
    reduce_word,
    to_gdua,
    transform_type_I,
    transform_type_II,
    transform_type_III,
)
from qgha.errors import ExprSyntaxError, WrongDegree
from qgha.serial import witness_chain_to_dict

from conftest import QQ, F7, algebra, poly_divmod, random_element, random_poly, rng_for


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


THREE_ALGEBRAS = [
    ("Q q=1 f=h^2 g=h", algebra(QQ, 1, [0, 0, 1], [0, 1])),
    ("Q q=2 f=h^2+1 g=h^3", algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1])),
    ("F7 q=3 f=h^2 g=h^2+h", algebra(F7, 3, [0, 0, 1], [0, 1, 1])),
]


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on all words of length <= 5, 3 algebras, < 10 s"):
        start = time.monotonic()
        for _, A in THREE_ALGEBRAS:
            gens = {"x": A.x(), "y": A.y(), "h": A.h()}
            for length in range(6):
                for letters in itertools.product("xyh", repeat=length):
                    word = "".join(letters)
                    fast = A.one()
                    for ch in word:
                        fast = fast * gens[ch]
                    assert reduce_word(word, A) == fast, word
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_associativity_and_deg_additivity():
    with criterion(2, "associativity and DEg additivity on 200 random triples/pairs per algebra"):
        rng = rng_for("acceptance-2")
        for _, A in THREE_ALGEBRAS:
            for _ in range(200):
                a = random_element(rng, A, max_support=3, max_exp=3, max_deg=3)
                b = random_element(rng, A, max_support=3, max_exp=3, max_deg=3)
                c = random_element(rng, A, max_support=3, max_exp=3, max_deg=3)
                assert (a * b) * c == a * (b * c)
            assert not A.q.is_zero() and A.f.degree() >= 1
            for _ in range(200):
                a = random_element(rng, A, max_support=3, max_exp=3, max_deg=3)
                b = random_element(rng, A, max_support=3, max_exp=3, max_deg=3)
                da, db = a.deg_lex(), b.deg_lex()
                assert (a * b).deg_lex() == (da[0] + db[0], da[1] + db[1])


def test_criterion_3_leading_term_formula():
    with criterion(3, "leading-term formula dominates on 100 random monomial pairs"):
        rng = rng_for("acceptance-3")
        for _, A in THREE_ALGEBRAS:
            for _ in range(100):
                m1 = (
                    rng.randint(0, 3),
                    random_poly(rng, A.field, 3, allow_zero=False),
                    rng.randint(0, 3),
                )
                m2 = (
                    rng.randint(0, 3),
                    random_poly(rng, A.field, 3, allow_zero=False),
                    rng.randint(0, 3),
                )
                i, top, k = leading_term_product(m1, m2, A)
                product = Element.monomial(A, *m1) * Element.monomial(A, *m2)
                remainder = product - Element.monomial(A, i, top, k)
                assert remainder.deg_lex() < (i, k)


def test_criterion_4_noetherian_truth_table():
    with criterion(4, "Noetherian truth table with depth-5 witness chain, < 1 s"):
        start = time.monotonic()
        yes = is_noetherian(algebra(QQ, 1, [1, 1], [0, 1]))
        assert yes.verdict and yes.reason is NoetherianReason.DEG_F_1_AND_Q_NONZERO
        no_q = is_noetherian(algebra(QQ, 0, [0, 1], [0, 1]))
        assert not no_q.verdict and no_q.reason is NoetherianReason.Q_ZERO
        square = algebra(QQ, 1, [0, 0, 1], [0, 1])
        report = is_noetherian(square)
        assert not report.verdict and report.reason is NoetherianReason.DEG_F_NOT_1
        chain = noetherian_witness_check(square, depth=5)
        printed = witness_chain_to_dict(chain)
        assert chain.beta == QQ.zero and printed["verified"] and len(printed["checks"]) == 6
        # the divisibility facts behind the chain: sigma^k(h) = 0 mod f for
        # k = 1..6 while h itself is not divisible by f
        sigma_k = Poly.h(QQ)
        for _ in range(6):
            sigma_k = sigma_k.compose(square.f)
            assert poly_divmod(sigma_k, square.f)[1].is_zero()
        assert not poly_divmod(Poly.h(QQ), square.f)[1].is_zero()
        assert all(c["sigma_powers_divisible"] and c["h_not_divisible"] for c in printed["checks"])
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_5_center():
    with criterion(5, "center: ell=2 case with central Z^2, and scalars-only case"):
        A = algebra(QQ, -1, [0, 0, 1], [0, 1, 1])
        description = center_describe(A)
        assert description.kind is CenterKind.POLYNOMIAL_IN_Z_ELL
        assert description.ell == 2
        assert description.a == Poly.h(QQ)
        x, y, h = A.generators()
        assert description.z == -(x * y) + h  # Z = -(xy - h)
        z_squared = description.z**2
        for gen in (x, y, h):
            assert z_squared * gen == gen * z_squared
        assert is_central(z_squared)
        scalars = center_describe(algebra(QQ, 2, [0, 0, 1], [0, 1]))
        assert scalars.kind is CenterKind.SCALARS_ONLY


def test_criterion_6_gk_growth():
    with criterion(6, "growth dims: C(n+3,3) for f=h, strictly larger for f=h^2, n <= 8, < 60 s"):
        start = time.monotonic()
        tame = gk_dimension_sequence(algebra(QQ, 1, [0, 1], [0, 1]), 8)
        assert list(tame.dims) == [comb(n + 3, 3) for n in range(9)]
        assert tame.dims[8] == 165
        wild = gk_dimension_sequence(algebra(QQ, 1, [0, 0, 1], [0, 1]), 8)
        assert wild.dims[2] == 12 > 10
        for n in range(2, 9):
            assert wild.dims[n] > comb(n + 3, 3)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_7_isomorphism_decider():
    with criterion(7, "50 random transform composites detected with verifying witnesses, < 30 s"):
        start = time.monotonic()
        rng = rng_for("acceptance-7")
        A = algebra(QQ, 2, [0, 1, 1], [1, 0, 0, 1])  # q=2, f=h^2+h, g=h^3+1
        nonzero = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]
        for _ in range(50):
            B = A
            for _ in range(rng.randint(1, 5)):
                kind = rng.choice("I II III".split())
                if kind == "I":
                    B = transform_type_I(
                        B, QQ.scalar(rng.choice([0, 1, -1, 2, Fraction(1, 2)]))
                    )
                elif kind == "II":
                    B = transform_type_II(B, QQ.scalar(rng.choice(nonzero)))
                else:
                    B = transform_type_III(
                        B, QQ.scalar(rng.choice(nonzero)), QQ.scalar(rng.choice(nonzero))
                    )
            witness = is_isomorphic(A, B)
            assert witness is not None
            assert apply_witness(A, witness) == B
        assert is_isomorphic(A, algebra(QQ, 3, [0, 1, 1], [1, 0, 0, 1])) is None
        assert is_isomorphic(A, algebra(QQ, 2, [0, 0, 0, 1], [1, 0, 0, 1])) is None
        assert is_isomorphic(A, algebra(QQ, 2, [0, 1, 1], [0, 0, 1])) is None
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_automorphism_groups():
    with criterion(8, "automorphism groups incl. the non-abelian char-3 example, engine-verified"):
        trivial = automorphism_group(algebra(QQ, 2, [0, 0, 1], [0, 1]))
        assert trivial.finite_part == ((QQ.one, QQ.zero),)
        assert trivial.torus_rank == 1 and trivial.abelian

        cubic = automorphism_group(algebra(QQ, 2, [0, 0, 0, 1], [0, 1]))
        assert set(cubic.finite_part) == {(QQ.one, QQ.zero), (QQ.scalar(-1), QQ.zero)}
        assert cubic.abelian

        F3 = FieldSpec(3)
        char3 = AlgebraParams(
            F3, F3.scalar(2), Poly([0, 0, 0, 1], F3), Poly([0, 2, 0, 1], F3)
        )
        assert char3.g == Poly([0, -1, 0, 1], F3)  # h^3 - h
        description = automorphism_group(char3)
        finite = set(description.finite_part)
        shift, scaling = (F3.one, F3.one), (F3.scalar(2), F3.zero)
        assert shift in finite and scaling in finite
        composed = {
            description.compose(shift, scaling),
            description.compose(scaling, shift),
        }
        # the two composites act on h as 2h+2 and 2h+1 respectively
        assert composed == {(F3.scalar(2), F3.scalar(2)), (F3.scalar(2), F3.one)}
        assert not description.abelian

        for group, A in ((trivial, algebra(QQ, 2, [0, 0, 1], [0, 1])),
                         (cubic, algebra(QQ, 2, [0, 0, 0, 1], [0, 1])),
                         (description, char3)):
            for pair in group.finite_part:
                assert automorphism_preserves_relations(A, pair)


def test_criterion_9_downup_conversions():
    with criterion(9, "down-up conversions A(2,-1,0), L(h^2,1,1,0), and WrongDegree guard"):
        candidates = downup_candidates(QQ.scalar(2), QQ.scalar(-1), QQ.zero)
        assert len(candidates) == 1
        A = candidates[0][2]
        assert A.q == QQ.one and A.f == Poly.h(QQ) and A.g == Poly.h(QQ)

        B = from_gdua(GduaPresentation(Poly([0, 0, 1], QQ), QQ.one, QQ.one, QQ.zero))
        assert B.q == QQ.one and B.f == Poly.h(QQ) and B.g == Poly([0, 0, -1], QQ)

        with pytest.raises(WrongDegree):
            to_gdua(algebra(QQ, 1, [0, 0, 1], [0, 1]))


def test_criterion_10_parser():
    with criterion(10, "parser round-trip on 100 random expressions plus error positions"):
        rng = rng_for("acceptance-10")
        targets = [algebra(QQ, 2, [0, 0, 1], [0, 1]), algebra(F7, 3, [0, 0, 1], [0, 1, 1])]
        for index in range(100):
            A = targets[index % 2]
            element = random_element(rng, A)
            assert parse_element_expr(str(element), A) == element
        A = targets[0]
        with pytest.raises(ExprSyntaxError) as double_star:
            parse_element_expr("x**2", A)
        assert double_star.value.position == 2
        with pytest.raises(ExprSyntaxError) as dangling:
            parse_element_expr("x+", A)
        assert dangling.value.position == 2
