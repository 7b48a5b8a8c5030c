"""Reduction mod p as an oracle across the two field branches.

Take q, f and g with integer coefficients.  The rewriting rules are then
integral, so the normal words x^i h^j y^k are a basis over Z_(p) and
reducing mod p is a ring map onto the F_p algebra.  Hence:
- the product over Q, reduced mod p, is the product over F_p;
- dim V^n over F_p is at most dim V^n over Q;
- a rational root whose denominator is prime to p reduces to a root mod p;
- when q, lead f and lead g are prime to p, an automorphism (u, v) over Q
  with u a unit mod p and v p-integral reduces to one over F_p.
The Q and F_p paths are separate integer code (numerators over one
denominator against residues), so each relation checks one branch
against the other.
"""

import pytest

import qgha.rewrite
from qgha import (
    AlgebraParams, Element, FieldSpec, Poly, automorphism_group, gk_dimension_sequence,
    oracle_multiply,
)
from qgha.poly import poly_roots

from conftest import QQ, algebra, random_element, random_poly, rng_for

PRIMES = (3, 5, 7, 101, 1000003)


def _reduce(poly, field):
    return Poly([c.value for c in poly.coeffs], field)


def _reduce_algebra(A, field):
    return AlgebraParams(field, A.q.value, _reduce(A.f, field), _reduce(A.g, field))


def _reduce_element(e, Ap):
    return Element(Ap, {ik: _reduce(t, Ap.field) for ik, t in e.terms.items()})


def _integer_presentations(rng, count):
    """q, f and g with small integer coefficients, deg f >= 1 over Q."""
    out = []
    while len(out) < count:
        f = random_poly(rng, QQ, max_deg=3)
        if f.degree() >= 1:
            out.append(AlgebraParams(QQ, rng.randint(-3, 3), f, random_poly(rng, QQ, max_deg=3)))
    return out


def test_products_over_q_reduce_to_the_products_over_f_p(monkeypatch):
    # the oracle over F_p merges residues, so a word whose total vanishes mod
    # p is dropped: it rewrites at most the words the oracle over Q rewrites.
    # Reducing only at the end gives the same product, so only that count shows it.
    rewritten = []

    def counting_redex(word, first=qgha.rewrite._first_redex):
        rewritten.append(word)
        return first(word)

    monkeypatch.setattr(qgha.rewrite, "_first_redex", counting_redex)
    rng = rng_for("mod-p-products")
    for A in _integer_presentations(rng, 5):
        for p in PRIMES:
            Ap = _reduce_algebra(A, FieldSpec(p))
            for _ in range(3):
                a = random_element(rng, A, max_exp=2, max_deg=2)
                b = random_element(rng, A, max_exp=2, max_deg=2)
                ap, bp = _reduce_element(a, Ap), _reduce_element(b, Ap)
                expected = ap * bp
                assert _reduce_element(a * b, Ap) == expected
                rewritten.clear()
                assert _reduce_element(oracle_multiply(a, b), Ap) == expected
                over_q = len(rewritten)
                rewritten.clear()
                assert oracle_multiply(ap, bp) == expected
                assert len(rewritten) <= over_q


def test_gk_dims_over_f_p_are_at_most_those_over_q():
    rng = rng_for("mod-p-gk")
    for A in _integer_presentations(rng, 4):
        dims = gk_dimension_sequence(A, 5).dims
        for p in PRIMES:
            dims_p = gk_dimension_sequence(_reduce_algebra(A, FieldSpec(p)), 5).dims
            assert all(dp <= d for dp, d in zip(dims_p, dims)), (A, p)
    # q = 3, f = h^3 + h, g = h: equal over F_5 and F_7, one less over F_3 at n = 4
    A = algebra(QQ, 3, [0, 1, 0, 1], [0, 1])
    assert gk_dimension_sequence(A, 4).dims == (1, 4, 12, 32, 77)
    for p, dims in ((3, (1, 4, 12, 32, 76)), (5, (1, 4, 12, 32, 77)), (7, (1, 4, 12, 32, 77))):
        assert gk_dimension_sequence(_reduce_algebra(A, FieldSpec(p)), 4).dims == dims


# the residue scan tries every residue under the search capacity bound,
# which F_1000003 exceeds
@pytest.mark.parametrize("p", PRIMES[:-1])
def test_rational_roots_reduce_to_roots_mod_p(p):
    rng = rng_for(f"mod-p-roots-{p}")
    Fp = FieldSpec(p)
    for _ in range(12):
        # (v1 h - u1)(v2 h - u2) times an integer cofactor of degree 0..2
        P = Poly([1], QQ)
        for _ in range(2):
            u, v = rng.randint(-9, 9), rng.randint(1, 9)
            P = P * Poly([-u, v], QQ)
        cofactor = random_poly(rng, QQ, max_deg=2)
        if cofactor.is_zero():
            continue
        P = P * cofactor
        roots = poly_roots(P)
        if all(c.value % p == 0 for c in P.coeffs):
            continue  # P vanishes mod p
        residues = poly_roots(_reduce(P, Fp))
        for r in roots:
            assert P.evaluate(r).is_zero()
            if r.value.denominator % p:
                assert Fp.scalar(r.value) in residues, (P, r)


# q, f and g with f(-h + v) = -f(h) + v and g(-h + v) = +-g(h), so that (-1, v)
# is an automorphism over Q besides (1, 0)
_SYMMETRIC = [
    (2, [0, 0, 0, 1], [0, 1]),  # f = h^3, g = h: v = 0
    (3, [0, 3, -6, 4], [-1, 2]),  # f = 4(h - 1/2)^3 + 1/2, g = 2(h - 1/2): v = 1
    (-1, [-1, 13, -48, 64], [1, -8, 16]),  # f = 64(h - 1/4)^3 + h, g = 16(h - 1/4)^2: v = 1/2
    (5, [0, 0, 0, 1, 0, 1], [0, 0, 1]),  # f = h^5 + h^3, g = h^2: v = 0
    (7, [0, 0, 0, 1], []),  # f = h^3, g = 0: v = 0
]


def _automorphism_presentations(rng, count):
    """The symmetric presentations, then q != 0 with an odd f of degree 3 and
    an odd or even g, and integer presentations with deg f >= 2."""
    out = [algebra(QQ, *entry) for entry in _SYMMETRIC]
    while len(out) < len(_SYMMETRIC) + count:
        q = rng.choice([-3, -2, -1, 1, 2, 3])
        f = Poly([0, rng.randint(-3, 3), 0, rng.randint(1, 3)], QQ)
        g = Poly([0] * rng.randint(0, 1) + [rng.randint(-3, 3)], QQ)
        out.append(AlgebraParams(QQ, q, f, g))
    return out + [A for A in _integer_presentations(rng, 3 * count) if A.f.degree() >= 2]


def _units_mod(p, *scalars):
    return all(s.value.numerator % p and s.value.denominator % p for s in scalars)


# nth_roots over F_p scans every residue under the search capacity bound,
# which F_1000003 exceeds
@pytest.mark.parametrize("p", PRIMES[:-1])
def test_automorphisms_over_q_reduce_to_automorphisms_over_f_p(p):
    rng = rng_for(f"mod-p-aut-{p}")
    Fp = FieldSpec(p)
    checked = 0
    for A in _automorphism_presentations(rng, 8):
        leads = (A.f.lead(),) if A.g.is_zero() else (A.f.lead(), A.g.lead())
        if not _units_mod(p, A.q, *leads):  # q = 0 included
            continue
        finite_p = set(automorphism_group(_reduce_algebra(A, Fp)).finite_part)
        for u, v in automorphism_group(A).finite_part:
            if _units_mod(p, u) and v.value.denominator % p:
                assert (Fp.scalar(u.value), Fp.scalar(v.value)) in finite_p, (A, p, u, v)
                checked += 1
    assert checked >= 10


def test_automorphism_u_minus_one_reduces_to_p_minus_one():
    A = algebra(QQ, 2, [0, 0, 0, 1], [0, 1])
    assert [tuple(map(str, pair)) for pair in automorphism_group(A).finite_part] == [
        ("-1", "0"), ("1", "0"),
    ]
    A7 = _reduce_algebra(A, FieldSpec(7))
    assert [tuple(map(str, pair)) for pair in automorphism_group(A7).finite_part] == [
        ("1", "0"), ("6", "0"),
    ]
