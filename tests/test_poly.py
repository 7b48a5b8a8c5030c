import random
import time
from fractions import Fraction
from math import lcm, log2

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qgha import NEG_INF, FieldSpec, Poly, affine_conjugate, poly_roots, sigma_pow
from qgha import poly as poly_module
from qgha.errors import (
    CapacityExceeded,
    DivisionByZero,
    FieldMismatch,
    ZeroPolynomial,
    ZeroScale,
)

from conftest import poly_divmod

QQ = FieldSpec()
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def P(*coeffs, field=QQ):
    return Poly(coeffs, field)


H = Poly.h(QQ)


def test_ring_basics():
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)  # (h+1)(h-1) = h^2 - 1
    assert Poly.zero(QQ).degree() == NEG_INF
    assert NEG_INF < 0
    assert P(0, 1, 1).evaluate(QQ.scalar(3)) == QQ.scalar(12)
    assert P(1, 2).coeff(5) == QQ.zero
    with pytest.raises(FieldMismatch):
        P(1) + Poly([1], F5)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_product_by_one(field):
    one = Poly.one(field)
    for coeffs in ([Fraction(3, 4), 0, -2], [5], [0, 1], [Fraction(-1, 6)]):
        p = Poly(coeffs, field)
        for product in (p * one, one * p):
            assert product == p
            assert (product._nums, product._den) == (p._nums, p._den)
    assert Poly.zero(field) * one == Poly.zero(field) == one * Poly.zero(field)
    assert one * one == one
    with pytest.raises(FieldMismatch):
        Poly.one(F7) * Poly.h(QQ)
    with pytest.raises(FieldMismatch):
        Poly.h(QQ) * Poly.one(F7)


def test_trailing_zeros_trimmed():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero()
    assert (P(0, 1) - P(0, 1)).degree() == NEG_INF


def test_degree_additive_under_product():
    assert (P(1, 1) * P(2, 0, 1)).degree() == 3
    assert (P(0, 1) * Poly.zero(QQ)).degree() == NEG_INF


def test_compose():
    assert P(0, 0, 1).compose(P(1, 1)) == P(1, 2, 1)  # h^2 o (h+1)
    r = P(3, -1, 2)
    assert Poly.h(QQ).compose(r) == r  # h is the identity for composition
    assert P(0, 1, 1).compose(P(0, 0, 1)) == P(0, 0, 1, 0, 1)  # h^4 + h^2
    # independent check: evaluation commutes with composition
    p, q = P(1, -2, 1), P(2, 3)
    for t in (-2, 0, 5):
        t = QQ.scalar(t)
        assert p.compose(q).evaluate(t) == p.evaluate(q.evaluate(t))


def test_sigma_pow():
    f = P(0, 0, 1)  # h^2
    assert sigma_pow(f, 2, H) == P(0, 0, 0, 0, 1)  # h^4
    assert sigma_pow(f, 0, P(1, 2, 3)) == P(1, 2, 3)
    # f = h^2 + 1 twice: (h^2+1)^2 + 1 = h^4 + 2h^2 + 2
    assert sigma_pow(P(1, 0, 1), 2, H) == P(2, 0, 2, 0, 1)


def test_sigma_pow_composes_additively():
    f = P(1, 2, 1)
    p = P(0, 1, 1)
    for j in range(3):
        for k in range(3):
            assert sigma_pow(f, j, sigma_pow(f, k, p)) == sigma_pow(f, j + k, p)


def test_affine_conjugate():
    f = P(0, 0, 1)  # h^2
    assert affine_conjugate(f, QQ.one, QQ.zero) == f
    # psi(h) = h - 1: (h+1)^2 - 1 = h^2 + 2h
    assert affine_conjugate(f, QQ.one, QQ.scalar(-1)) == P(0, 2, 1)
    assert affine_conjugate(H, QQ.scalar(5), QQ.scalar(-3)) == H
    with pytest.raises(ZeroScale):
        affine_conjugate(f, QQ.zero, QQ.one)


def test_affine_conjugate_preserves_degree_and_fixed_points():
    f = P(2, -1, 0, 1)
    u, v = QQ.scalar(Fraction(3, 2)), QQ.scalar(-2)
    conj = affine_conjugate(f, u, v)
    assert conj.degree() == f.degree()
    # fixed points move by psi: f(t) = t implies conj(u*t+v) = u*t+v
    for t in poly_roots(f - H):
        image = u * t + v
        assert conj.evaluate(image) == image


def test_affine_conjugate_round_trip():
    f = P(1, 2, 0, 1)
    u, v = QQ.scalar(Fraction(2, 3)), QQ.scalar(Fraction(-1, 2))
    back_u = u.inv()
    back_v = -(v / u)
    assert affine_conjugate(affine_conjugate(f, u, v), back_u, back_v) == f


def test_divmod():
    q, r = poly_divmod(P(0, 0, 0, 1), P(0, 0, 1))
    assert (q, r) == (H, Poly.zero(QQ))
    q, r = poly_divmod(P(1, 0, 1), H)
    assert (q, r) == (H, Poly.one(QQ))
    # h^4 = (h^2 + h + 1)(h^2 - h) + h
    q, r = poly_divmod(P(0, 0, 0, 0, 1), P(0, -1, 1))
    assert q == P(1, 1, 1)
    assert r == P(0, 1)
    with pytest.raises(DivisionByZero):
        poly_divmod(H, Poly.zero(QQ))


def test_poly_roots_rationals():
    assert poly_roots(P(0, -1, 1)) == {QQ.zero, QQ.one}
    assert poly_roots(P(1, 0, 1)) == set()
    # 6h^2 - 5h + 1 = (2h - 1)(3h - 1)
    assert poly_roots(P(1, -5, 6)) == {
        QQ.scalar(Fraction(1, 2)),
        QQ.scalar(Fraction(1, 3)),
    }
    with pytest.raises(ZeroPolynomial):
        poly_roots(Poly.zero(QQ))


def test_poly_roots_f5():
    p = Poly([1, 0, 1], F5)  # h^2 + 1
    # independent oracle: exhaustive evaluation
    expected = {r for r in range(5) if (r * r + 1) % 5 == 0}
    assert expected == {2, 3}
    assert poly_roots(p) == {F5.scalar(r) for r in expected}


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_pow_is_square_and_multiply(field, monkeypatch):
    base = Poly([Fraction(1, 2), -3, 1] if field.is_rationals else [3, 6, 1], field)
    want = Poly.one(field)
    products = []
    mul = Poly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    for n in range(41):
        with monkeypatch.context() as patch:
            patch.setattr(Poly, "__mul__", counting)
            products.clear()
            got = base**n
        assert got == want
        assert len(products) <= (2 * log2(n) + 2 if n else 0)
        want = want * base
    assert Poly.zero(field) ** 0 == Poly.one(field)
    assert Poly.zero(field) ** 5 == Poly.zero(field)


def test_degree_capacity_guard(set_capacity):
    set_capacity(100)
    big = Poly([0] * 60 + [1], QQ)
    with pytest.raises(CapacityExceeded):
        big * big
    with pytest.raises(CapacityExceeded):
        big.compose(big)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_degree_guard_at_the_exact_bound(field, set_capacity):
    # the guard reads the degree off the operands' lengths: deg a + deg b
    set_capacity(100)
    a = Poly([3] * 61, field)
    for deg_b in (39, 40):
        assert (a * Poly([2] * (deg_b + 1), field)).degree() == 60 + deg_b
        assert (Poly([2] * (deg_b + 1), field) * a).degree() == 60 + deg_b
    with pytest.raises(CapacityExceeded):
        a * Poly([2] * 42, field)
    with pytest.raises(CapacityExceeded):
        Poly([5, 0, 1], field) * Poly([1] * 100, field)
    # no product is formed by a zero or a one, so they pass any degree
    assert (Poly.zero(field) * Poly([1] * 500, field)).is_zero()
    assert Poly.one(field) * Poly([1] * 500, field) == Poly([1] * 500, field)
    # compose's guard is deg outer * deg inner
    assert a.compose(Poly([1, 2], field)).degree() == 60
    assert Poly([1] * 11, field).compose(Poly([0] * 10 + [1], field)).degree() == 100
    with pytest.raises(CapacityExceeded):
        Poly([1] * 102, field).compose(Poly([1, 2], field))
    with pytest.raises(CapacityExceeded):
        Poly([1] * 11, field).compose(Poly([0] * 10 + [1, 1], field))


def test_equal_fields_of_distinct_objects_mix():
    # the operators compare fields by identity first, then by equality
    one, other = FieldSpec(7), FieldSpec(7)
    assert one is not other
    for xs, ys in (([3, 6, 1], [4, 1]), ([5], [2, 0, 6]), ([], [1, 1]), ([1], [6, 6])):
        a, b = Poly(xs, one), Poly(ys, one)
        b_other = Poly(ys, other)
        for got, want in (
            (a + b_other, a + b),
            (b_other + a, b + a),
            (a - b_other, a - b),
            (a * b_other, a * b),
            (b_other * a, b * a),
            (a.compose(b_other), a.compose(b)),
        ):
            assert (got._nums, got._den) == (want._nums, want._den)
            assert got.field == one
            _assert_canonical(got)


@pytest.mark.parametrize(
    "first, second",
    [(QQ, F7), (F5, F7), (F7, FieldSpec(2**61 - 1))],
    ids=["Q-F7", "F5-F7", "F7-Fbig"],
)
def test_unequal_fields_raise_field_mismatch(first, second):
    for xs, ys in (([1, 2], [3, 1]), ([1], [0, 1]), ([2, 1], [1]), ([], [1]), ([1, 1], [])):
        a, b = Poly(xs, first), Poly(ys, second)
        for op in (
            lambda: a + b,
            lambda: b + a,
            lambda: a - b,
            lambda: a * b,
            lambda: b * a,
            lambda: a.compose(b),
            lambda: b.compose(a),
        ):
            with pytest.raises(FieldMismatch):
                op()


def test_str_round_trip_forms():
    assert str(P(1, -2, 1)) == "h^2 - 2*h + 1"
    assert str(P(-1, 0, -1)) == "-1*h^2 - 1"
    assert str(Poly.zero(QQ)) == "0"
    assert str(Poly([3, 1], F5)) == "h + 3"
    assert str(P(Fraction(-1, 2), 0, 1)) == "h^2 - 1/2"  # a negative fraction later
    assert str(P(-1, 1)) == "h - 1"  # a -1 constant in a later term
    assert str(P(0, Fraction(-3, 2), 0, 2)) == "2*h^3 - 3/2*h"
    assert str(P(0, -1)) == "-1*h"
    assert str(Poly([6, 6], F7)) == "6*h + 6"  # F_7 residues have no sign


small_polys = st.lists(st.integers(-4, 4), min_size=0, max_size=4).map(
    lambda cs: Poly(cs, QQ)
)


@given(p=small_polys, q=small_polys, r=small_polys)
@settings(max_examples=60)
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


@given(p=small_polys, d=small_polys)
@settings(max_examples=80)
def test_divmod_round_trip(p, d):
    if d.is_zero():
        return
    q, r = poly_divmod(p, d)
    assert q * d + r == p
    assert r.degree() < d.degree()


@given(p=small_polys)
def test_roots_evaluate_to_zero(p):
    if p.is_zero():
        return
    for root in poly_roots(p):
        assert _scalar_horner(p, root).is_zero()


@given(cs=st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_f7_roots_match_brute_force(cs):
    p = Poly(cs, F7)
    if p.is_zero():
        return
    brute = {s for s in F7.elements() if _scalar_horner(p, s).is_zero()}
    assert poly_roots(p) == brute


# -- differential tests against sympy.Poly over QQ and GF(p) ---------------

F2 = FieldSpec(2)
F17 = FieldSpec(17)
FIELDS = [QQ, F2, F7, F17]


def to_sympy(p: Poly):
    sympy = pytest.importorskip("sympy")
    domain = sympy.QQ if p.field.is_rationals else sympy.GF(p.field.p)
    coeffs = [sympy.Rational(str(c)) for c in reversed(p.coeffs)]
    return sympy.Poly.from_list(coeffs, sympy.Symbol("h"), domain=domain)


def from_sympy(sp, field: FieldSpec) -> Poly:
    return Poly([Fraction(str(c)) for c in reversed(sp.all_coeffs())], field)


def _coefficient(field: FieldSpec):
    if field.is_rationals:
        return st.fractions(min_value=-6, max_value=6, max_denominator=6)
    # unreduced representatives exercise the residue normalisation
    return st.integers(-2 * field.p, 2 * field.p)


def _poly(field: FieldSpec, max_len: int = 6):
    return st.lists(_coefficient(field), max_size=max_len).map(
        lambda cs: Poly(cs, field)
    )


@st.composite
def field_and_polys(draw, count: int, max_len: int = 6):
    field = draw(st.sampled_from(FIELDS))
    return (field, *(draw(_poly(field, max_len)) for _ in range(count)))


@given(args=field_and_polys(2))
@settings(max_examples=80, deadline=None)
def test_ring_ops_match_sympy(args):
    field, a, b = args
    sa, sb = to_sympy(a), to_sympy(b)
    assert a + b == from_sympy(sa + sb, field)
    assert a - b == from_sympy(sa - sb, field)
    assert -a == from_sympy(-sa, field)
    assert a * b == from_sympy(sa * sb, field)


@given(args=field_and_polys(1), k=st.integers(-40, 40), d=st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_scalar_mul_matches_sympy(args, k, d):
    field, a = args
    if field.p is not None and d % field.p == 0:
        d = 1
    s = field.scalar(Fraction(k, d))
    expected = from_sympy(to_sympy(a) * to_sympy(Poly.const(s)), field)
    assert a * s == expected
    assert s * a == expected
    assert a * k == from_sympy(to_sympy(a) * k, field)
    assert k * a == a * k


@given(args=field_and_polys(2, max_len=5))
@settings(max_examples=80, deadline=None)
def test_compose_matches_sympy(args):
    field, a, b = args
    assert a.compose(b) == from_sympy(to_sympy(a).compose(to_sympy(b)), field)


@given(args=field_and_polys(2, max_len=4), k=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_sigma_pow_matches_sympy(args, k):
    field, f, p = args
    expected = to_sympy(p)
    for _ in range(k):
        expected = expected.compose(to_sympy(f))
    assert sigma_pow(f, k, p) == from_sympy(expected, field)


@given(args=field_and_polys(2))
@settings(max_examples=80, deadline=None)
def test_divmod_matches_sympy(args):
    field, a, b = args
    if b.is_zero():
        return
    q, r = to_sympy(a).div(to_sympy(b))
    assert poly_divmod(a, b) == (from_sympy(q, field), from_sympy(r, field))


def _same_poly(p: Poly, q: Poly) -> None:
    assert p == q
    assert hash(p) == hash(q)
    assert p.coeffs == q.coeffs
    assert [type(c.value) for c in p.coeffs] == [type(c.value) for c in q.coeffs]


@given(args=field_and_polys(3))
@settings(max_examples=80, deadline=None)
def test_canonical_form_independent_of_construction(args):
    field, a, b, c = args
    expected = to_sympy(a) * to_sympy(b) + to_sympy(c)
    built = Poly([Fraction(str(v)) for v in reversed(expected.all_coeffs())], field)
    _same_poly(a * b + c, built)
    _same_poly((a * b + c) - c + c, built)


@given(
    nums=st.lists(st.integers(-30, 30), max_size=6),
    k=st.integers(1, 12),
    d=st.integers(1, 12),
)
@settings(max_examples=80, deadline=None)
def test_canonical_form_cancels_common_factor(nums, k, d):
    # numerators and denominator share the factor k in every construction
    direct = Poly([Fraction(n, d) for n in nums], QQ)
    _same_poly(Poly([n * k for n in nums], QQ) * QQ.scalar(Fraction(1, k * d)), direct)
    _same_poly(Poly([Fraction(n * k, k * d) for n in nums], QQ), direct)
    halves = Poly([Fraction(n, 2 * d) for n in nums], QQ)
    _same_poly(halves + halves, direct)
    for c in direct.coeffs:
        assert isinstance(c.value, Fraction)


# -- the packed integer kernel against schoolbook references ----------------

# lengths on either side of every cutoff of the kernel, and short outers
# of 11..13 coefficients
_EDGE_LENGTHS = sorted(
    {
        n + delta
        for n in (
            12,
            poly_module._LEAF_MAX,
            2 * poly_module._LEAF_MAX,
            4 * poly_module._LEAF_MAX,
            2 * poly_module._PACK_MIN,
        )
        for delta in (-1, 0, 1)
    }
)
_LENGTHS = st.one_of(st.integers(1, 300), st.sampled_from(_EDGE_LENGTHS))


def _reference_conv(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def _reference_compose(outer: Poly, inner: Poly) -> Poly:
    """outer(inner) by schoolbook Horner on integers.

    With outer = sum c_i h^i (c_i = n_i / D) and inner = m / E over integers,
    outer(inner) = (sum n_i m^i E^(d-i)) / (D E^d); residues mod p over F_p.
    """
    field = outer.field
    c = [v.value for v in outer.coeffs]
    D = lcm(*(v.denominator for v in c))
    E = lcm(*(v.value.denominator for v in inner.coeffs))
    m = [int(v.value * E) for v in inner.coeffs]
    d = len(c) - 1
    acc: list = []
    for i in range(d, -1, -1):
        acc = _reference_conv(acc, m) or [0]
        acc[0] += int(c[i] * D) * E ** (d - i)
        if field.p is not None:
            acc = [v % field.p for v in acc]
    return Poly([Fraction(v, D * E ** max(d, 0)) for v in acc], field)


@st.composite
def _int_list(draw, length=_LENGTHS):
    n = draw(length)
    bits = draw(st.sampled_from([1, 4, 31, 64, 200]))
    signs = draw(st.sampled_from(["mixed", "nonnegative", "negative"]))
    density = draw(st.sampled_from([1.0, 0.3, 0.02]))
    rng = draw(st.randoms(use_true_random=False))
    out = []
    for _ in range(n):
        v = rng.randint(0, 2**bits) if rng.random() < density else 0
        out.append(-v if signs == "negative" or (signs == "mixed" and rng.random() < 0.5) else v)
    return out


# No shrink phase, as for the lane-width test below: shrinking a kernel
# fault on lists this long ran for minutes instead of failing.
@given(a=_int_list(), b=_int_list())
@settings(max_examples=80, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_int_conv_matches_schoolbook(a, b):
    assert poly_module._int_conv(a, b) == _reference_conv(a, b)


F257 = FieldSpec(257)
F_BIG = FieldSpec(2**61 - 1)


@st.composite
def _compose_args(draw):
    field = draw(st.sampled_from(FIELDS + [F257, F_BIG]))
    nums = draw(_int_list())
    if field.is_rationals:
        den = draw(st.integers(1, 2**20))
        outer = Poly([Fraction(v, den) for v in nums], field)
        # wide numerators send long outers back to Horner
        inner_coeffs = st.one_of(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            st.integers(-(2**20), 2**20),
        )
    else:
        # unreduced representatives, up to 2^200
        outer = Poly(nums, field)
        inner_coeffs = st.integers(-(2**200), 2**200)
    inner = Poly(draw(st.lists(inner_coeffs, min_size=1, max_size=4)), field)
    return outer, inner


@given(args=_compose_args())
@settings(max_examples=80, deadline=None)
def test_compose_matches_horner_reference(args):
    outer, inner = args
    got = outer.compose(inner)
    want = _reference_compose(outer, inner)
    assert (got._nums, got._den) == (want._nums, want._den)
    _assert_canonical(got)


def _in_h_to_the(m, step) -> list:
    """Coefficients of M(h^step), M given by its coefficients m."""
    coeffs = [0] * ((len(m) - 1) * step + 1)
    coeffs[::step] = m
    return coeffs


# compose takes out the gcd of the inner's exponents, so M(h^d) composes as
# M and c h^d as a monomial; outers of 40 and 100 coefficients take the split
@pytest.mark.parametrize("length", [1, 5, 40, 100])
@pytest.mark.parametrize("step", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "field, m",
    [
        (QQ, [1, 1]),  # f = h^2 + 1 at step 2
        (QQ, [0, 1]),
        (QQ, [0, Fraction(-3, 4)]),
        (QQ, [Fraction(2, 3), 0, Fraction(-1, 5)]),  # gcd 2 * step
        (QQ, [2**15, 3, 1]),
        (F5, [0, 1]),  # h^5, the Frobenius, at step 5
        (F5, [3, 4, 2]),
        (F257, [0, 200]),
        (F257, [256, 3, 1]),
        (F_BIG, [0, 2**60 + 5]),
        (F_BIG, [2**60 + 5, 3, 2**59]),
        # c h with c != 1 or a denominator still scales, then normalises
        (QQ, [0, -1]),
        (QQ, [0, Fraction(3, 2)]),
        (QQ, [0, Fraction(1, 2)]),
        (F7, [0, 2]),
    ],
    ids=lambda v: str(v) if isinstance(v, FieldSpec) else None,
)
def test_compose_with_an_inner_in_h_to_the_d(field, m, step, length):
    rng = random.Random(f"stepped-{length}")
    nums = [rng.randint(-300, 300) for _ in range(length - 1)] + [1]
    outer = Poly([Fraction(v, 7) for v in nums] if field.is_rationals else nums, field)
    inner = Poly(_in_h_to_the(m, step), field)
    want = _reference_compose(outer, inner)
    got = outer.compose(inner)
    assert (got._nums, got._den) == (want._nums, want._den)
    _assert_canonical(got)


def _assert_canonical(r: Poly) -> None:
    """r's integers are what `Poly._make` makes of them: compose builds its
    result without a second `_normal`."""
    again = Poly._make(list(r._nums), r._den, r.field)
    assert (again._nums, again._den) == (r._nums, r._den)


# f = h^s substitutes by re-indexing: no arithmetic and no `_normal`
@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("field", [QQ, F7, F_BIG], ids=str)
def test_compose_by_h_to_the_s_is_a_re_index(field, step, monkeypatch):
    rng = random.Random(f"re-index-{field}-{step}")
    outers = [Poly([], field), Poly([3], field)]
    for length in (2, 5, 40, 100):
        nums = [rng.randint(-(2**70), 2**70) for _ in range(length - 1)] + [1]
        outers.append(Poly([Fraction(v, 7) for v in nums] if field.is_rationals else nums, field))
    inner = Poly([0] * step + [1], field)

    def normal(*args):
        raise AssertionError("_normal on a re-index")

    with monkeypatch.context() as patch:
        patch.setattr(poly_module, "_normal", normal)
        got = [outer.compose(inner) for outer in outers]
    for outer, r in zip(outers, got):
        want = _reference_compose(outer, inner)
        assert (r._nums, r._den) == (want._nums, want._den)
        _assert_canonical(r)


def test_compose_runs_the_kernels_on_the_reduced_inner(monkeypatch):
    seen = []
    for name in ("_compose_horner", "_compose_split"):
        kernel = getattr(poly_module, name)

        def spy(nums, m, *rest, kernel=kernel, name=name):
            seen.append((name, len(m)))
            return kernel(nums, m, *rest)

        monkeypatch.setattr(poly_module, name, spy)
    # f = h^2 + 1 runs both kernels on the linear inner h + 1: list Horner
    # for 400-bit coefficients, the split for small ones past one leaf of
    # _LEAF_MAX_LINEAR (256) coefficients
    outers = [Poly([2**400 + i for i in range(5)], QQ), Poly(range(1, 301), QQ)]
    for outer in outers:
        outer.compose(P(1, 0, 1))
    assert sorted(set(seen)) == [("_compose_horner", 2), ("_compose_split", 2)]
    # f = h^2 and f = 3 h^4 need no kernel
    seen.clear()
    for outer in outers:
        outer.compose(P(0, 0, 1))
        outer.compose(P(0, 0, 0, 0, 3))
    assert seen == []


@pytest.mark.parametrize("n, bits", [(200, 8), (200, 100), (40, 4), (300, 200)])
def test_int_conv_at_the_lane_bound(n, bits):
    # equal extreme values make the middle coefficient n * max|a| * max|b|
    top = 2**bits - 1
    for a, b in (([top] * n, [top] * n), ([-top] * n, [top] * n)):
        assert poly_module._int_conv(a, b) == _reference_conv(a, b)


# scalars: zero, signs, 200-bit magnitudes; over F_p they are residues
_SCALARS_Q = [0, 1, -1, 7, -12, 2**200 + 3, -(2**200) + 5]
_SCALARS_FBIG = [0, 1, 2, 2**61 - 2, 2**60 + 7]


@pytest.mark.parametrize("field", [QQ, F7, F_BIG], ids=str)
def test_int_conv_by_a_one_coefficient_operand(field):
    p = field.p
    scalars = _SCALARS_Q if p is None else _SCALARS_FBIG if p > 7 else range(7)
    rng = random.Random(f"one-coefficient-{field}")
    for length in (1, 2, 3, 8, 40, 300):
        for bits in (3, 64, 200):
            others = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
            if p is not None:
                others = [v % p for v in others]
            for s in scalars:
                for a, b in (([s], others), (others, [s])):
                    assert poly_module._int_conv(a, b) == _reference_conv(a, b)


@pytest.mark.parametrize("field", [QQ, F7, F_BIG], ids=str)
def test_product_by_a_one_coefficient_operand(field):
    p = field.p
    if p is None:
        scalars = [Fraction(s, d) for s in _SCALARS_Q for d in (1, 6)]
    else:
        scalars = _SCALARS_FBIG if p > 7 else range(7)
    rng = random.Random(f"scalar-product-{field}")
    for length in (2, 3, 40):
        others = [
            Fraction(rng.randint(-(2**70), 2**70), rng.choice([1, 2, 3, 12])) for _ in range(length)
        ]
        if p is not None:
            others = [field.scalar(v).value for v in others]
        other = Poly(others, field)
        for s in scalars:
            scalar = Poly([s], field)
            want = Poly([field.scalar(s).value * c for c in others], field)
            for got in (scalar * other, other * scalar):
                assert (got._nums, got._den) == (want._nums, want._den)
                _assert_canonical(got)


def _sum_reference(a: Poly, b: Poly) -> Poly:
    """a + b coefficient by coefficient, on Scalars."""
    n = max(len(a._nums), len(b._nums))
    return Poly([a.coeff(i) + b.coeff(i) for i in range(n)], a.field)


_SUMS = {
    # equal denominators: a gcd to take out, a top that cancels, all cancelling
    "Q-equal-den": [
        ([Fraction(1, 6), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 6)]),
        ([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 3), Fraction(-2, 3)]),
        ([Fraction(1, 5), 0, Fraction(-4, 5)], [Fraction(-1, 5), 0, Fraction(4, 5)]),
        ([2, -3, 5], [-2, 3, -5]),
        ([2**200, 1, 7], [-(2**200), 0, -7]),
        ([1, 2], [3, 4, 5]),
    ],
    # unequal denominators: an lcm, tops that cancel (a sum that cancels
    # completely has b = -a, so equal denominators)
    "Q-unequal-den": [
        ([Fraction(1, 3), 0, Fraction(1, 2)], [Fraction(1, 5), 0, Fraction(-1, 2)]),
        ([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 3), Fraction(-1, 4)]),
        ([Fraction(3, 2), 1], [Fraction(1, 3), 0, Fraction(5, 4)]),
        ([Fraction(-(2**200), 3), 5], [Fraction(2**200, 3), Fraction(-9, 2)]),
    ],
    "F7": [([5, 6], [3, 1]), ([3, 4, 2], [4, 3, 5]), ([6, 6, 6], [1]), ([1], [0, 6]), ([], [2, 3])],
    "Fbig": [
        ([2**61 - 2, 3], [5, 2**61 - 4]),
        ([2**60, 2**61 - 2], [2**60, 1]),
        ([7], [2**61 - 8]),
    ],
}


@pytest.mark.parametrize("case", sorted(_SUMS))
def test_sum_with_equal_and_unequal_denominators(case):
    field = {"F7": F7, "Fbig": F_BIG}.get(case, QQ)
    for xs, ys in _SUMS[case]:
        a, b = Poly(xs, field), Poly(ys, field)
        if case == "Q-equal-den":
            assert a._den == b._den
        elif case == "Q-unequal-den":
            assert a._den != b._den
        want = _sum_reference(a, b)
        for got in (a + b, b + a, a - (-b)):
            assert (got._nums, got._den) == (want._nums, want._den)
            _assert_canonical(got)
    # a sum that cancels completely is the canonical zero
    for xs, ys in _SUMS[case]:
        a = Poly(xs, field)
        for got in (a + (-a), a - a):
            assert (got._nums, got._den) == ((), 1)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
@pytest.mark.parametrize("gap", [129, 200, 257, 300])
def test_compose_with_a_zero_block(field, gap):
    # after the first split of 4 + h^gap, the lower block's upper halves are zero
    outer = Poly([4] + [0] * gap + [1], field)
    for inner in (Poly([0, 0, 1], field), Poly([Fraction(1, 2), 3, 1], field)):
        want = _reference_compose(outer, inner)
        got = outer.compose(inner)
        assert (got._nums, got._den) == (want._nums, want._den)


# 2^j + 1 coefficients leave a one-coefficient block after the splits,
# which must not pack the inner numerators into its (narrow) lanes
@pytest.mark.parametrize("length", [65, 129, 193, 257])
@pytest.mark.parametrize(
    "field, inner",
    [
        (QQ, [1000, 0, 1]),
        (QQ, [Fraction(300, 7), -5, 1]),
        (F257, [256, 3, 1]),
        (FieldSpec(65537), [1000, 0, 1]),
        (F_BIG, [2**60 + 5, 3, 2**59]),
    ],
    ids=lambda v: str(v) if isinstance(v, FieldSpec) else "",
)
def test_compose_with_wide_inner_numerators(field, inner, length):
    rng = random.Random(f"wide-{length}")
    outer = Poly([rng.randint(-300, 300) for _ in range(length - 1)] + [1], field)
    inner = Poly(inner, field)
    want = _reference_compose(outer, inner)
    got = outer.compose(inner)
    assert (got._nums, got._den) == (want._nums, want._den)
    # the split kernel itself, whichever path compose picked above
    m, e, d = list(inner._nums), inner._den, length - 1
    for leaf in (1, 5, poly_module._LEAF_MAX):
        acc = poly_module._compose_split(list(outer._nums), m, e, field.p, [m], leaf)
        got = Poly._make(acc, outer._den * e**d, field)
        assert (got._nums, got._den) == (want._nums, want._den)


# Which path a long compose takes; the wrong one is correct but slow
# (Horner over F_17 took ~50x the split's time; over Q, list Horner ran
# 12-30x faster than the split for inners of degree 2 and 3 on coefficients
# of 5000-20000 bits).  Linear inners over Q are a close call: sigma^12(h)
# for f = h^2 + 1, degree 4096, took 1.7 s when every compose split against
# 2.1 s on the path picked here.
@pytest.mark.parametrize(
    "field, inner, length, bits, split",
    [
        (QQ, [1, 0, 1], 11, 2, True),  # short outer: one packed block
        (QQ, [1, 0, 1], 250, 60, True),  # criterion-2 product sizes
        (QQ, [0, 0, 1], 4097, 2, True),  # no coefficient growth
        (QQ, [1, 0, 1], 4097, 2, False),  # ~8200-bit result coefficients
        (QQ, [1, 0, 1], 2049, 2400, False),  # sigma^11(h) for f = h^2 + 1
        (QQ, [2**15, 0, 1], 256, 2, False),
        (F17, [5, 3, 11], 4097, 4, True),
        (F_BIG, [2**60 + 5, 3, 2**59], 4097, 61, True),
        # linear inners, as compose leaves f = h^2 + c and f = h^2
        (QQ, [1, 1], 250, 60, True),
        (QQ, [1, 1], 3073, 1800, False),  # sigma^10(h^3) o (h^2 + 1)
        (QQ, [0, 1], 4097, 2, True),
        (QQ, [2**15, 1], 24, 2, True),
        (QQ, [2**15, 1], 256, 2, False),
    ],
)
def test_long_compose_path(field, inner, length, bits, split):
    nums = [2**bits - 1] * (length - 1) + [1]
    leaf = poly_module._split_leaf(nums, inner, 1, field.p)
    assert bool(leaf) == split
    assert leaf <= _leaf_cap(field, inner)


def _leaf_cap(field, m) -> int:
    """The longest leaf `_split_leaf` may pick: longer for a linear inner
    over Q, which runs shift-and-add Horner on unreduced leaves."""
    if field.is_rationals and len(m) == 2:
        return poly_module._LEAF_MAX_LINEAR
    return poly_module._LEAF_MAX


@pytest.mark.parametrize("field", [F2, F7, F17, F257, F_BIG], ids=str)
def test_split_leaf_packs_every_nonzero_compose_over_fp(field, monkeypatch):
    top = field.p - 1
    inners = [[1], [top], [0, top], [1, 1], [top, top], [top, 0, top], [1, top, 1, top]]
    for length in range(1, 14):
        for nums in ([1] * length, [top] * length, [0] * (length - 1) + [1]):
            for m in inners:
                assert 1 <= poly_module._split_leaf(nums, m, 1, field.p) <= poly_module._LEAF_MAX

    def horner(*args):
        raise AssertionError("list Horner over F_p")

    # and compose never reaches list Horner, through any inner it reduces
    monkeypatch.setattr(poly_module, "_compose_horner", horner)
    rng = random.Random(f"no-horner-{field}")
    for length in range(1, 14):
        outer = Poly([rng.randrange(field.p) for _ in range(length - 1)] + [top], field)
        for m in inners + [[3, 0, 1], [top, 0, 0, 1]]:
            inner = Poly(m, field)
            assert outer.compose(inner) == _reference_compose(outer, inner)


@pytest.mark.parametrize("m", [[1], [1, 1], [0, 0, 1], [5, -3, 2]])
def test_split_leaf_over_q_runs_list_horner_only_past_the_bound(m):
    growth = sum(map(abs, m)).bit_length()
    for length in range(1, 40):
        for top in range(1, 400, 7):
            nums = [2**top - 1] + [1] * (length - 1)
            bits = top + (length - 1) * growth
            leaf = poly_module._split_leaf(nums, m, 1, None)
            assert bool(leaf) == (bits * bits <= poly_module._SPLIT_BITS**2 * length)
            assert leaf <= _leaf_cap(QQ, m)


@pytest.mark.parametrize("field", [QQ, F7, F_BIG], ids=str)
@pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 11, 12, 13])
def test_short_and_degenerate_composes(field, length):
    # zero, constant and short outers and inners, small and long coefficients
    rng = random.Random(f"short-{field}-{length}")

    def coeffs(n, bits):
        vals = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
        return [Fraction(v, rng.randint(1, 30)) for v in vals] if field.is_rationals else vals

    for bits in (2, 64, 300):
        outer = Poly(coeffs(length, bits), field)
        short = [coeffs(n, bits) for n in (1, 2, 3, 4)]
        for m in ([], [0], [5], [0, 1], [1, 1], [0, 0, 3], *short):
            inner = Poly(m, field)
            want = _reference_compose(outer, inner)
            got = outer.compose(inner)
            assert (got._nums, got._den) == (want._nums, want._den)
            _assert_canonical(got)
            if inner.degree() < 1:
                assert outer.evaluate(inner.coeff(0)) == want.coeff(0)


# Taylor shifts: an inner c1 h + c0 runs shift-and-add Horner on packed
# leaves, as long as `_split_leaf` makes them for the field and the inner
@pytest.mark.parametrize("field", [QQ, F2, F7, F_BIG], ids=str)
def test_linear_inner_sweep(field):
    rng = random.Random(f"linear-sweep-{field}")
    if field.is_rationals:
        c0s = [1, -1, 10**40, Fraction(-1, 3), Fraction(10**40, 7)]
        c1s = [1, -1, 3, Fraction(1, 2), Fraction(-5, 6)]
    else:
        c0s = [1, -1, field.p - 1, 10**40]
        c1s = [1, field.p - 1, rng.randrange(1, field.p)]
    for c0 in c0s:
        inner = Poly([c0, rng.choice(c1s)], field)
        leaf = poly_module._split_leaf([1], list(inner._nums), inner._den, field.p)
        lengths = {1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 300, rng.randint(3, 300)}
        for length in sorted(n for n in lengths if 1 <= n <= 300):
            # 3000-bit outers only where the reference stays quick
            bits = rng.choice([1, 64, 300] + ([3000] if length <= 70 else []))
            nums = [rng.randint(-(2**bits), 2**bits) for _ in range(length - 1)] + [2**bits - 1]
            if field.is_rationals:
                outer = Poly([Fraction(v, rng.randint(1, 30)) for v in nums], field)
            else:
                outer = Poly(nums, field)
            got = outer.compose(inner)
            want = _reference_compose(outer, inner)
            assert (got._nums, got._den) == (want._nums, want._den), (c0, length, bits)
            _assert_canonical(got)


@given(
    field=st.sampled_from(FIELDS),
    nums=_int_list(st.integers(11, 140)),
)
@settings(max_examples=30, deadline=None)
def test_long_compose_matches_sympy(field, nums):
    outer = Poly([v % 50 - 25 for v in nums], field)
    inner = Poly([Fraction(1, 3), -2, 1] if field.is_rationals else [3, -2, 1], field)
    expected = to_sympy(outer).compose(to_sympy(inner))
    assert outer.compose(inner) == from_sympy(expected, field)


@pytest.mark.parametrize(
    "vals, nb",
    [
        ([127, -127, 0, 1, -1], 1),
        ([-127] * 5, 1),
        ([2**15 - 1, -(2**15 - 1)], 2),
        ([-(2**39 - 1), -1, -(2**39 - 1)], 5),
        ([0, 0, 0], 3),
        ([5, -3, 0, 0, 0], 2),
        ([0, 0, -(2**63 - 1)], 8),
    ],
)
def test_pack_unpack_round_trip(vals, nb):
    packed = poly_module._pack(vals, nb)
    assert packed == sum(v << (8 * nb * i) for i, v in enumerate(vals))
    assert poly_module._unpack(packed, len(vals), nb) == vals


@pytest.mark.parametrize("nb", range(1, 49))
def test_pack_unpack_every_lane_width(nb, monkeypatch):
    top = 2 ** (8 * nb - 1) - 1
    low = -top - 1  # the lanes' lower end, -2^(8 nb - 1)
    # widths 1, 2, 4 and 8 take the array path, unless no type codes are
    # given, as on a big-endian host; other widths go one lane at a time
    for codes in (dict(poly_module._LANE_CODES), {}):
        monkeypatch.setattr(poly_module, "_LANE_CODES", codes)
        for vals in (
            [top, -top, 0, 1, -1],
            [-top] * 3,
            [0],
            [-1, top, 1, -top],
            [top],
            [low],
            [low, top, low, 0],
            [0, low, -1, low],
        ):
            packed = poly_module._pack(vals, nb)
            assert packed == sum(v << (8 * nb * i) for i, v in enumerate(vals))
            assert poly_module._unpack(packed, len(vals), nb) == vals


def test_lane_bytes_rounds_to_array_widths():
    for bits in range(400):
        nb = poly_module._lane_bytes(bits)
        assert nb >= bits // 8 + 1
        if bits <= 63:
            assert nb in (1, 2, 4, 8)
        else:
            assert nb == bits // 8 + 1


_CUT = poly_module._PACK_MIN


# la * lb >= _PACK_MIN * (la + lb) picks the packed product: both sides of
# that cutoff for equal lengths, and for one short and one long list.
# No shrink phase: the values come from a seed, which shrinking cannot
# simplify, and shrinking a kernel fault here ran for minutes.
@given(
    la=st.sampled_from([_CUT - 1, _CUT, _CUT + 1, 2 * _CUT - 1, 2 * _CUT, 2 * _CUT + 1]),
    lb=st.sampled_from([_CUT - 1, 2 * _CUT - 1, 2 * _CUT, 2 * _CUT + 1, 100]),
    share=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_int_conv_near_lane_widths_matches_schoolbook(la, lb, share, seed):
    rng = random.Random(seed)
    # _int_conv sizes lanes from bits(max|a|) + bits(max|b|) + bits(min length):
    # put that bound on each side of the edge of a lane width, 8 * width bits
    for width in (1, 2, 4, 8, 9, 10, 16):
        for edge in range(8 * width - 2, 8 * width + 2):
            total = max(2, edge - min(la, lb).bit_length())
            bits_a = max(1, min(total - 1, share * total // 16))
            lists = []
            for n, top in ((la, 2**bits_a - 1), (lb, 2 ** (total - bits_a) - 1)):
                values = [rng.choice([top, -top, 0, rng.randint(-top, top)]) for _ in range(n)]
                values[rng.randrange(n)] = rng.choice([top, -top])
                lists.append(values)
            assert poly_module._int_conv(*lists) == _reference_conv(*lists)


def test_compose_large_degree_over_f17_is_fast():
    # lanes that are never reduced mod 17 would make this take minutes
    rng = random.Random("compose-4096")
    outer = Poly([rng.randint(0, 16) for _ in range(4096)] + [1], F17)
    inner = Poly([5, 3, 11], F17)
    start = time.perf_counter()
    composed = outer.compose(inner)
    assert time.perf_counter() - start < 5.0
    assert composed.degree() == 8192
    for t in (0, 1, 6, 16):
        t = F17.scalar(t)
        assert composed.evaluate(t) == outer.evaluate(inner.evaluate(t))


# -- the Scalar boundary: evaluate, roots and the coefficient readers ------
# `evaluate` and every `poly_roots` candidate run one integer Horner,
# `fields._horner`, so both are checked here against references that do not
# use it: a Horner loop on Scalars, and sympy's rational roots.


def _scalar_horner(p: Poly, point):
    """p(point) by Horner on p's Scalar coefficients."""
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def _assert_evaluates(p: Poly, point) -> None:
    got, want = p.evaluate(point), _scalar_horner(p, point)
    assert got == want
    assert type(got.value) is type(want.value)


_Q_POINTS = [0, 1, -1, Fraction(2, 3), Fraction(-7, 5), Fraction(10**20 + 1, 3**40)]


@pytest.mark.parametrize(
    "coeffs",
    [
        [],
        [Fraction(-3, 4)],
        [0, 0, 5],
        [Fraction(1, 2), -3, 0, Fraction(5, 6)],
        [7, 0, 0, 0, 0, Fraction(-1, 9)],
        [Fraction(3, 10**30), Fraction(-2, 7), 2**90],
    ],
)
def test_evaluate_matches_scalar_horner_over_q(coeffs):
    p = Poly(coeffs, QQ)
    for x in _Q_POINTS:
        _assert_evaluates(p, QQ.scalar(x))
        assert p.evaluate(x) == p.evaluate(QQ.scalar(x))  # ints and Fractions coerce
    assert p.evaluate(QQ.zero) == p.coeff(0)


@given(p=_poly(QQ, max_len=8), point=st.fractions(max_denominator=50))
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_scalar_horner_at_fractions(p, point):
    _assert_evaluates(p, QQ.scalar(point))


@given(cs=st.lists(st.integers(-14, 14), max_size=6))
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_scalar_horner_at_every_residue_of_f7(cs):
    p = Poly(cs, F7)
    for point in F7.elements():
        _assert_evaluates(p, point)


@given(
    cs=st.lists(st.integers(-(2**70), 2**70), max_size=6),
    point=st.integers(0, 2**61 - 2),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_scalar_horner_over_f_big(cs, point):
    p = Poly(cs, F_BIG)
    for x in (0, 1, 2**61 - 2, point):
        _assert_evaluates(p, F_BIG.scalar(x))


@pytest.mark.parametrize("field", [F7, F_BIG], ids=str)
def test_evaluate_matches_scalar_horner_on_long_polynomials(field):
    # over F_p the sum is reduced once, after the loop
    rng = random.Random(f"evaluate-long-{field}")
    for length in (15, 16, 17, 18, 40, 200):
        p = Poly([rng.randrange(field.p) for _ in range(length)], field)
        for x in (0, 1, field.p - 1, rng.randrange(field.p)):
            _assert_evaluates(p, field.scalar(x))


@pytest.mark.parametrize("field", [QQ, F7, F_BIG], ids=str)
def test_evaluate_zero_and_constant_polynomials(field):
    points = [field.zero, field.one, field.scalar(3), field.scalar(-2)]
    for p in (Poly.zero(field), Poly([5], field), Poly([0, 0, 0], field)):
        for point in points:
            _assert_evaluates(p, point)
            assert p.evaluate(point) == p.coeff(0)


def test_evaluate_rejects_a_scalar_of_another_field():
    with pytest.raises(FieldMismatch):
        P(1, 2).evaluate(F7.scalar(3))
    with pytest.raises(FieldMismatch):
        Poly([1, 2], F7).evaluate(F5.scalar(1))
    with pytest.raises(FieldMismatch):
        Poly.zero(F7).evaluate(QQ.one)


def _sympy_rational_roots(p: Poly) -> set:
    return {QQ.scalar(Fraction(str(r))) for r in to_sympy(p).ground_roots()}


def _from_factors(scale, factors) -> Poly:
    """scale times the product of the polynomials given by coefficient lists."""
    out = Poly.const(QQ.scalar(scale))
    for coeffs in factors:
        out = out * Poly(coeffs, QQ)
    return out


@pytest.mark.parametrize(
    "scale, factors",
    [
        # fractional roots 1/2, -2/3 and -5/4, and an irreducible factor
        (1, [[-1, 2], [2, 3], [5, 4], [1, 0, 1]]),
        (1, [[-1, 2], [-1, 2], [Fraction(1, 3), 1]]),
        # zero roots of multiplicity 2, 3 and 5
        (1, [[0, 1], [0, 1], [-2, 0, 1]]),
        (1, [[0, 1]] * 3 + [[-4, 5]]),
        (Fraction(2, 3), [[0, 1]] * 5),
        # non-unit content, integral and rational
        (12, [[-3, 1], [1, 4]]),
        (Fraction(10, 3), [[6, 9], [-2, 1], [0, 1], [0, 1]]),
        (30, [[-7, 1], [1, 0, 1]]),
        # negative leading coefficient
        (-1, [[1, -2], [5, 1], [-2, 0, 1]]),
        (-6, [[0, 1], [0, 1], [Fraction(-3, 7), 1]]),
        (Fraction(-5, 2), [[-1, 3], [-1, 3], [1, 1, 1]]),
        # no rational roots
        (1, [[-2, 0, 1]]),
        (-9, [[1, 0, 1], [3, 1, 0, 2]]),
    ],
)
def test_rational_roots_match_sympy(scale, factors):
    p = _from_factors(scale, factors)
    roots = poly_roots(p)
    assert roots == _sympy_rational_roots(p)
    for root in roots:
        assert _scalar_horner(p, root).is_zero()


def test_rational_roots_of_large_smooth_constants():
    # 10^20 has 441 divisors, found by factoring, not by 10^10 trial divisions
    big = 10**20
    assert poly_roots(P(-big, 0, 1)) == {QQ.scalar(10**10), QQ.scalar(-(10**10))}
    # 1 + 4 * 10^20 is not a square, so h^2 - h - 10^20 has no rational root
    assert poly_roots(P(-big, -1, 1)) == set()
    # the roots of 10^20 h^2 - 1 are +-1/10^10: v runs over the lead's divisors
    assert poly_roots(P(-1, 0, big)) == {QQ.scalar(Fraction(s, 10**10)) for s in (1, -1)}


@given(
    roots=st.lists(
        st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=4
    ),
    zeros=st.integers(0, 3),
    other=st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, 1, 1], [3, 0, 0, 2]]),
    scale=st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_rational_roots_of_products_match_sympy(roots, zeros, other, scale):
    factors = [[-u, v] for u, v in roots] + [[0, 1]] * zeros + [other]
    p = _from_factors(scale, factors)
    if p.degree() < 1:
        return
    assert poly_roots(p) == _sympy_rational_roots(p)


@pytest.mark.parametrize(
    "field, coeffs",
    [
        (QQ, [Fraction(1, 6), 0, Fraction(-5, 4), 0, 0, 3]),
        (QQ, [0, 0, Fraction(7, 3)]),
        (QQ, [4, -2]),
        (QQ, []),
        (F7, [3, 0, -1, 0, 12]),
        (F7, [0, 14, 0, 5]),
        (F_BIG, [2**61, 0, -5]),
    ],
)
def test_coefficient_readers_agree_with_coeffs(field, coeffs):
    p = Poly(coeffs, field)
    cs = p.coeffs
    # coeffs is the input in the field, without trailing zeros
    assert cs == tuple(field.scalar(c) for c in coeffs[: len(cs)])
    assert all(field.scalar(c).is_zero() for c in coeffs[len(cs) :])
    for i in range(-3, len(cs) + 3):
        want = cs[i] if 0 <= i < len(cs) else field.zero
        got = p.coeff(i)
        assert got == want
        assert type(got.value) is type(want.value)
    if cs:
        assert p.lead() == cs[-1]
    else:
        with pytest.raises(ZeroPolynomial):
            p.lead()
    nonzero = [(j, c) for j, c in enumerate(cs) if not c.is_zero()]
    assert list(p.monomials()) == nonzero
    assert p.single_monomial() == (
        (nonzero[0][1], nonzero[0][0]) if len(nonzero) == 1 else None
    )
