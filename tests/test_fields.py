import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgha import AlgebraParams, FieldSpec, Poly, field_make, nth_roots, root_of_unity_order
from qgha.errors import (
    CapacityExceeded,
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
    NotPrime,
    ZeroInput,
)
from qgha.fields import _divisors

QQ = FieldSpec()
F7 = FieldSpec(7)


def test_field_make():
    assert field_make("Q").is_rationals
    assert field_make("Fp", 7).p == 7
    with pytest.raises(NotPrime):
        field_make("Fp", 6)
    with pytest.raises(ValueError):
        field_make("Zp", 7)


def test_field_char_and_str():
    assert QQ.char == 0
    assert F7.char == 7
    assert str(QQ) == "Q"
    assert str(F7) == "F_7"


def test_scalar_basic_arithmetic():
    half = QQ.scalar(Fraction(1, 2))
    third = QQ.scalar("1/3")
    assert half + third == QQ.scalar(Fraction(5, 6))
    assert str(half + third) == "5/6"
    assert F7.scalar(3).inv() == F7.scalar(5)  # 3*5 = 15 = 1 mod 7
    with pytest.raises(DivisionByZero):
        F7.scalar(0).inv()
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero


def test_scalar_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.one + F7.one
    with pytest.raises(FieldMismatch):
        F7.scalar(QQ.one)


def test_scalar_int_coercion_and_pow():
    assert QQ.scalar(2) + 1 == QQ.scalar(3)
    assert 2 * F7.scalar(4) == F7.scalar(1)
    assert QQ.scalar(Fraction(2, 3)) ** -2 == QQ.scalar(Fraction(9, 4))
    assert F7.scalar(3) ** 0 == F7.one
    assert 1 - QQ.scalar(3) == QQ.scalar(-2)
    assert 1 / QQ.scalar(3) == QQ.scalar(Fraction(1, 3))
    assert 2 - F7.scalar(5) == F7.scalar(4)
    assert 1 / F7.scalar(3) == F7.scalar(5)
    for field in (QQ, F7):
        # pow over F_p would raise ValueError on zero, an internal error (exit 5)
        with pytest.raises(DivisionByZero):
            field.zero ** -2
        with pytest.raises(DivisionByZero):
            field.zero.inv()
        for v in (1, 2, 3, -1, Fraction(2, 3), Fraction(-5, 4)):
            s = field.scalar(v)
            for k in range(1, 5):
                assert s ** -k == s.inv() ** k
                assert s ** -k * s**k == field.one


@pytest.mark.parametrize("p", [7.0, Fraction(7), "7", 7 + 0j])
def test_field_refuses_a_characteristic_that_is_not_an_int(p):
    # 7.0 and Fraction(7) would pass the prime test and fail at the first scalar
    with pytest.raises(InvalidArgument) as info:
        FieldSpec(p)
    assert info.value.exit_code == 2 and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "value", [0.1, 2.0, float("nan"), float("inf"), None, "abc", "1/0", 1j, [1]]
)
def test_scalar_refuses_inexact_and_non_numeric_values(value):
    # 0.1 would read as 3602879701896397/36028797018963968
    h = Poly([0, 1], QQ)
    A = AlgebraParams(QQ, 2, h * h, h)
    for build in (
        QQ.scalar,
        F7.scalar,
        lambda v: AlgebraParams(QQ, v, h * h, h),
        lambda v: Poly([v], QQ),
        lambda v: Poly([1, v], F7),
        A.one().scale,
    ):
        with pytest.raises(InvalidArgument):
            build(value)


def test_scalar_keeps_exact_values():
    for field in (QQ, F7):
        assert field.scalar(3) == field.scalar(Fraction(3)) == field.scalar("3")
        assert field.scalar("-1/2") == field.scalar(Fraction(-1, 2))
        assert field.scalar(field.scalar(5)) == field.scalar(5)
        assert field.scalar(True) == field.one
    assert str(QQ.scalar("0.1")) == "1/10"  # a decimal string is exact


def test_fp_residue_normalization():
    assert F7.scalar(-1) == F7.scalar(6)
    assert F7.scalar(Fraction(1, 2)) == F7.scalar(4)  # 2*4 = 1 mod 7
    with pytest.raises(DivisionByZero):
        F7.scalar(Fraction(1, 7))


def test_root_of_unity_order_rationals():
    assert root_of_unity_order(QQ.scalar(-1)) == 2
    assert root_of_unity_order(QQ.one) == 1
    assert root_of_unity_order(QQ.scalar(2)) is None
    with pytest.raises(ZeroInput):
        root_of_unity_order(QQ.zero)


def test_root_of_unity_order_f7():
    # independent oracle: enumerate powers of 3 mod 7
    expected = next(l for l in range(1, 7) if pow(3, l, 7) == 1)
    assert expected == 6
    assert root_of_unity_order(F7.scalar(3)) == 6
    # every unit order divides p - 1
    for u in range(1, 7):
        assert 6 % root_of_unity_order(F7.scalar(u)) == 0


def _brute_divisors(n):
    return {d for d in range(1, abs(n) + 1) if n % d == 0}


def test_root_of_unity_order_matches_the_power_loop():
    # the least l >= 1 with u^l = 1, by multiplying until the power returns
    for p in (n for n in range(2, 200) if _brute_divisors(n) == {1, n}):
        F = FieldSpec(p)
        for u in range(1, p):
            acc, order = u, 1
            while acc != 1:
                acc = acc * u % p
                order += 1
            assert root_of_unity_order(F.scalar(u)) == order, (p, u)


def test_divisors_match_brute_force():
    for n in range(1, 3001):
        want = _brute_divisors(n)
        for m in (n, -n):
            got = _divisors(m)
            assert len(got) == len(want) and set(got) == want, m
    # a prime near 10^6: trial division runs to its square root
    assert sorted(_divisors(999983)) == [1, 999983]
    assert sorted(_divisors(-2 * 999983)) == [1, 2, 999983, 2 * 999983]
    # 10^20 = 2^20 5^20 has 21^2 divisors, found by dividing each prime out
    big = _divisors(10**20)
    assert len(big) == len(set(big)) == 441
    assert set(big) == {2**a * 5**b for a in range(21) for b in range(21)}


def test_nth_roots_rationals():
    assert nth_roots(2, QQ.scalar(4)) == {QQ.scalar(2), QQ.scalar(-2)}
    assert nth_roots(2, QQ.scalar(2)) == set()
    assert nth_roots(3, QQ.scalar(-8)) == {QQ.scalar(-2)}
    assert nth_roots(2, QQ.scalar(Fraction(4, 9))) == {
        QQ.scalar(Fraction(2, 3)),
        QQ.scalar(Fraction(-2, 3)),
    }
    assert nth_roots(1, QQ.scalar(Fraction(7, 5))) == {QQ.scalar(Fraction(7, 5))}
    with pytest.raises(ZeroInput):
        nth_roots(2, QQ.zero)


def test_nth_roots_f7():
    # independent oracle: enumerate cubes mod 7
    expected = {u for u in range(1, 7) if pow(u, 3, 7) == 1}
    assert expected == {1, 2, 4}
    assert nth_roots(3, F7.one) == {F7.scalar(u) for u in expected}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_nth_roots_match_enumeration(p):
    F = FieldSpec(p)
    for m in range(1, 5):
        for c in F.elements():
            if not c.is_zero():
                assert nth_roots(m, c) == {u for u in F.elements() if u**m == c}


def test_nth_roots_linear_needs_no_search():
    # u^1 = c has the one root c, however large the field
    big = FieldSpec(1000003)
    assert nth_roots(1, big.scalar(5)) == {big.scalar(5)}


def test_search_capacity_guard(set_capacity):
    set_capacity(10)
    F13 = FieldSpec(13)
    with pytest.raises(CapacityExceeded):
        root_of_unity_order(F13.scalar(2))
    with pytest.raises(CapacityExceeded):
        nth_roots(2, F13.scalar(3))


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@given(a=small_fractions, b=small_fractions, c=small_fractions)
def test_rational_field_axioms(a, b, c):
    sa, sb, sc = (QQ.scalar(v) for v in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + (-sa) == QQ.zero
    if not sb.is_zero():
        assert (sa / sb) * sb == sa


@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
def test_prime_field_axioms(a, b, c):
    sa, sb, sc = (F7.scalar(v) for v in (a, b, c))
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    if not sb.is_zero():
        assert sb * sb.inv() == F7.one


@given(m=st.integers(1, 5), num=st.integers(-30, 30), den=st.integers(1, 12))
def test_nth_roots_are_roots(m, num, den):
    if num == 0:
        return
    c = QQ.scalar(Fraction(num, den))
    for u in nth_roots(m, c):
        assert u**m == c


def test_nth_roots_complete_over_rationals():
    values = {Fraction(a, b) for a in range(1, 13) for b in range(1, 13)}
    for m in range(1, 6):
        powers = {r**m for r in values}
        for r in values:
            expected = {QQ.scalar(r), QQ.scalar(-r)} if m % 2 == 0 else {QQ.scalar(r)}
            assert nth_roots(m, QQ.scalar(r**m)) == expected
            if m % 2:
                assert nth_roots(m, QQ.scalar(-(r**m))) == {QQ.scalar(-r)}
            else:
                assert nth_roots(m, QQ.scalar(-(r**m))) == set()
        for c in values - powers:
            assert nth_roots(m, QQ.scalar(c)) == set()
            assert nth_roots(m, QQ.scalar(-c)) == set()


def test_large_prime_field_arithmetic():
    # basic arithmetic must work for p up to 10^6; only exhaustive searches
    # are capacity-bounded
    big = FieldSpec(999983)
    a = big.scalar(123456)
    b = big.scalar(654321)
    assert (a * b) * b.inv() == a
    assert a ** 5 == big.scalar(pow(123456, 5, 999983))
    with pytest.raises(CapacityExceeded):
        nth_roots(2, a)


def test_primality_of_large_moduli():
    start = time.perf_counter()
    assert FieldSpec(10**18 + 3).p == 10**18 + 3
    assert FieldSpec(10**18 + 9).p == 10**18 + 9
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NotPrime):
        FieldSpec(10**18 + 1)  # 101 * 9901 * 999999000001
    with pytest.raises(NotPrime):
        FieldSpec(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in (1, 4, 91, 561, 999983 * 1000003):
        with pytest.raises(NotPrime):
            FieldSpec(composite)


def test_primality_beyond_exact_bound():
    # 2^89 - 1 is prime but above the bound where Miller-Rabin is exact
    with pytest.raises(CapacityExceeded, match="3317044064679887385961981"):
        FieldSpec(2**89 - 1)
    with pytest.raises(NotPrime):
        FieldSpec(2**89)  # a small factor still decides it
