"""Dense univariate polynomials over an exact field.

The indeterminate is written h throughout.  A polynomial is stored on
integers: `_nums`, the numerators in ascending order with no trailing zeros,
over one denominator `_den`.  `_normal` keeps the form canonical: over F_p
the numerators are residues in [0, p) and `_den` is 1; over Q, `_den` > 0
and gcd(content, `_den`) is 1.  So equal polynomials have equal integers,
and addition, multiplication and composition run one integer code path for
both fields.  Each result is built in one step: `_make` normalises its
integers and fills the three slots, `_canonical` fills them with integers
already canonical.  A sum over equal denominators, as always over F_p,
adds the numerators with no lcm.  A `Scalar` is built only at the boundary:
`_scalar` turns one numerator into one, and `coeffs`, `lead`, `coeff` and
`monomials` read through it on each call; `evaluate` runs `fields._horner`
on the numerators, and `poly_roots` hands them to `fields._roots`.  The
zero polynomial has no numerators and degree NEG_INF, below every integer.

Products of coefficient lists (`_int_conv`) scale a copy by a
one-coefficient operand, run a schoolbook loop on short operands and a
Kronecker substitution on longer ones: each list is packed into one
integer with fixed-width signed lanes (`_pack`/`_unpack`), sized from an
exact coefficient bound, and CPython multiplies the two integers.  Lanes
of up to 8 bytes are widened to 1, 2, 4 or 8, so that `array` and
`memoryview` convert them in native byte order with no per-lane Python
work; an XOR offset of 0x80 atop every lane maps the signed sum to the
lanes' two's complement and back.  Wider lanes are cut by
`struct.iter_unpack` and read by one `int.from_bytes` each.
`compose` first takes out the gcd s of the inner's nonconstant exponents:
an inner M(h^s) composes as M, and the result is spread to every s-th
place, so the substitutions of f = h^2 + c run on half the length with a
linear inner, those of f = c h^s scale each coefficient, and those of
f = h^s only re-index the outer's numerators.  It then splits the outer as
A + h^k B, with k a power of two, and rebuilds it from its two halves and
the memoized power m^k of the inner numerators, reducing mod p at every
node; blocks of up to a leaf's length run Horner on one packed integer.
By a linear inner m0 + m1 h a Horner step is acc * m0 + (acc * m1 << lane
width), two multiplies by small integers and a shift, so over Q those
leaves run up to 256 coefficients.  Over Q the split gives way to Horner
on coefficient lists once the result's coefficient bound is long for the
outer length.  All paths are exact, so they give the same results.  A
result is normalised once, before the spread, which keeps it canonical.
"""

from __future__ import annotations

import struct
import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

from .capacity import check_degree
from .errors import FieldMismatch, InvalidArgument, ZeroPolynomial, ZeroScale
from .fields import FieldSpec, Scalar, _horner, _roots

NEG_INF = float("-inf")


# Measured cutoffs (CPython 3.11; the numbers are in BENCH_23.json): every
# path is exact, so these only pick the faster one.
# Pack once la*lb / (la+lb) reaches this: la+lb lane conversions beat la*lb products.
_PACK_MIN = 9
# Over Q, list Horner past _SPLIT_BITS * sqrt(outer length) bits: huge Karatsuba costs more.
_SPLIT_BITS = 90
# Longest block that the divide-and-conquer compose evaluates by Horner on
# one packed integer, whose lanes hold the block's unreduced result: at
# most _LEAF_MAX coefficients and lanes of about _LEAF_BITS bits.
_LEAF_MAX = 64
_LEAF_BITS = 256
# Linear inners over Q step by shift-and-add and reduce no node: longer leaves.
_LEAF_MAX_LINEAR = 256
_LEAF_BITS_LINEAR = 512

# Signed `array` type codes by item size; their native byte order is the
# packed integers' little-endian one only on a little-endian host.
_LANE_CODES = {array(c).itemsize: c for c in "qlihb"} if sys.byteorder == "little" else {}


def _lane_offset(n: int, nb: int) -> int:
    """2^(8*nb - 1) in each of n nb-byte lanes: 0x80 atop every lane."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _pack(vals, nb: int) -> int:
    """sum vals[i] * 2^(8*nb*i): one integer with nb-byte signed lanes.

    Needs -2^(8*nb - 1) <= vals[i] < 2^(8*nb - 1) for `_unpack` to read the
    lanes back.  With the lanes written in two's complement as T, the sum is
    (T ^ offset) - offset: flipping a lane's top bit adds half a lane to its
    signed value, with no carries.  Lanes of 1, 2, 4 or 8 bytes are written
    by `array` at C speed, wider ones by one `to_bytes` each.
    """
    code = _LANE_CODES.get(nb)
    if code:
        raw = array(code, vals).tobytes()
    else:
        raw = b"".join([v.to_bytes(nb, "little", signed=True) for v in vals])
    offset = _lane_offset(len(vals), nb)
    return (int.from_bytes(raw, "little") ^ offset) - offset


def _unpack(packed: int, n: int, nb: int) -> list:
    """The n signed nb-byte lanes of packed: the inverse of `_pack`.

    (packed + offset) ^ offset is the lanes in two's complement, which a
    `memoryview` reads at C speed for lanes of 1, 2, 4 or 8 bytes.  Wider
    lanes come from `struct.iter_unpack`, with no slice per lane, and one
    signed `int.from_bytes` each.
    """
    offset = _lane_offset(n, nb)
    raw = ((packed + offset) ^ offset).to_bytes(n * nb, "little")
    code = _LANE_CODES.get(nb)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(c, "little", signed=True) for (c,) in struct.iter_unpack(f"{nb}s", raw)]


def _lane_bytes(bits: int) -> int:
    """Lane width in bytes for signed values below 2^bits in magnitude,
    rounded up to 1, 2, 4 or 8 bytes, the widths `array` converts."""
    nb = bits // 8 + 1
    return nb if nb > 8 else 1 << (nb - 1).bit_length()


def _int_conv(a, b) -> list:
    """Coefficients of the product of two integer coefficient lists."""
    if not a or not b:
        return []
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:  # a scalar: a scaled copy
        s = a[0]
        return [s * v for v in b]
    if len(a) * len(b) >= _PACK_MIN * (len(a) + len(b)):
        # Kronecker substitution: |c_k| <= min(len) * max|a| * max|b|
        bits = (
            max(map(int.bit_length, a))
            + max(map(int.bit_length, b))
            + min(len(a), len(b)).bit_length()
        )
        nb = _lane_bytes(bits)
        return _unpack(_pack(a, nb) * _pack(b, nb), len(a) + len(b) - 1, nb)
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


def _horner_packed(block, m, e: int) -> list:
    """sum block[i] * m^i * e^(L-1-i), L = len(block), by Horner on packed ints.

    The lanes are sized for the unreduced result, so blocks stay short: a
    whole long polynomial in one integer would carry huge lanes over F_p.
    With S = sum |m_i|, the bound takes S^top below 2^(top * bits(S - 1)),
    exact when S is a power of two: one bit a step for h + 1 or h - 1.  A
    linear m steps by shift-and-add, whose cost grows linearly with the
    lanes, where the product by the packed m grows with their square.
    """
    top = len(block) - 1
    if not top:
        return list(block)  # no power of m: packing m could overflow the lanes
    if e != 1:
        block = [v * e ** (top - i) for i, v in enumerate(block)]
    # |result_k| <= L * max|block| * S^top, S = sum |m_i| <= 2^bit_length(S - 1)
    bits = (
        max(map(int.bit_length, block))
        + len(block).bit_length()
        + top * (sum(map(abs, m)) - 1).bit_length()
    )
    nb = _lane_bytes(bits)
    acc = 0
    if len(m) == 2:
        m0, m1 = m
        shift = 8 * nb
        for v in reversed(block):
            # acc * (m0 + m1 * 2^shift), with no copy of acc for a unit factor
            acc = (acc if m0 == 1 else m0 * acc) + ((acc if m1 == 1 else m1 * acc) << shift) + v
    else:
        packed_m = _pack(m, nb)
        for v in reversed(block):
            acc = acc * packed_m + v
    return _unpack(acc, top * (len(m) - 1) + 1, nb)


def _split_leaf(nums, m, e: int, p) -> int:
    """Leaf length for `_compose_split` of nonzero nums by nonzero m / e, or
    0 over Q once the result's coefficient bound passes
    _SPLIT_BITS * sqrt(len(nums)) bits, to run `_compose_horner`.  An outer
    no longer than the leaf is one `_horner_packed` block.  A linear m over
    Q takes the longer leaves of _LEAF_MAX_LINEAR and _LEAF_BITS_LINEAR."""
    # bits per power of m in the bound on the result coefficients
    growth = (e * sum(map(abs, m))).bit_length()
    if p is None:
        # bound on the bits of the result coefficients
        bits = max(map(int.bit_length, nums)) + (len(nums) - 1) * growth
        if bits * bits > _SPLIT_BITS**2 * len(nums):
            return 0
        if len(m) == 2:
            return min(_LEAF_MAX_LINEAR, max(1, _LEAF_BITS_LINEAR // growth))
    return min(_LEAF_MAX, max(1, _LEAF_BITS // growth))


def _compose_horner(nums, m, e: int) -> list:
    """sum nums[i] * m^i * e^(L-1-i), L = len(nums), by Horner on lists of
    unreduced integers: the Q results with long coefficients."""
    d = len(nums) - 1
    acc = [nums[d]]
    for i in range(d - 1, -1, -1):
        acc = _int_conv(acc, m)
        acc[0] += nums[i] * e ** (d - i)
    return acc


def _compose_split(nums, m, e: int, p, m_powers: list, leaf: int) -> list:
    """sum nums[i] * m^i * e^(L-1-i), L = len(nums), reduced mod p over F_p.

    With nums = A + h^k B for k the largest power of two below L, this is
    H(A) * e^len(B) + m^k * H(B), where H is this map on each half.
    m_powers[t] holds m^(2^t) and is extended as needed; blocks of at most
    leaf coefficients run `_horner_packed`.
    """
    if len(nums) <= leaf:
        return _normal(_horner_packed(nums, m, e), 1, p)[0]
    t = (len(nums) - 1).bit_length() - 1
    k = 1 << t
    low = _compose_split(nums[:k], m, e, p, m_powers, leaf)
    high = _compose_split(nums[k:], m, e, p, m_powers, leaf)
    while len(m_powers) <= t:
        square = m_powers[-1]
        m_powers.append(_normal(_int_conv(square, square), 1, p)[0])
    out = _int_conv(high, m_powers[t])
    # B is empty or zero mod p when a lower half ends in zeros
    out += [0] * (len(low) - len(out))
    scale = e ** (len(nums) - k)
    for i, v in enumerate(low):
        out[i] += v * scale
    return _normal(out, 1, p)[0]


def _normal(nums: list, den: int, p) -> tuple[list, int]:
    """Canonical (numerators, denominator) of nums/den, den > 0.

    The one place the two fields differ: residues mod p over F_p (where den
    is always 1), a gcd with the denominator over Q.
    """
    if p is None:
        g = den
        for v in nums:
            if g == 1:
                break
            g = gcd(g, v)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    else:
        nums = [v % p for v in nums]
    while nums and not nums[-1]:
        nums.pop()
    return nums, den


class Poly:
    __slots__ = ("_nums", "_den", "field")

    def __init__(self, coeffs, field: FieldSpec):
        values = [field.scalar(c).value for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        nums, self._den = _normal(nums, den, field.p)
        self._nums = tuple(nums)
        self.field = field

    @classmethod
    def _canonical(cls, nums, den: int, field: FieldSpec) -> Poly:
        """The Poly nums / den, for nums and den already canonical."""
        self = object.__new__(cls)
        self._nums = tuple(nums)
        self._den = den
        self.field = field
        return self

    @classmethod
    def _make(cls, nums: list, den: int, field: FieldSpec) -> Poly:
        """The Poly nums / den, made canonical."""
        self = object.__new__(cls)
        nums, self._den = _normal(nums, den, field.p)
        self._nums = tuple(nums)
        self.field = field
        return self

    def _scalar(self, num: int) -> Scalar:
        """num / _den as a Scalar of this field (over F_p, _den is 1)."""
        field = self.field
        return Scalar(Fraction(num, self._den) if field.is_rationals else num, field)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, ascending, no trailing zeros; built
        on each access."""
        return tuple(map(self._scalar, self._nums))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> Poly:
        return cls._canonical((), 1, field)

    @classmethod
    def one(cls, field: FieldSpec) -> Poly:
        return cls._canonical((1,), 1, field)

    @classmethod
    def const(cls, value: Scalar) -> Poly:
        return cls((value,), value.field)

    @classmethod
    def h(cls, field: FieldSpec) -> Poly:
        return cls._canonical((0, 1), 1, field)

    # -- inspection ------------------------------------------------------

    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else NEG_INF

    def is_zero(self) -> bool:
        return not self._nums

    def lead(self) -> Scalar:
        if not self._nums:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._scalar(self._nums[-1])

    def coeff(self, i: int) -> Scalar:
        return self._scalar(self._nums[i]) if 0 <= i < len(self._nums) else self.field.zero

    def monomials(self):
        """Yield (exponent, coefficient) for each nonzero coefficient, ascending."""
        for j, n in enumerate(self._nums):
            if n:
                yield j, self._scalar(n)

    def single_monomial(self):
        """(coefficient, exponent) when exactly one coefficient is nonzero, else None."""
        found = None
        for j, c in self.monomials():
            if found is not None:
                return None
            found = (c, j)
        return found

    # -- ring operations ---------------------------------------------------

    def _check(self, other: Poly) -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        field = self.field
        if other.field is not field:
            self._check(other)
        a, b = self._nums, other._nums
        da, db = self._den, other._den
        if len(a) < len(b):
            a, b, da, db = b, a, db, da
        if da == db:  # always over F_p
            out = list(a)
            for i, v in enumerate(b):
                out[i] += v
            return Poly._make(out, da, field)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = [v * fa for v in a]
        for i, v in enumerate(b):
            out[i] += v * fb
        return Poly._make(out, den, field)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly._make([-v for v in self._nums], self._den, self.field)

    def __mul__(self, other):
        if isinstance(other, Poly):
            field = self.field
            if other.field is not field:
                self._check(other)
            a, b = self._nums, other._nums
            # products by the constant 1 are common in straightening
            if a == (1,) and self._den == 1:
                return other
            if b == (1,) and other._den == 1:
                return self
            if not a or not b:
                return Poly.zero(field)
            check_degree(len(a) + len(b) - 2)
            return Poly._make(_int_conv(a, b), self._den * other._den, field)
        if isinstance(other, (Scalar, int)):
            s = self.field.scalar(other).value
            return Poly._make(
                [v * s.numerator for v in self._nums],
                self._den * s.denominator,
                self.field,
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return _power(self, Poly.one(self.field), exponent)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field == other.field
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._nums, self._den, self.field))

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Scalar) -> Scalar:
        """self(point): `_horner` of the numerators at point = u/v, over
        v^deg * _den."""
        point = Fraction(self.field.scalar(point).value)
        v = point.denominator
        value = _horner(self._nums[::-1], point.numerator, v)
        return self.field.scalar(Fraction(value, v ** max(len(self._nums) - 1, 0) * self._den))

    def compose(self, inner: Poly) -> Poly:
        """self(inner(h)) on integers.

        With self = sum n_i h^i / D of degree d and inner = m / E,
        self(inner) = (sum n_i m^i E^(d-i)) / (D E^d).  When the exponents
        of m's nonconstant terms share a gcd s > 1, m = M(h^s) and the sum
        is computed with M, then written to every s-th place.  If M is c h,
        the sum is n_i c^i E^(d-i) per coefficient; if M is h and E is 1,
        it is self's own numerators.  Otherwise `_split_leaf` picks the
        split (`_compose_split`), one packed Horner block, or, over Q with
        long coefficients for the length, Horner over lists.  A zero self
        or inner needs no kernel: the result is self's constant term.
        """
        field = self.field
        if inner.field is not field:
            self._check(inner)
        nums, m, e = self._nums, inner._nums, inner._den
        d = len(nums) - 1
        if d >= 1 and len(m) >= 2:
            check_degree(d * (len(m) - 1))
        p = field.p
        # inner = M(h^step): compose with M, then spread to every step-th place
        step = gcd(*(j for j in range(1, len(m)) if m[j]))
        if step > 1:
            m = m[::step]
        if m == (0, 1) and e == 1:  # M = h: self's numerators, canonical
            acc, den = nums, self._den
        else:
            if not nums or not m:
                acc = list(nums[:1])
            elif len(m) == 2 and not m[0]:  # M = c h: scale each coefficient
                acc = [v * pow(m[1], i, p) * pow(e, d - i, p) for i, v in enumerate(nums)]
            elif not (leaf := _split_leaf(nums, m, e, p)):
                acc = _compose_horner(nums, m, e)
            elif len(nums) <= leaf:
                acc = _horner_packed(nums, m, e)
            else:
                acc = _compose_split(nums, m, e, p, [m], leaf)
            acc, den = _normal(acc, self._den * e ** max(d, 0), p)
        if step > 1 and acc:
            # a spread of canonical numerators is canonical
            spread = [0] * ((len(acc) - 1) * step + 1)
            spread[::step] = acc
            acc = spread
        return Poly._canonical(acc, den, field)

    # -- display -----------------------------------------------------------

    def __str__(self):
        return _terms_str((c, [_pow_str("h", j)]) for j, c in reversed([*self.monomials()]))

    def __repr__(self):
        return f"Poly({self})"


def _power(base, one, exponent: int):
    """base^exponent by square and multiply through `*`: O(log n) products.
    `Poly.__pow__` and `Element.__pow__` both call it, with their own one."""
    result, square = one, base
    while exponent:
        if exponent & 1:
            result = result * square
        exponent >>= 1
        if exponent:
            square = square * square
    return result


def _pow_str(letter: str, e: int) -> str:
    """letter^e, written letter for e = 1 and empty for e = 0."""
    if not e:
        return ""
    return letter if e == 1 else f"{letter}^{e}"


def _terms_str(terms) -> str:
    """The sum of (coefficient, factor strings) terms, written so it re-parses.

    Each coefficient is folded to the front of its factors and left out when
    it is 1; after the first term a negative rational is written " - " and
    its magnitude.  Empty factors are skipped; no terms at all is "0".
    A leading -1 is written "-1*", not "-": the grammar binds a leading '-'
    to its atom, so "-h^2" parses as (-h)^2 = h^2, while "-1*h^2" is -h^2.
    """
    pieces = []
    for c, factors in terms:
        if pieces and c.value < 0:  # F_p residues are never negative
            pieces.append(" - ")
            c = -c
        elif pieces:
            pieces.append(" + ")
        factors = [s for s in factors if s]
        pieces.append("*".join(factors if c.is_one() else [str(c), *factors]) or "1")
    return "".join(pieces) or "0"


def _sigma(f: Poly, images: dict, p: Poly, s: int) -> Poly:
    """sigma^s(p) in s steps through the memo `images`, which maps a
    polynomial's (_nums, _den) to its image under sigma.  A step composes
    with f only on a miss, so no polynomial is composed twice for one memo.
    """
    while s and len(p._nums) > 1:  # sigma fixes constants
        key = (p._nums, p._den)
        image = images.get(key)
        if image is None:
            image = images[key] = p.compose(f)
        p, s = image, s - 1
    return p


def sigma_pow(f: Poly, k: int, p: Poly) -> Poly:
    """k-fold substitution of f: p(h) -> p(f(...f(h)...)).

    This realizes the k-th power of the endomorphism of F[h] that sends h
    to f(h), which is how polynomial coefficients transport across x^k and
    y^k in the algebra.
    """
    if k < 0:
        raise InvalidArgument("k must be nonnegative")
    f._check(p)
    return _sigma(f, {}, p, k)


def _pull_back(g: Poly, u: Scalar, v: Scalar) -> Poly:
    """g o psi^{-1} for the affine substitution psi(h) = u*h + v, u != 0."""
    return g.compose(Poly([-v / u, u.inv()], g.field))


def affine_conjugate(f: Poly, u: Scalar, v: Scalar) -> Poly:
    """psi o f o psi^{-1} for the affine substitution psi(h) = u*h + v."""
    field = f.field
    u = field.scalar(u)
    v = field.scalar(v)
    if u.is_zero():
        raise ZeroScale("u must be nonzero")
    return u * _pull_back(f, u, v) + Poly.const(v)


def poly_roots(p: Poly) -> set[Scalar]:
    """All ground-field roots of p != 0: -c0/c1 if linear, else `fields._roots`."""
    if p.is_zero():
        raise ZeroPolynomial("root finding needs a nonzero polynomial")
    if p.degree() == 1:
        return {-p.coeff(0) / p.coeff(1)}
    return _roots(p._nums, p.field)
