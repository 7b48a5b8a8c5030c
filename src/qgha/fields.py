"""Exact scalars over Q and over prime fields F_p, and every ground-field search.

Scalars are immutable value objects.  Rationals are kept in lowest terms with
positive denominator (Fraction guarantees this); prime-field values are
residues in [0, p).  Mixing scalars of different fields raises FieldMismatch.
Plain Python ints coerce into either field in arithmetic.

Both fields run one code path: `FieldSpec.scalar` coerces through Fraction,
`Scalar._reduced` takes a result mod p over F_p and leaves it as is over Q,
and powers, negative ones included, are pow(value, e, p) with p = None
over Q.  The characteristic matters only in the searches, which all live
here with their capacity guards, on integer lists: `FieldSpec.elements`,
`_roots` (behind `poly.poly_roots`), `nth_roots` and `root_of_unity_order`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .capacity import check_search
from .errors import (
    CapacityExceeded,
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
    NotPrime,
    ZeroInput,
)

# CPython 3.11+ refuses str(int) past this many digits (0: no limit)
_get_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

# Miller-Rabin on the primes 2..41 is exact for every n below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; undecidable sizes raise CapacityExceeded."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise CapacityExceeded(f"prime test of {n} exceeds capacity bound {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Ground field descriptor: Q when p is None, else F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not isinstance(p, int):
            raise InvalidArgument(f"characteristic {p!r} is not an int")
        if p is not None and not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "FieldSpec(Q)" if self.p is None else f"FieldSpec(F_{self.p})"

    def __str__(self):
        return "Q" if self.p is None else f"F_{self.p}"

    def scalar(self, value) -> Scalar:
        """Coerce an int, Fraction, Scalar or str (what `fractions.Fraction` parses); floats are
        refused.  `serial.scalar_from_text` and the CLI check text from files and argv first."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field}, expected {self}")
            return value
        if isinstance(value, float):
            raise InvalidArgument(f"inexact scalar {value!r}")
        try:
            value = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidArgument(f"{value!r} is not a scalar") from None
        if self.p is not None:
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"denominator not invertible mod {self.p}")
            value = value.numerator * pow(value.denominator, -1, self.p) % self.p
        return Scalar(value, self)

    @property
    def zero(self) -> Scalar:
        return self.scalar(0)

    @property
    def one(self) -> Scalar:
        return self.scalar(1)

    def elements(self):
        """All field elements in ascending residue order (prime fields only)."""
        if self.p is None:
            raise InvalidArgument("cannot enumerate Q")
        check_search(self.p, f"enumeration of F_{self.p}")
        for r in range(self.p):
            yield Scalar(r, self)


def field_make(kind: str, p: int | None = None) -> FieldSpec:
    """Build a field descriptor from the wire-format tag "Q" or "Fp"."""
    if kind == "Q":
        return FieldSpec()
    if kind == "Fp":
        if p is None:
            raise InvalidArgument("prime field requires p")
        return FieldSpec(p)
    raise InvalidArgument(f"unknown field kind {kind!r}")


class Scalar:
    """Immutable exact element of Q or F_p."""

    __slots__ = ("value", "field")

    def __init__(self, value, field: FieldSpec):
        self.value = value
        self.field = field

    def _reduced(self, value) -> Scalar:
        """value in this scalar's field: reduced mod p over F_p."""
        p = self.field.p
        return Scalar(value if p is None else value % p, self.field)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._reduced(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._reduced(-self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._reduced(self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0 and self.is_zero():
            raise DivisionByZero("inverse of zero")
        # pow with modulus None is plain v**e, which inverts for e < 0
        return Scalar(pow(self.value, exponent, self.field.p), self.field)

    def inv(self) -> Scalar:
        return self ** -1

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.field))

    def sort_key(self):
        """Total order used for deterministic candidate enumeration."""
        return self.value

    def __str__(self):
        # every printed number passes here, so answers print whole past
        # CPython's int-to-str digit limit (3.11+); parsing keeps the limit
        saved = _get_max_str_digits()
        if not saved:
            return str(self.value)
        sys.set_int_max_str_digits(0)
        try:
            return str(self.value)
        finally:
            sys.set_int_max_str_digits(saved)

    def __repr__(self):
        return f"Scalar({self.value!r}, {self.field})"


def root_of_unity_order(q: Scalar) -> int | None:
    """Smallest l >= 1 with q^l = 1, or None when no power returns to 1.

    Over Q only 1 and -1 qualify; over F_p the order always exists: it is
    the least divisor d of p - 1 with q^d = 1.
    """
    if q.is_zero():
        raise ZeroInput("q must be nonzero")
    field = q.field
    if field.is_rationals:
        return {1: 1, -1: 2}.get(q.value)
    check_search(field.p, f"order computation in F_{field.p}")
    return min(d for d in _divisors(field.p - 1) if pow(q.value, d, field.p) == 1)


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, for n != 0.  Each prime found is divided
    out, so trial division stops at the square root of what is left."""
    n = abs(n)
    out = [1]
    d = 2
    while d * d <= n:
        new = out
        while n % d == 0:
            n //= d
            new = [a * d for a in new]
            out += new
        d += 1
    if n > 1:  # the prime left over
        out += [a * n for a in out]
    return out


def _int_nth_root(n: int, m: int) -> int:
    """floor(n**(1/m)) for n >= 0, m >= 1, by binary search."""
    if n in (0, 1) or m == 1:
        return n
    lo, hi = 1, 1 << (n.bit_length() // m + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**m <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def nth_roots(m: int, c: Scalar) -> set[Scalar]:
    """All ground-field solutions u of u^m = c, for c != 0.

    Over Q the candidates are +-r, with r the integer m-th roots of |numerator|
    and denominator, kept when r^m = c (this covers both signs for odd and
    even m); over F_p, c itself for m = 1, else the `_roots` of u^m - c.
    """
    if m < 1:
        raise InvalidArgument("m must be positive")
    if c.is_zero():
        raise ZeroInput("c must be nonzero")
    field = c.field
    if field.is_rationals:
        v = c.value
        root = Fraction(_int_nth_root(abs(v.numerator), m), _int_nth_root(v.denominator, m))
        return {field.scalar(r) for r in (root, -root) if r**m == v}
    if m == 1:
        return {c}
    return _roots([-c.value % field.p] + [0] * (m - 1) + [1], field)


def _horner(rev, u: int, v: int) -> int:
    """sum rev[i] * u^(d-i) * v^i, d = len(rev) - 1: v^d times the
    polynomial at u/v whose numerators, from the leading one down, are rev."""
    acc, w = 0, 1  # w = v^i
    for c in rev:
        acc = acc * u + c * w
        w *= v
    return acc


def _roots(nums, field: FieldSpec) -> set[Scalar]:
    """Roots in field of the nonzero polynomial with ascending numerators nums.
    Over F_p: each residue, by an inline Horner mod p (a call per residue
    costs ~20%), behind the search bound.  Over Q: 0 if n_0 = 0, and each
    coprime +-u/v with u | n_low, v | n_d over the content (rational-root
    theorem; n_low the lowest nonzero n_i) at which `_horner` is 0."""
    mod = field.p
    rev = nums[::-1]
    if mod is not None:
        check_search(mod, f"root search in F_{mod}")
        roots = set()
        for r in range(mod):
            acc = 0
            for c in rev:
                acc = (acc * r + c) % mod
            if not acc:
                roots.add(Scalar(r, field))
        return roots
    content = gcd(*nums)
    lows = _divisors(next(c for c in nums if c) // content)
    leads = _divisors(nums[-1] // content)
    pairs = ((s, v) for u in lows for v in leads if gcd(u, v) == 1 for s in (u, -u))
    roots = {field.scalar(Fraction(u, v)) for u, v in pairs if not _horner(rev, u, v)}
    return roots if nums[0] else roots | {field.zero}
