"""Normal-form elements of H_q(f, g) and their exact arithmetic.

H_q(f, g) is generated by x, y, h subject to

    h*x = x*f(h),    y*h = f(h)*y,    y*x - q*x*y = g(h).

The monomials x^i h^j y^k form a basis, so an element is stored canonically
as a finite map from exponent pairs (i, k) to nonzero polynomials p_ik(h),
meaning  sum_{i,k} x^i p_ik(h) y^k.  Straightening rests on

    p(h) * x^m = x^m * sigma^m(p),      y^m * p(h) = sigma^m(p) * y^m,
    y * x^c    = q^c x^c y + x^{c-1} Gamma_c(h),

where sigma substitutes f for h and Gamma_c = sum_{j<c} q^{c-1-j} sigma^j(g).
Products straighten in `_times`, which `Element.__mul__` and the growth
experiment both call; each keeps one memo of sigma-orbits, per product or
per run, so a polynomial met again is not composed with f again.
"""

from __future__ import annotations

from .errors import (
    AlgebraMismatch,
    CapacityExceeded,
    DegenerateAlgebra,
    FieldMismatch,
    InvalidArgument,
    ZeroPolynomial,
)
from .fields import FieldSpec, Scalar
from .poly import NEG_INF, Poly, _orbit, _pow_str, _sigma, _terms_str, sigma_pow

DEG_BOTTOM = (NEG_INF, NEG_INF)

MAX_EXPONENT = 2**31


class AlgebraParams:
    """One presentation (q, f, g) over a fixed ground field.

    No constraints are placed on q, f, g at construction; degenerate
    presentations (q = 0, constant f) are legal and the predicates report
    their consequences.
    """

    __slots__ = ("field", "q", "f", "g", "_yx_memo", "_gamma_memo")

    def __init__(self, field: FieldSpec, q, f: Poly, g: Poly):
        self.field = field
        self.q = field.scalar(q)
        if f.field != field or g.field != field:
            raise FieldMismatch("f and g must live over the declared field")
        self.f = f
        self.g = g
        # pure caches: y^b x^c normal forms and the Gamma_c polynomials
        self._yx_memo: dict[tuple[int, int], dict] = {}
        self._gamma_memo: list[Poly] = [Poly.zero(field)]

    @property
    def is_domain(self) -> bool:
        """q != 0 and f nonconstant: products of nonzero elements are nonzero."""
        return (not self.q.is_zero()) and self.f.degree() >= 1

    @property
    def is_gdua(self) -> bool:
        """deg f <= 1: the presentation is a generalized down-up algebra."""
        return self.f.degree() <= 1

    @property
    def char(self) -> int:
        return self.field.char

    def __eq__(self, other):
        if not isinstance(other, AlgebraParams):
            return NotImplemented
        return (
            self.field == other.field
            and self.q == other.q
            and self.f == other.f
            and self.g == other.g
        )

    def __hash__(self):
        return hash((self.field, self.q, self.f, self.g))

    def __repr__(self):
        return f"H_{self.q}({self.f}, {self.g}) over {self.field}"

    # -- canonical generators ---------------------------------------------

    def x(self) -> Element:
        return Element(self, {(1, 0): Poly.one(self.field)})

    def y(self) -> Element:
        return Element(self, {(0, 1): Poly.one(self.field)})

    def h(self) -> Element:
        return Element(self, {(0, 0): Poly.h(self.field)})

    def one(self) -> Element:
        return Element(self, {(0, 0): Poly.one(self.field)})

    def generators(self) -> tuple[Element, Element, Element]:
        return self.x(), self.y(), self.h()


class Element:
    """An algebra element in normal form: sum_{i,k} x^i p_ik(h) y^k.

    The terms map stores only nonzero polynomials; the zero element has an
    empty map.  Equality is map equality, which is well defined because the
    normal monomials are a basis.  Instances are immutable by convention.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraParams, terms: dict):
        clean: dict[tuple[int, int], Poly] = {}
        for (i, k), p in terms.items():
            if i < 0 or k < 0:
                raise InvalidArgument("exponents must be nonnegative")
            if i > MAX_EXPONENT or k > MAX_EXPONENT:
                raise CapacityExceeded(f"exponent beyond {MAX_EXPONENT}")
            if p.field != algebra.field:
                raise FieldMismatch("coefficient polynomial over the wrong field")
            if not p.is_zero():
                clean[(i, k)] = p
        self.algebra = algebra
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra: AlgebraParams) -> Element:
        return cls(algebra, {})

    @classmethod
    def from_poly(cls, algebra: AlgebraParams, p: Poly) -> Element:
        return cls(algebra, {(0, 0): p})

    @classmethod
    def from_scalar(cls, algebra: AlgebraParams, s) -> Element:
        return cls.from_poly(algebra, Poly.const(algebra.field.scalar(s)))

    @classmethod
    def monomial(cls, algebra: AlgebraParams, i: int, p: Poly, k: int) -> Element:
        return cls(algebra, {(i, k): p})

    # -- linear structure ----------------------------------------------------

    def _check(self, other: Element) -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different algebra presentations")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, p in other.terms.items():
            _acc(out, key, p)
        return Element(self.algebra, out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.algebra, {k: -p for k, p in self.terms.items()})

    def scale(self, s) -> Element:
        s = self.algebra.field.scalar(s)
        return Element(self.algebra, {k: s * p for k, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            # sigma^s(p) recurs across straightening terms: one orbit memo per product
            return Element(self.algebra, _times(self.algebra, self.terms, other.terms, {}))
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        # square and multiply: x^n, y^n and h^n take O(log n) products
        result, square = self.algebra.one(), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        return frozenset(self.terms)

    # -- structure maps --------------------------------------------------------

    def deg_lex(self):
        """Lexicographic bidegree: max (i, k) of the support, DEG_BOTTOM for 0."""
        return max(self.terms) if self.terms else DEG_BOTTOM

    def iota(self) -> Element:
        """The order-2 anti-automorphism fixing h and swapping x with y."""
        return Element(self.algebra, {(k, i): p for (i, k), p in self.terms.items()})

    def graded_components(self) -> dict[int, Element]:
        """Split by the Z-grading degree d = i - k; the parts sum back to self."""
        buckets: dict[int, dict] = {}
        for (i, k), p in self.terms.items():
            buckets.setdefault(i - k, {})[(i, k)] = p
        return {d: Element(self.algebra, sub) for d, sub in buckets.items()}

    # -- display -----------------------------------------------------------------

    def __str__(self):
        terms = self.terms
        return _terms_str(_term(i, terms[i, k], k) for i, k in sorted(terms, reverse=True))

    def __repr__(self):
        return f"Element({self})"


def _acc(out: dict, key, p: Poly) -> None:
    cur = out.get(key)
    out[key] = p if cur is None else cur + p


def _term(i: int, p: Poly, k: int) -> tuple:
    """x^i p(h) y^k as (coefficient, factors) for `_terms_str`; a multi-term
    p is one parenthesized factor with coefficient 1."""
    single = p.single_monomial()
    if single is None:
        c, middle = p.field.one, f"({p})"
    else:
        c, j = single
        middle = _pow_str("h", j)
    return c, [_pow_str("x", i), middle, _pow_str("y", k)]


def _gamma(algebra: AlgebraParams, c: int) -> Poly:
    """Gamma_c = sum_{j=0}^{c-1} q^{c-1-j} sigma^j(g), via the recurrence
    Gamma_c = q^{c-1} g + sigma(Gamma_{c-1})."""
    memo = algebra._gamma_memo
    while len(memo) <= c:
        n = len(memo)
        if n == 1:
            memo.append(algebra.g)
        else:
            memo.append(algebra.q ** (n - 1) * algebra.g + memo[n - 1].compose(algebra.f))
    return memo[c]


def _yx_terms(algebra: AlgebraParams, b: int, c: int) -> dict:
    """Terms map of the normal form of y^b x^c (shared memo; treat as frozen)."""
    memo = algebra._yx_memo
    key = (b, c)
    hit = memo.get(key)
    if hit is not None:
        return hit
    one = Poly.one(algebra.field)
    if b == 0:
        memo[key] = {(c, 0): one}
        return memo[key]
    if c == 0:
        memo[key] = {(0, b): one}
        return memo[key]
    for bb in range(1, b + 1):
        if (bb, c) in memo:
            continue
        prev = _yx_terms(algebra, bb - 1, c)
        terms: dict[tuple[int, int], Poly] = {}
        for (i, k), w in prev.items():
            sigma_w = w.compose(algebra.f)
            if i == 0:
                _acc(terms, (0, k + 1), sigma_w)
            else:
                _acc(terms, (i, k + 1), algebra.q**i * sigma_w)
                _acc(terms, (i - 1, k), _gamma(algebra, i) * w)
        memo[(bb, c)] = {key2: p for key2, p in terms.items() if not p.is_zero()}
    return memo[key]


def yx_expand(b: int, c: int, algebra: AlgebraParams) -> Element:
    """Normal form of y^b x^c.

    For b = 1 this is q^c x^c y + x^{c-1} Gamma_c(h); higher b by recursion.
    Agrees with the rewriting oracle on the same word.
    """
    if b < 0 or c < 0:
        raise InvalidArgument("exponents must be nonnegative")
    return Element(algebra, dict(_yx_terms(algebra, b, c)))


def _times(algebra: AlgebraParams, terms: dict, right_terms: dict, orbits: dict) -> dict:
    """Terms map of terms * right_terms, nonzero polynomials only.

    `orbits` maps a polynomial's (_nums, _den) to its sigma-orbit
    [p, sigma(p), ...], which `_sigma` extends in place.  Both operands are
    served from it, so a caller that keeps one memo across many products
    composes each distinct polynomial once.
    """
    f = algebra.f
    out: dict[tuple[int, int], Poly] = {}
    for (i1, k1), p1 in terms.items():
        left = _orbit(orbits, p1)
        for (i2, k2), p2 in right_terms.items():
            right = _orbit(orbits, p2)
            for (s, t), w in _yx_terms(algebra, k1, i2).items():
                p = _sigma(f, orbits, left, s) * w * _sigma(f, orbits, right, t)
                _acc(out, (i1 + s, t + k2), p)
    return {key: p for key, p in out.items() if not p.is_zero()}


def leading_term_product(m1, m2, algebra: AlgebraParams):
    """Top-bidegree term of (x^a p y^b)(x^c pt y^d) as a monomial triple.

    Returns (a + c, q^(c*b) * sigma^c(p) * sigma^b(pt), b + d); the full
    product minus this term has strictly smaller lexicographic bidegree.
    Requires q != 0 and deg f >= 1 so the coefficient survives.
    """
    a, p, b = m1
    c, pt, d = m2
    if algebra.q.is_zero() or algebra.f.degree() < 1:
        raise DegenerateAlgebra("leading-term formula needs q != 0 and deg f >= 1")
    if p.is_zero() or pt.is_zero():
        raise ZeroPolynomial("monomials must have nonzero coefficient polynomials")
    poly = algebra.q ** (c * b) * sigma_pow(algebra.f, c, p) * sigma_pow(algebra.f, b, pt)
    return (a + c, poly, b + d)
