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
experiment both call; each keeps one memo p -> sigma(p), per product or per
run, so a polynomial met again is not composed with f again.  `_times`
multiplies by distributivity: y^k times the right operand is straightened
once per distinct k, with right terms that meet on one monomial summed, and
each left term then multiplies into that row.  A product builds its rows
afresh; the growth experiment keeps one set per generator x, y, h for the
whole run, since its right operand is always one of the three.  The
normal forms of y^b x^c that `_times` reads come from the same loop and the
same memo: y x^c in closed form, each sigma^j(g) one step on from the last,
and y^b x^c as y times y^{b-1} x^c.  Every substitution of f goes through
`poly._sigma`.
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
from .poly import NEG_INF, Poly, _pow_str, _power, _sigma, _terms_str, sigma_pow

DEG_BOTTOM = (NEG_INF, NEG_INF)

MAX_EXPONENT = 2**31


class AlgebraParams:
    """One presentation (q, f, g) over a fixed ground field.

    No constraints are placed on q, f, g at construction; degenerate
    presentations (q = 0, constant f) are legal and the predicates report
    their consequences.
    """

    __slots__ = ("field", "q", "f", "g", "_yx_memo")

    def __init__(self, field: FieldSpec, q, f: Poly, g: Poly):
        self.field = field
        self.q = field.scalar(q)
        if f.field != field or g.field != field:
            raise FieldMismatch("f and g must live over the declared field")
        self.f = f
        self.g = g
        # pure cache: y^b x^c normal forms
        self._yx_memo: dict[tuple[int, int], dict] = {}

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
            cur = out.get(key)
            out[key] = p if cur is None else cur + p
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
            # sigma^s(p) recurs across straightening terms: one sigma memo and
            # one set of rows per product
            return Element(self.algebra, _times(self.algebra, self.terms, other.terms, {}, {}))
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
        return _power(self, self.algebra.one(), exponent)

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


def _yx_terms(algebra: AlgebraParams, b: int, c: int, images: dict) -> dict:
    """Terms map of the normal form of y^b x^c (shared memo; treat as frozen).

    y x^n = q^n x^n y + x^{n-1} Gamma_n for n = 1..c, where Gamma_n =
    q Gamma_{n-1} + sigma^{n-1}(g) takes Gamma_{n-1} from the memoized
    y x^{n-1}, and sigma^{n-1}(g) steps on from the last one computed
    through the sigma memo `images`, so a deep c is not quadratic; then
    y^b x^c = y * (y^{b-1} x^c) for b = 2.. through `_times`.  Both loops
    fill the memo upwards and skip what it already holds.
    """
    memo = algebra._yx_memo
    hit = memo.get((b, c))
    if hit is not None:
        return hit
    one = Poly.one(algebra.field)
    if b == 0 or c == 0:
        memo[b, c] = {(c, b): one}  # x^c or y^b
        return memo[b, c]
    q, g, j = algebra.q, algebra.g, 0  # g holds sigma^j of the algebra's g
    for n in range(1, c + 1):
        if (1, n) not in memo:
            g, j = _sigma(algebra.f, images, g, n - 1 - j), n - 1
            previous = memo.get((1, n - 1), {}).get((n - 2, 0))
            gamma = g if previous is None else q * previous + g
            terms = {(n, 1): q**n * one, (n - 1, 0): gamma}
            memo[1, n] = {key: p for key, p in terms.items() if not p.is_zero()}
    for bb in range(2, b + 1):
        if (bb, c) not in memo:
            memo[bb, c] = _times(algebra, {(0, 1): one}, memo[bb - 1, c], images, {})
    return memo[b, c]


def yx_expand(b: int, c: int, algebra: AlgebraParams) -> Element:
    """Normal form of y^b x^c.

    For b = 1 this is q^c x^c y + x^{c-1} Gamma_c(h); higher b multiply y
    into y^{b-1} x^c.  Agrees with the rewriting oracle on the same word.
    """
    if b < 0 or c < 0:
        raise InvalidArgument("exponents must be nonnegative")
    return Element(algebra, dict(_yx_terms(algebra, b, c, {})))


def _times(
    algebra: AlgebraParams, terms: dict, right_terms: dict, images: dict, rows: dict
) -> dict:
    """Terms map of terms * right_terms, nonzero polynomials only.

    By distributivity, x^i1 p1 y^k1 * right = x^i1 p1 (y^k1 * right).  The
    normal form R of y^k1 * right, sum of x^s w sigma^t(p2) y^(t+k2) over
    the right terms x^i2 p2 y^k2 and the terms x^s w y^t of y^k1 x^i2, is
    built once per distinct k1 per call, or per run when the caller keeps
    `rows`, with right terms that land on one key summed first.
    `rows` maps k1 to R and must only ever meet one right operand; its
    rows are read-only once built.  Each left term then costs one product
    sigma^s(p1) * r per term x^s r y^u of R.
    `images` maps a polynomial's (_nums, _den) to sigma of it, and `_sigma`
    fills it as it steps.  Both operands are served from it, so a caller
    that keeps one memo across many products composes each distinct
    polynomial once.  Both sums are written out, as in `Element.__add__`:
    in a gk run, where every left term has its own k1, a helper call costs
    ~1% more opcodes.
    """
    f = algebra.f
    out: dict[tuple[int, int], Poly] = {}
    for (i1, k1), p1 in terms.items():
        row = rows.get(k1)
        if row is None:
            row = rows[k1] = {}
            for (i2, k2), p2 in right_terms.items():
                for (s, t), w in _yx_terms(algebra, k1, i2, images).items():
                    key, p = (s, t + k2), w * _sigma(f, images, p2, t)
                    cur = row.get(key)
                    row[key] = p if cur is None else cur + p
        for (s, u), r in row.items():
            p = (_sigma(f, images, p1, s) if s else p1) * r
            key = (i1 + s, u)
            cur = out.get(key)
            if cur is not None:
                p = cur + p
            if p._nums:
                out[key] = p
            else:
                out.pop(key, None)
    return out


def leading_term_product(m1, m2, algebra: AlgebraParams):
    """Top-bidegree term of (x^a p y^b)(x^c pt y^d) as a monomial triple.

    Returns (a + c, q^(c*b) * sigma^c(p) * sigma^b(pt), b + d); the full
    product minus this term has strictly smaller lexicographic bidegree.
    Requires q != 0 and deg f >= 1 so the coefficient survives.
    """
    a, p, b = m1
    c, pt, d = m2
    if not algebra.is_domain:
        raise DegenerateAlgebra("leading-term formula needs q != 0 and deg f >= 1")
    if p.is_zero() or pt.is_zero():
        raise ZeroPolynomial("monomials must have nonzero coefficient polynomials")
    poly = algebra.q ** (c * b) * sigma_pow(algebra.f, c, p) * sigma_pow(algebra.f, b, pt)
    return (a + c, poly, b + d)
