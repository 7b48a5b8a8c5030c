"""Parameter transformations, the isomorphism decision procedure, the
automorphism-group computation and the (generalized) down-up conversions.

For q != 0 and deg f >= 2 every isomorphism is a composite of three moves:
a shift of h, a rescaling of h, and a rescaling of g.  Together they form
one witness (u, v, c): the affine map psi(h) = u*h + v and the rescaling c,
with f' = psi o f o psi^{-1} and g' = c * (g o psi^{-1}).  `apply_witness`
is the one place a witness acts, and the three transforms are named
witnesses: (1, alpha, 1), (lam, 0, 1) and (1, 0, lam*mu).  `_witnesses`
lists every witness from one presentation to another, each checked on the
defining relations by `_relations_hold`: the decider returns the first,
and the automorphisms are the witnesses from a presentation to itself.
"""

from __future__ import annotations

import enum
from math import comb
from typing import NamedTuple

from .algebra import AlgebraParams, Element
from .errors import (
    FieldMismatch,
    InvalidArgument,
    NonSplitQuadratic,
    PreconditionViolated,
    UnsupportedRegime,
    WrongDegree,
    ZeroScale,
)
from .fields import Scalar, nth_roots
from .poly import Poly, _pull_back, affine_conjugate, poly_roots


def transform_type_I(algebra: AlgebraParams, alpha) -> AlgebraParams:
    """Shift the h coordinate: (q, f, g) -> (q, f(h-alpha)+alpha, g(h-alpha))."""
    return apply_witness(algebra, IsoWitness(1, alpha, 1))


def transform_type_II(algebra: AlgebraParams, lam) -> AlgebraParams:
    """Rescale the h coordinate: (q, f, g) -> (q, lam*f(h/lam), g(h/lam))."""
    return apply_witness(algebra, IsoWitness(lam, 0, 1))


def transform_type_III(algebra: AlgebraParams, lam, mu) -> AlgebraParams:
    """Rescale the commutator target: (q, f, g) -> (q, f, lam*mu*g)."""
    lam_mu = algebra.field.scalar(lam) * algebra.field.scalar(mu)
    return apply_witness(algebra, IsoWitness(1, 0, lam_mu))


class IsoWitness(NamedTuple):
    """Affine map psi(h) = u*h + v plus the g-rescaling c realizing an
    isomorphism: f' = psi o f o psi^{-1}, g' = c*(g o psi^{-1}), q' = q.

    The decomposition into the three elementary moves is alpha = v/u
    (shift), lambda = u (rescale h), lambda*mu = c (rescale g).
    """

    u: Scalar
    v: Scalar
    c: Scalar

    @property
    def alpha(self) -> Scalar:
        return self.v / self.u

    @property
    def lam(self) -> Scalar:
        return self.u

    @property
    def lam_mu(self) -> Scalar:
        return self.c

    def to_dict(self) -> dict:
        return {
            "u": str(self.u),
            "v": str(self.v),
            "c": str(self.c),
            "decomposition": {
                "alpha": str(self.alpha),
                "lambda": str(self.lam),
                "lambda_mu": str(self.lam_mu),
            },
        }


def apply_witness(algebra: AlgebraParams, witness: IsoWitness) -> AlgebraParams:
    """Push a presentation through a witness; lands on the isomorphic target.
    Raises ZeroScale when u or c is zero, as the map is then no isomorphism.
    """
    field = algebra.field
    u, v, c = (field.scalar(s) for s in witness)
    if u.is_zero() or c.is_zero():
        raise ZeroScale("a witness needs nonzero u and c")
    return AlgebraParams(
        field, algebra.q, affine_conjugate(algebra.f, u, v), c * _pull_back(algebra.g, u, v)
    )


def _affine_maps(f: Poly, f2: Poly):
    """Candidates (u, v) for f2(u*h + v) = u*f(h) + v, in ascending (u, v)
    order; deg f = deg f2 = n >= 2.  Every solution is among them.

    The leading coefficients force u^(n-1) = lead(f)/lead(f2).  For each u
    the h^k coefficient of f2(u*h + v) - u*f(h) - v is the polynomial
    C_k(v) = u^k * sum_{i>=k} binom(i, k)*f2_i*v^(i-k) - u*f_k - [k = 0]*v.
    Walking k = n-1, ..., 0, the first C_k not identically zero gives the
    candidates for v: its roots, or none when it is constant.  C_0 has
    degree n, so the walk ends; when n != 0 in the field C_(n-1) is already
    linear.  `_witnesses` checks each candidate on the defining relations.
    """
    field = f.field
    n = f.degree()
    for u in sorted(nth_roots(n - 1, f.lead() / f2.lead()), key=Scalar.sort_key):
        for k in range(n - 1, -1, -1):
            c_k = Poly(
                [u**k * comb(i, k) * f2.coeff(i) for i in range(k, n + 1)], field
            ) - Poly([u * f.coeff(k), int(k == 0)], field)
            if not c_k.is_zero():
                break
        if c_k.degree() < 1:  # a nonzero constant: no v for this u
            continue
        for v in sorted(poly_roots(c_k), key=Scalar.sort_key):
            yield u, v


def _relation_residues(a: AlgebraParams, b: AlgebraParams, w: IsoWitness):
    """The relations yx - q*xy - g(h), hx - x*f(h), yh - f(h)*y of a, one at
    a time, pushed into b by h -> (h' - v)/u, x -> x', y -> y'/c.

    In b they are (q' - q)*x'y'/c + E, x'*D and D*y'/c, with
    E = g'/c - g o psi^{-1} and D = psi^{-1} o f' - f o psi^{-1}: all three
    vanish exactly when w is a witness from a to b.  The g relation comes
    first: when every psi of `_affine_maps` fixes f, as for f = h^5 over
    F_5, it is the only one that fails, so the f relations are built only
    for candidates that pass it.
    """
    u, v, c = w
    inv = Poly([-v / u, u.inv()], b.field)
    x, y = b.x(), c.inv() * b.y()
    yield y * x - a.q * (x * y) - Element.from_poly(b, a.g.compose(inv))
    h = Element.from_poly(b, inv)
    f_h = Element.from_poly(b, a.f.compose(inv))
    yield h * x - x * f_h
    yield y * h - f_h * y


def _relations_hold(a: AlgebraParams, b: AlgebraParams, w: IsoWitness) -> bool:
    """True when each relation of `_relation_residues` vanishes in b."""
    return not any(r.terms for r in _relation_residues(a, b, w))


def _witnesses(a: AlgebraParams, b: AlgebraParams):
    """Every IsoWitness from a to b in ascending (u, v) order, for
    presentations with the same q, deg f >= 2 and deg g.

    Each psi(h) = u*h + v from `_affine_maps` fixes c by the leading
    coefficients, c = lead(g')*u^(deg g)/lead(g) (1 when g = 0), and is kept
    when `_relations_hold` passes.
    """
    for u, v in _affine_maps(a.f, b.f):
        c = a.field.one if a.g.is_zero() else b.g.lead() * u ** a.g.degree() / a.g.lead()
        if _relations_hold(a, b, IsoWitness(u, v, c)):
            yield IsoWitness(u, v, c)


def is_isomorphic(a: AlgebraParams, b: AlgebraParams):
    """Decide isomorphism for q != 0 and deg f >= 2; returns an IsoWitness
    verified on the defining relations, or None.

    q, deg f and deg g are isomorphism invariants in this regime, so
    mismatches short-circuit; otherwise the witness is the first of
    `_witnesses(a, b)`, which has passed `_relations_hold`.
    """
    if a.field != b.field:
        raise FieldMismatch("presentations over different fields")
    if a.f.degree() < 2 or a.q.is_zero():
        raise UnsupportedRegime(
            "the decision procedure covers q != 0 and deg f >= 2 only"
        )
    if a.q != b.q or b.f.degree() != a.f.degree() or b.g.degree() != a.g.degree():
        return None
    return next(_witnesses(a, b), None)


class AutRegime(enum.Enum):
    G_NONZERO = "g_nonzero"
    G_ZERO = "g_zero"


class AutGroupDescription(NamedTuple):
    """Automorphism group of a presentation with q != 0 and deg f >= 2.

    The torus factor is F* (g != 0, the maps x -> l*x, y -> y/l) or F* x F*
    (g = 0) and always commutes with everything; the finite part collects
    the affine maps h -> a*h + b fixing the presentation, closed under
    (a, b) o (a', b') = (a*a', a*b' + b).
    """

    torus_rank: int
    finite_part: tuple
    abelian: bool
    regime: AutRegime
    char_caveat: bool

    @staticmethod
    def compose(p1, p2):
        a1, b1 = p1
        a2, b2 = p2
        return (a1 * a2, a1 * b2 + b1)


def automorphism_group(algebra: AlgebraParams) -> AutGroupDescription:
    """Compute the automorphism group for deg f >= 2 and q != 0.

    The finite part is the (u, v) of every witness from the algebra to
    itself (`_witnesses`, which checks the relations), in every
    characteristic; its c is forced to u^(deg g): g(u*h + v) = u^(deg g)*g.
    For char = 0 or char > deg f it is cyclic of order dividing deg f - 1;
    for 0 < char <= deg f (`char_caveat`) it may be non-abelian.
    """
    n = algebra.f.degree()
    if n < 2 or algebra.q.is_zero():
        raise PreconditionViolated(
            "automorphism description needs deg f >= 2 and q != 0"
        )
    regime = AutRegime.G_ZERO if algebra.g.is_zero() else AutRegime.G_NONZERO
    finite = [(w.u, w.v) for w in _witnesses(algebra, algebra)]
    abelian = all(
        AutGroupDescription.compose(p1, p2) == AutGroupDescription.compose(p2, p1)
        for idx, p1 in enumerate(finite)
        for p2 in finite[idx + 1 :]
    )
    return AutGroupDescription(
        torus_rank=1 if regime is AutRegime.G_NONZERO else 2,
        finite_part=tuple(finite),
        abelian=abelian,
        regime=regime,
        char_caveat=0 < algebra.char <= n,
    )


def automorphism_preserves_relations(algebra: AlgebraParams, pair) -> bool:
    """True when the pair (u, v) with c = u^(deg g), or c = 1 when g = 0, is
    a witness from the algebra to itself: `_relations_hold` with a = b."""
    field = algebra.field
    u, v = (field.scalar(s) for s in pair)
    c = field.one if algebra.g.is_zero() else u ** algebra.g.degree()
    return _relations_hold(algebra, algebra, IsoWitness(u, v, c))


class GduaPresentation(NamedTuple):
    """Generalized down-up presentation L(v, r, s, gamma)."""

    v: Poly
    r: Scalar
    s: Scalar
    gamma: Scalar


def downup_candidates(alpha: Scalar, beta: Scalar, gamma: Scalar):
    """All presentations matching the down-up parameters (alpha, beta, gamma).

    Requires h^2 - alpha*h - beta to split over the field with roots r, s;
    each ordering yields the presentation (q, f, g) = (s, r*h + gamma, h).
    Distinct roots give both orderings, ascending first.
    """
    field = alpha.field
    if beta.field != field or gamma.field != field:
        raise FieldMismatch("down-up parameters over different fields")
    quadratic = Poly([-beta, -alpha, field.one], field)
    roots = sorted(poly_roots(quadratic), key=lambda s: s.sort_key())
    if not roots:
        raise NonSplitQuadratic(
            f"h^2 - ({alpha})*h - ({beta}) has no roots over {field}"
        )
    if len(roots) == 1:
        pairs = [(roots[0], roots[0])]
    else:
        pairs = [(roots[0], roots[1]), (roots[1], roots[0])]
    out = []
    for r, s in pairs:
        f = Poly([gamma, r], field)
        out.append((r, s, AlgebraParams(field, s, f, Poly.h(field))))
    return out


def from_downup(
    alpha: Scalar, beta: Scalar, gamma: Scalar, choice: int = 0
) -> AlgebraParams:
    """Convert a down-up presentation; choice picks the root ordering."""
    candidates = downup_candidates(alpha, beta, gamma)
    if not 0 <= choice < len(candidates):
        raise InvalidArgument(
            f"choice {choice} out of range for {len(candidates)} root ordering(s)"
        )
    return candidates[choice][2]


def to_gdua(algebra: AlgebraParams) -> GduaPresentation:
    """(q, a*h + b, g) -> L(-g, a, q, -b); only defined for deg f <= 1."""
    if algebra.f.degree() > 1:
        raise WrongDegree("no generalized down-up form exists when deg f >= 2")
    return GduaPresentation(
        v=-algebra.g,
        r=algebra.f.coeff(1),
        s=algebra.q,
        gamma=-algebra.f.coeff(0),
    )


def from_gdua(presentation: GduaPresentation) -> AlgebraParams:
    """L(v, r, s, gamma) -> (q, f, g) = (s, r*h - gamma, -v)."""
    field = presentation.v.field
    if presentation.r.field != field or presentation.s.field != field:
        raise FieldMismatch("presentation parameters over different fields")
    f = Poly([-presentation.gamma, presentation.r], field)
    return AlgebraParams(field, presentation.s, f, -presentation.v)
