"""Structural analysis of a presentation.

Domain and Noetherian predicates, the ascending ideal-chain witness for
non-Noetherianity, the sigma-q linear equation and the center, and the
growth-dimension experiment for the generating subspace span{1, x, y, h}.
"""

from __future__ import annotations

import enum
import math
from math import gcd, lcm
from typing import NamedTuple, Optional

from .algebra import AlgebraParams, Element, _times
from .capacity import check_search
from .errors import (
    InternalError,
    InvalidArgument,
    NoFixedPointInField,
    PreconditionViolated,
    WrongDegree,
)
from .fields import Scalar, root_of_unity_order
from .poly import Poly, poly_roots


class DomainReport(NamedTuple):
    verdict: bool
    reason: str

    def __bool__(self) -> bool:
        return self.verdict


def is_domain(algebra: AlgebraParams) -> DomainReport:
    """The algebra is a domain exactly when q != 0 and deg f >= 1."""
    if algebra.is_domain:
        return DomainReport(True, "q != 0 and deg f >= 1")
    reasons = []
    if algebra.q.is_zero():
        reasons.append("q = 0")
    if algebra.f.degree() < 1:
        reasons.append("deg f < 1")
    return DomainReport(False, " and ".join(reasons))


class NoetherianReason(enum.Enum):
    DEG_F_1_AND_Q_NONZERO = "deg f = 1 and q != 0"
    Q_ZERO = "q = 0"
    DEG_F_NOT_1 = "deg f != 1"


class StrictnessCheck(NamedTuple):
    """Evidence that h*y^(n+1) lies outside the n-th chain ideal."""

    n: int
    sigma_powers_divisible: bool
    h_not_divisible: bool

    @property
    def passed(self) -> bool:
        return self.sigma_powers_divisible and self.h_not_divisible


class WitnessChain(NamedTuple):
    """Auditable evidence for the strictly ascending chain of left ideals
    I_n = sum_{i<=n} H*h*y^i after shifting a fixed point of f to 0."""

    beta: Scalar
    depth: int
    checks: tuple[StrictnessCheck, ...]

    @property
    def verified(self) -> bool:
        return all(c.passed for c in self.checks)


class NoetherianReport(NamedTuple):
    verdict: bool
    reason: NoetherianReason
    witness: Optional[WitnessChain] = None


def noetherian_witness_check(algebra: AlgebraParams, depth: int) -> WitnessChain:
    """Build the ideal-chain witness for deg f >= 2 from the least fixed
    point beta of f in the ground field, by `Scalar.sort_key`.

    Shifting h by beta turns f into F = f(h + beta) - beta.  The paper's
    argument needs two facts, which hold by construction, so each
    StrictnessCheck records them as True: F(0) = f(beta) - beta = 0, so as
    p(F(h)) = p(0) mod F, sigma^k(h) is divisible by F for every k >= 1;
    and F does not divide h, as deg F = deg f >= 2 (a smaller deg f has
    raised WrongDegree).  So each inclusion I_n c I_{n+1} is strict.
    """
    f = algebra.f
    field = algebra.field
    if f.degree() < 2:
        raise WrongDegree("the witness construction needs deg f >= 2")
    if depth < 1:
        raise InvalidArgument("depth must be positive")
    check_search(depth, "witness depth")
    fixed_points = poly_roots(f - Poly.h(field))
    if not fixed_points:
        raise NoFixedPointInField(
            f"f - h has no root over {field}; a base change would be required"
        )
    beta = min(fixed_points, key=lambda s: s.sort_key())
    checks = tuple(StrictnessCheck(n, True, True) for n in range(depth + 1))
    return WitnessChain(beta=beta, depth=depth, checks=checks)


def is_noetherian(
    algebra: AlgebraParams, witness_depth: Optional[int] = 5
) -> NoetherianReport:
    """Noetherian exactly when deg f = 1 and q != 0.

    For deg f >= 2 with a ground-field fixed point of f, the report carries
    the ideal-chain witness of depth `witness_depth` as evidence; None
    builds no witness.  The verdict itself comes from the closed criterion.
    """
    deg_f = algebra.f.degree()
    if deg_f == 1 and not algebra.q.is_zero():
        return NoetherianReport(True, NoetherianReason.DEG_F_1_AND_Q_NONZERO)
    if deg_f != 1:
        witness = None
        if deg_f >= 2 and witness_depth is not None:
            try:
                witness = noetherian_witness_check(algebra, witness_depth)
            except NoFixedPointInField:
                witness = None
        return NoetherianReport(False, NoetherianReason.DEG_F_NOT_1, witness)
    return NoetherianReport(False, NoetherianReason.Q_ZERO)


def solve_sigma_q(algebra: AlgebraParams) -> Optional[Poly]:
    """Solve sigma(a) - q*a = g for a in F[h], or return None.

    Requires deg f >= 2 and q != 0.  The degree of a is forced to
    deg g / deg f, and the coefficients are determined from the top down
    since the i-th unknown contributes a_i*(f^i - q*h^i) whose top degree
    i*deg f is unique.  The solution is unique for q != 1; for
    q = 1 it is unique up to an additive constant and the representative
    with a(0) = 0 is returned.  Once the residual is zero (q = 1) or
    constant (q != 1), sigma(a) - q*a = g holds by construction, so the
    closing check fails only on an internal error.
    """
    f, g, q = algebra.f, algebra.g, algebra.q
    field = algebra.field
    if f.degree() < 2 or q.is_zero():
        raise PreconditionViolated("needs deg f >= 2 and q != 0")
    if g.is_zero():
        return Poly.zero(field)
    deg_g, deg_f = g.degree(), f.degree()
    if deg_g % deg_f != 0:
        return None
    m = deg_g // deg_f
    h_poly = Poly.h(field)
    residual = g
    coeffs = [field.zero] * (m + 1)
    for i in range(m, 0, -1):
        ai = residual.coeff(i * deg_f) / f.lead() ** i
        coeffs[i] = ai
        if not ai.is_zero():
            residual = residual - ai * (f**i - q * h_poly**i)
    if q.is_one():
        if not residual.is_zero():
            return None
    else:
        if residual.degree() > 0:
            return None
        coeffs[0] = residual.coeff(0) / (field.one - q)
    a = Poly(coeffs, field)
    if a.compose(f) - q * a != g:
        raise InternalError("internal error: a failed the check sigma(a) - q*a = g")
    return a


class CenterKind(enum.Enum):
    SCALARS_ONLY = "scalars_only"
    POLYNOMIAL_IN_Z_ELL = "polynomial_in_z_ell"
    UNDETERMINED = "undetermined"


class CenterDescription(NamedTuple):
    kind: CenterKind
    ell: Optional[int] = None
    a: Optional[Poly] = None
    z: Optional[Element] = None
    reason: str = ""


def is_central(z: Element) -> bool:
    """True when z commutes with x, y and h under exact multiplication."""
    for gen in z.algebra.generators():
        if z * gen != gen * z:
            return False
    return True


def center_describe(algebra: AlgebraParams) -> CenterDescription:
    """Describe the center for deg f >= 2 and q != 0.

    If q is not a root of unity the center is the scalars.  If q has order
    ell and sigma(a) - q*a = g is solvable, the center is generated by
    Z^ell with Z = q*(x*y - a), certified by Z*x = q*x*Z, Z*y = q^-1*y*Z
    and Z*h = h*Z, which make Z^ell central since q^ell = 1.
    If the equation is unsolvable the description is left undetermined.
    """
    if algebra.f.degree() < 2 or algebra.q.is_zero():
        raise PreconditionViolated("center description needs deg f >= 2 and q != 0")
    ell = root_of_unity_order(algebra.q)
    if ell is None:
        return CenterDescription(CenterKind.SCALARS_ONLY)
    a = solve_sigma_q(algebra)
    if a is None:
        return CenterDescription(
            CenterKind.UNDETERMINED,
            ell=ell,
            reason="q has finite order but sigma(a) - q*a = g has no polynomial solution",
        )
    q = algebra.q
    x, y, h = algebra.generators()
    z = q * (x * y - Element.from_poly(algebra, a))
    if not (z * x == q * (x * z) and z * y == q.inv() * (y * z) and z * h == h * z):
        raise InternalError("internal error: Z failed the twisted commutation check")
    return CenterDescription(CenterKind.POLYNOMIAL_IN_Z_ELL, ell=ell, a=a, z=z)


def centralizer_of_h_contains(element: Element) -> bool:
    """Membership in the centralizer of h, for deg f >= 2.

    In this regime the centralizer is exactly the diagonal-support part
    sum_i x^i F[h] y^i, so the test reads off the support.
    """
    if element.algebra.f.degree() < 2:
        raise PreconditionViolated("the diagonal characterization needs deg f >= 2")
    return all(i == k for (i, k) in element.terms)


class GrowthReport(NamedTuple):
    """Exact dimensions of V^n for V = span{1, x, y, h}."""

    dims: tuple[int, ...]

    def slopes(self) -> tuple:
        """Log-log slope between consecutive dimensions, None for n < 2."""
        out: list = [None, None]
        for n in range(2, len(self.dims)):
            out.append(
                math.log(self.dims[n] / self.dims[n - 1]) / math.log(n / (n - 1))
            )
        return tuple(out[: len(self.dims)])

    def to_csv(self) -> str:
        lines = ["n,dim,slope"]
        slopes = self.slopes()
        for n, dim in enumerate(self.dims):
            slope = "" if slopes[n] is None else f"{slopes[n]:.6f}"
            lines.append(f"{n},{dim},{slope}")
        return "\n".join(lines) + "\n"


def _integer_row(terms: dict, p: Optional[int]) -> dict:
    """Coordinates of a terms map on the normal monomials x^i h^j y^k, times
    the lcm of its denominators over Q; over F_p (p given) they are the
    residues themselves.

    A monomial is keyed by its rank among the triples (d, i, j), d = i+j+k:
    d(d+1)(2d+1)/6 counts the pairs 0 <= i, j <= e for e < d, and
    i(d+1) + j orders those of degree d.  The rank rises strictly with
    (i+j+k, i, j, k), since k = d - i - j, so max() of a row is its pivot;
    and one int needs no field width, whatever the degree cap.
    Along one polynomial the rank is stepped, not evaluated: from j to j+1
    it rises by step = (d+1)^2 + i + 1, and step by inc = 2d + 3, which
    rises by 2, so each coefficient costs three additions.
    """
    den = 1 if p is not None else lcm(*(t._den for t in terms.values()))
    row = {}
    for (i, k), t in terms.items():
        nums = t._nums
        if t._den != den:
            scale = den // t._den
            nums = [v * scale for v in nums]
        d = i + k
        key = d * (d + 1) * (2 * d + 1) // 6 + i * (d + 1)  # rank at j = 0
        step, inc = (d + 1) ** 2 + i + 1, 2 * d + 3
        for v in nums:
            if v:
                row[key] = v
            key += step
            step += inc
            inc += 2
    return row


def _reduce_insert(echelon: dict, row: dict, p: Optional[int]) -> bool:
    """Reduce row against echelon; store a nonzero remainder unscaled as a pivot; True if stored.

    Takes ownership of `row`: reduces it in place, or stores it as given
    when no step touched it.  Stored pivots are only read.
    """
    reduced = False
    while row:
        top = max(row)
        pivot = echelon.get(top)
        if pivot is None:
            # a copy drops the free slots of every entry the reduction deleted
            echelon[top] = dict(row) if reduced else row
            return True
        reduced = True
        if p is None:
            # row <- a*row - c*pivot cancels the pivot monomial; a > 0, so no pass negates row
            a, c = pivot[top], row[top]
            if a != 1:
                g = gcd(a, c) if a > 0 else -gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    for m in row:
                        row[m] *= a
        else:
            # row <- row - c*pivot with c = row[top] / pivot[top]
            c = row[top] * pow(pivot[top], -1, p) % p
        for m, v in pivot.items():
            nv = row.get(m, 0) - c * v
            if p is not None:
                nv %= p
            if nv:
                row[m] = nv
            else:  # c*v != 0, so nv == 0 only where row had m
                del row[m]
        if top in row:  # a faulty step would otherwise loop forever
            raise InternalError("internal error: an echelon step kept its pivot monomial")
    return False


def gk_dimension_sequence(algebra: AlgebraParams, max_n: int) -> GrowthReport:
    """dim V^n for n = 0..max_n, V = span{1, x, y, h}, computed exactly.

    Maintains an echelonized basis in coordinates indexed by the normal
    monomials x^i h^j y^k, ordered by (i+j+k, then lex (i, j, k)) with the
    largest monomial as pivot; `_integer_row` keys each by one int that
    keeps this order.  Each step right-multiplies the previous step's novel
    products by each generator in `_times`, reduces the integer coordinate
    row against the echelon and inserts what is new, so dims are
    deterministic.  One sigma memo p -> sigma(p) serves the whole run: a
    frontier element and its products hold the same polynomials, and the
    steps of sigma^k(h) are kept there too, so each distinct polynomial is
    composed with f once.
    Each generator keeps its rows y^k1 * generator for the whole run too, so
    a run straightens at most 3 * (max_n + 1) of them.
    Rows are keyed by ranks stepped along each polynomial and scaled
    freely, which leaves their span unchanged.  A row is stored as the
    reduction left it over either field, and one that no step touched is
    stored without a copy.  Only the reduction step differs: over Q it
    cross-multiplies in place, over F_p it scales by the inverse of the
    pivot's entry.
    """
    if max_n < 0:
        raise InvalidArgument("max_n must be nonnegative")
    check_search(max_n, "growth horizon")
    field = algebra.field
    p = field.p
    echelon: dict[int, dict] = {}

    one = Poly.one(field)
    unit = {(0, 0): one}
    _reduce_insert(echelon, _integer_row(unit, p), p)
    dims = [len(echelon)]
    frontier = [unit]
    gens = [(g, {}) for g in ({(1, 0): one}, {(0, 1): one}, {(0, 0): Poly.h(field)})]
    images: dict = {}
    for _ in range(max_n):
        new_frontier = []
        for terms in frontier:
            for right, rows in gens:
                candidate = _times(algebra, terms, right, images, rows)
                if _reduce_insert(echelon, _integer_row(candidate, p), p):
                    new_frontier.append(candidate)
        dims.append(len(echelon))
        frontier = new_frontier
    return GrowthReport(tuple(dims))
