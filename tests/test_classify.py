from fractions import Fraction

import pytest

from qgha import (
    AlgebraParams,
    AutRegime,
    Element,
    FieldSpec,
    GduaPresentation,
    IsoWitness,
    Poly,
    apply_witness,
    automorphism_group,
    automorphism_preserves_relations,
    downup_candidates,
    from_downup,
    from_gdua,
    is_isomorphic,
    to_gdua,
    transform_type_I,
    transform_type_II,
    transform_type_III,
)
from qgha.classify import _affine_maps, _relation_residues, _relations_hold, _witnesses
from qgha.errors import (
    DivisionByZero,
    FieldMismatch,
    NonSplitQuadratic,
    PreconditionViolated,
    UnsupportedRegime,
    WrongDegree,
    ZeroScale,
)

from conftest import QQ, F7, algebra, random_poly, random_scalar, rng_for

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_transform_type_I():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])  # f = h^2, g = h
    B = transform_type_I(A, QQ.one)
    assert B.f == Poly([2, -2, 1], QQ)  # (h-1)^2 + 1 = h^2 - 2h + 2
    assert B.g == Poly([-1, 1], QQ)  # h - 1
    assert transform_type_I(A, QQ.zero) == A
    assert transform_type_I(transform_type_I(A, QQ.one), QQ.scalar(-1)) == A


def test_transform_type_II():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])
    B = transform_type_II(A, QQ.scalar(2))
    assert B.f == Poly([0, 0, Fraction(1, 2)], QQ)  # 2*(h/2)^2 = h^2/2
    assert transform_type_II(A, QQ.one) == A
    linear = algebra(QQ, 1, [0, 1], [0, 1])
    assert transform_type_II(linear, QQ.scalar(5)).f == Poly.h(QQ)
    with pytest.raises(ZeroScale):
        transform_type_II(A, QQ.zero)


def test_apply_witness_rejects_zero_scales():
    # u = 0 used to fail in -v/u, and c = 0 returned g = 0: neither is an isomorphism
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    with pytest.raises(ZeroScale):
        apply_witness(A, IsoWitness(QQ.zero, QQ.one, QQ.one))
    with pytest.raises(ZeroScale):
        apply_witness(A, IsoWitness(QQ.one, QQ.zero, QQ.zero))


def test_transform_type_III():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])
    B = transform_type_III(A, QQ.scalar(2), QQ.scalar(3))
    assert B.g == Poly([0, 6], QQ)
    assert B.f == A.f
    assert transform_type_III(A, QQ.scalar(2), QQ.scalar(Fraction(1, 2))) == A
    zero_g = algebra(QQ, 1, [0, 0, 1], [])
    assert transform_type_III(zero_g, QQ.scalar(2), QQ.scalar(3)).g.is_zero()
    with pytest.raises(ZeroScale):
        transform_type_III(A, QQ.zero, QQ.one)


def test_iso_type_I_round_trip():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    B = transform_type_I(A, QQ.one)
    witness = is_isomorphic(A, B)
    assert witness is not None
    # psi(h) = h + 1 conjugates f onto f' and the decomposition recovers alpha = 1
    assert (witness.u, witness.v, witness.c) == (QQ.one, QQ.one, QQ.one)
    assert witness.alpha == QQ.one
    assert apply_witness(A, witness) == B


def test_iso_invariants_block():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    assert is_isomorphic(A, algebra(QQ, 3, [0, 0, 1], [0, 1])) is None  # q differs
    assert is_isomorphic(A, algebra(QQ, 2, [0, 0, 0, 1], [0, 1])) is None  # deg f
    assert is_isomorphic(A, algebra(QQ, 2, [0, 0, 1], [0, 0, 1])) is None  # deg g
    assert is_isomorphic(A, algebra(QQ, 2, [0, 0, 1], [])) is None  # g = 0 vs g != 0


def test_iso_type_III_witness():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    B = algebra(QQ, 2, [0, 0, 1], [0, 5])
    witness = is_isomorphic(A, B)
    assert witness is not None
    assert (witness.u, witness.v, witness.c) == (QQ.one, QQ.zero, QQ.scalar(5))


def test_iso_regime_restriction():
    linear = algebra(QQ, 2, [0, 1], [0, 1])
    with pytest.raises(UnsupportedRegime):
        is_isomorphic(linear, linear)
    qzero = algebra(QQ, 0, [0, 0, 1], [0, 1])
    with pytest.raises(UnsupportedRegime):
        is_isomorphic(qzero, qzero)
    with pytest.raises(FieldMismatch):
        is_isomorphic(
            algebra(QQ, 2, [0, 0, 1], [0, 1]), algebra(F7, 2, [0, 0, 1], [0, 1])
        )


def _random_transform(rng, A):
    kind = rng.choice("I II III".split())
    nonzero = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)]
    if kind == "I":
        return transform_type_I(A, QQ.scalar(rng.choice([0, 1, -1, 2, Fraction(1, 2)])))
    if kind == "II":
        return transform_type_II(A, QQ.scalar(rng.choice(nonzero)))
    return transform_type_III(
        A, QQ.scalar(rng.choice(nonzero)), QQ.scalar(rng.choice(nonzero))
    )


def test_iso_orbit_closure_random():
    rng = rng_for("orbit")
    A = algebra(QQ, 2, [0, 1, 1], [1, 0, 0, 1])  # f = h^2 + h, g = h^3 + 1
    for _ in range(20):
        B = A
        for _ in range(rng.randint(1, 5)):
            B = _random_transform(rng, B)
        witness = is_isomorphic(A, B)
        assert witness is not None
        assert apply_witness(A, witness) == B
        # q, deg f, deg g invariant under the witness
        assert B.q == A.q
        assert B.f.degree() == A.f.degree()
        assert B.g.degree() == A.g.degree()


def test_iso_cubic_leading_root_search():
    # deg f = 3 makes u a square root: u^2 = lead(f)/lead(f') has two
    # solutions and the decider returns the ascending-order first (-2),
    # compensating with c = -1 on g
    A = algebra(QQ, 2, [0, 0, 0, 1], [0, 1])
    B = transform_type_II(A, QQ.scalar(2))
    witness = is_isomorphic(A, B)
    assert witness is not None
    assert witness.u == QQ.scalar(-2)
    assert witness.c == QQ.scalar(-1)
    assert apply_witness(A, witness) == B


def test_iso_char_divides_degree_branch():
    # over F_3 with deg f = 3 the h^2 coefficient does not involve the shift,
    # so the shift comes from the roots of a lower coefficient
    A = AlgebraParams(F3, F3.scalar(2), Poly([0, 1, 0, 1], F3), Poly([0, 1], F3))
    B = transform_type_I(A, F3.one)
    witness = is_isomorphic(A, B)
    assert witness is not None
    assert apply_witness(A, witness) == B


def test_aut_trivial_finite_part():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    description = automorphism_group(A)
    assert description.torus_rank == 1
    assert description.regime is AutRegime.G_NONZERO
    assert not description.char_caveat
    assert description.finite_part == ((QQ.one, QQ.zero),)
    assert description.abelian


def test_aut_cyclic_order_two():
    A = algebra(QQ, 2, [0, 0, 0, 1], [0, 1])  # f = h^3, g = h
    description = automorphism_group(A)
    assert description.finite_part == (
        (QQ.scalar(-1), QQ.zero),
        (QQ.one, QQ.zero),
    )
    assert description.abelian
    for pair in description.finite_part:
        assert automorphism_preserves_relations(A, pair)


def test_aut_g_zero_torus_rank_two():
    A = algebra(QQ, 2, [0, 0, 0, 1], [])
    description = automorphism_group(A)
    assert description.regime is AutRegime.G_ZERO
    assert description.torus_rank == 2
    assert description.finite_part == (
        (QQ.scalar(-1), QQ.zero),
        (QQ.one, QQ.zero),
    )
    assert description.abelian
    for pair in description.finite_part:
        assert automorphism_preserves_relations(A, pair)


def test_aut_nonabelian_char_p():
    # char 3, f = h^3, g = h^3 - h: shifts h -> h+1 and scalings h -> 2h both fix
    # the presentation but do not commute
    A = AlgebraParams(F3, F3.scalar(2), Poly([0, 0, 0, 1], F3), Poly([0, 2, 0, 1], F3))
    assert A.g == Poly([0, -1, 0, 1], F3)  # h^3 - h
    description = automorphism_group(A)
    assert description.char_caveat
    finite = set(description.finite_part)
    shift = (F3.one, F3.one)
    scaling = (F3.scalar(2), F3.zero)
    assert shift in finite and scaling in finite
    compose = description.compose
    one_way = compose(shift, scaling)
    other_way = compose(scaling, shift)
    assert one_way != other_way
    assert {one_way, other_way} == {(F3.scalar(2), F3.one), (F3.scalar(2), F3.scalar(2))}
    assert not description.abelian
    for pair in description.finite_part:
        assert automorphism_preserves_relations(A, pair)


def test_aut_finite_part_group_axioms():
    for A in (
        algebra(QQ, 2, [0, 0, 0, 1], [0, 1]),
        AlgebraParams(F3, F3.scalar(2), Poly([0, 0, 0, 1], F3), Poly([0, 2, 0, 1], F3)),
        algebra(QQ, 3, [0, 0, 0, 0, 1], [0, 0, 1]),  # f = h^4, g = h^2
    ):
        description = automorphism_group(A)
        finite = set(description.finite_part)
        assert (A.field.one, A.field.zero) in finite
        for p1 in finite:
            for p2 in finite:
                assert description.compose(p1, p2) in finite


def test_aut_cyclic_order_divides_deg_f_minus_one():
    # f = h^5 + h: a^4 = 1 has roots {1, -1} over Q; both satisfy the g condition
    A = algebra(QQ, 2, [0, 1, 0, 0, 0, 1], [0, 1])
    description = automorphism_group(A)
    assert description.finite_part == (
        (QQ.scalar(-1), QQ.zero),
        (QQ.one, QQ.zero),
    )
    order = len(description.finite_part)
    assert (A.f.degree() - 1) % order == 0


def test_aut_precondition():
    with pytest.raises(PreconditionViolated):
        automorphism_group(algebra(QQ, 2, [0, 1], [0, 1]))
    with pytest.raises(PreconditionViolated):
        automorphism_group(algebra(QQ, 0, [0, 0, 1], [0, 1]))


def test_from_downup_double_root():
    # alpha = 2, beta = -1: h^2 - 2h + 1 = (h-1)^2, r = s = 1
    A = from_downup(QQ.scalar(2), QQ.scalar(-1), QQ.zero)
    assert A.q == QQ.one
    assert A.f == Poly.h(QQ)
    assert A.g == Poly.h(QQ)
    assert len(downup_candidates(QQ.scalar(2), QQ.scalar(-1), QQ.zero)) == 1


def test_from_downup_two_orderings():
    # alpha = 0, beta = 1: roots of h^2 - 1 are -1 and 1
    candidates = downup_candidates(QQ.zero, QQ.one, QQ.zero)
    assert len(candidates) == 2
    (r0, s0, A0), (r1, s1, A1) = candidates
    assert (r0, s0) == (QQ.scalar(-1), QQ.one)
    assert (r1, s1) == (QQ.one, QQ.scalar(-1))
    assert A0.q == QQ.one and A0.f == Poly([0, -1], QQ)  # H_1(-h, h)
    assert A1.q == QQ.scalar(-1) and A1.f == Poly.h(QQ)  # H_-1(h, h)
    assert from_downup(QQ.zero, QQ.one, QQ.zero, choice=1) == A1
    with pytest.raises(ValueError):
        from_downup(QQ.zero, QQ.one, QQ.zero, choice=2)


def test_from_downup_non_split():
    with pytest.raises(NonSplitQuadratic):
        from_downup(QQ.zero, QQ.scalar(-1), QQ.zero)  # h^2 + 1


def test_gdua_conversions():
    # L(h^2, 1, 1, 0) -> H_1(h, -h^2)
    presentation = GduaPresentation(
        Poly([0, 0, 1], QQ), QQ.one, QQ.one, QQ.zero
    )
    A = from_gdua(presentation)
    assert A.q == QQ.one
    assert A.f == Poly.h(QQ)
    assert A.g == Poly([0, 0, -1], QQ)
    # H_2(3h + 1, h) -> L(-h, 3, 2, -1)
    B = algebra(QQ, 2, [1, 3], [0, 1])
    back = to_gdua(B)
    assert back.v == Poly([0, -1], QQ)
    assert back.r == QQ.scalar(3)
    assert back.s == QQ.scalar(2)
    assert back.gamma == QQ.scalar(-1)
    with pytest.raises(WrongDegree):
        to_gdua(algebra(QQ, 1, [0, 0, 1], [0, 1]))


def test_gdua_round_trip():
    rng = rng_for("gdua")
    for _ in range(20):
        f = [rng.randint(-3, 3), rng.choice([1, 2, -1])]
        g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        A = algebra(QQ, rng.choice([0, 1, 2, -1]), f, g)
        assert from_gdua(to_gdua(A)) == A


def test_from_gdua_rejects_mixed_fields():
    v = Poly([0, 1], QQ)
    with pytest.raises(FieldMismatch):
        from_gdua(GduaPresentation(v, F7.one, QQ.one, QQ.zero))
    with pytest.raises(FieldMismatch):
        from_gdua(GduaPresentation(v, QQ.one, F7.one, QQ.zero))


def test_downup_field_mismatch():
    with pytest.raises(FieldMismatch):
        downup_candidates(QQ.one, F7.one, QQ.zero)


def test_aut_char_caveat_capacity(set_capacity):
    # the only exhaustive step left is a root search over F_p, bounded by p
    A = AlgebraParams(F3, F3.scalar(2), Poly([0, 0, 0, 1], F3), Poly([0, 2, 0, 1], F3))
    from qgha.errors import CapacityExceeded

    set_capacity(3)
    assert len(automorphism_group(A).finite_part) == 6
    set_capacity(2)
    with pytest.raises(CapacityExceeded, match="root search in F_3"):
        automorphism_group(A)


# -- the one witness check: the defining relations under the generator map --


def _nonzero(rng, field):
    s = random_scalar(rng, field)
    while s.is_zero():
        s = random_scalar(rng, field)
    return s


def _random_presentation(rng, field, q=None):
    f = random_poly(rng, field, max_deg=3)
    while f.degree() < 1:
        f = random_poly(rng, field, max_deg=3)
    q = _nonzero(rng, field) if q is None else q
    return AlgebraParams(field, q, f, random_poly(rng, field, max_deg=3))


def _random_witness(rng, field):
    return IsoWitness(_nonzero(rng, field), random_scalar(rng, field), _nonzero(rng, field))


def test_relations_hold_on_the_image_of_every_witness():
    A = algebra(QQ, 2, [0, 1, 1], [1, 0, 0, 1])  # f = h^2 + h, g = h^3 + 1
    two, three = QQ.scalar(2), QQ.scalar(3)
    assert _relations_hold(A, transform_type_I(A, two), IsoWitness(QQ.one, two, QQ.one))
    assert _relations_hold(A, transform_type_II(A, two), IsoWitness(two, QQ.zero, QQ.one))
    assert _relations_hold(
        A, transform_type_III(A, two, three), IsoWitness(QQ.one, QQ.zero, two * three)
    )
    rng = rng_for("relations-hold")
    for field in (QQ, F5, F7):
        for _ in range(8):
            A = _random_presentation(rng, field)
            w = _random_witness(rng, field)
            assert _relations_hold(A, apply_witness(A, w), w)


def test_relation_residues_are_the_parameter_discrepancies():
    # under h -> (h' - v)/u, x -> x', y -> y'/c the three relations of A
    # leave (q' - q)*x'y'/c + E, x'*D and D*y'/c in B, with
    # D = (f' - u*f(psi^-1) - v)/u and E = (g' - c*g(psi^-1))/c: zero
    # exactly when B is A's image and q' = q
    rng = rng_for("relation-residues")
    for field in (QQ, F5, F7):
        for _ in range(8):
            A = _random_presentation(rng, field)
            B = _random_presentation(rng, field, q=rng.choice([A.q, _nonzero(rng, field)]))
            w = _random_witness(rng, field)
            image = apply_witness(A, w)
            d = w.u.inv() * (B.f - image.f)
            e = w.c.inv() * (B.g - image.g)
            x_y = Poly.const((B.q - A.q) / w.c)
            assert tuple(_relation_residues(A, B, w)) == (
                Element.monomial(B, 1, x_y, 1) + Element.from_poly(B, e),
                Element.monomial(B, 1, d, 0),
                Element.monomial(B, 0, w.c.inv() * d, 1),
            )


def test_relations_fail_for_a_perturbed_witness():
    rng = rng_for("relations-perturbed")
    rejected = 0
    for field in (QQ, F5, F7):
        for _ in range(8):
            A = _random_presentation(rng, field)
            u, v, c = _random_witness(rng, field)
            B = apply_witness(A, IsoWitness(u, v, c))
            one = field.one
            for w in (IsoWitness(u + one, v, c), IsoWitness(u, v + one, c),
                      IsoWitness(u, v, c + one)):
                if w.u.is_zero() or w.c.is_zero():
                    continue
                # a perturbed witness may still map A onto B when A has
                # automorphisms; the relations then agree with the parameters
                holds = _relations_hold(A, B, w)
                assert holds == (apply_witness(A, w) == B)
                rejected += not holds
    assert rejected >= 40


def test_relations_fail_with_psi_in_place_of_its_inverse():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])  # f = h^2, g = h
    w = IsoWitness(QQ.scalar(2), QQ.one, QQ.one)
    B = apply_witness(A, w)  # f' = (h - 1)^2/2 + 1, g' = (h - 1)/2
    flipped = IsoWitness(w.u.inv(), -w.v / w.u, w.c)  # its psi^-1 is w's psi
    assert apply_witness(A, flipped) != B
    assert _relations_hold(A, B, w)
    assert not _relations_hold(A, B, flipped)


def test_relations_fail_for_a_target_with_another_q():
    rng = rng_for("relations-q")
    for field in (QQ, F5, F7):
        for _ in range(4):
            A = _random_presentation(rng, field)
            w = _random_witness(rng, field)
            B = apply_witness(A, w)
            other = AlgebraParams(field, A.q + field.one, B.f, B.g)
            assert not _relations_hold(A, other, w)


def test_automorphism_preserves_relations_rejects_pairs_outside_the_finite_part():
    A = algebra(QQ, 2, [0, 0, 0, 1], [0, 1])  # f = h^3, g = h: finite part {-1, 1} x {0}
    finite = automorphism_group(A).finite_part
    for pair in ((QQ.scalar(2), QQ.zero), (QQ.one, QQ.one), (QQ.scalar(-1), QQ.scalar(3))):
        assert pair not in finite
        assert not automorphism_preserves_relations(A, pair)
    B = AlgebraParams(F3, F3.scalar(2), Poly([0, 0, 0, 1], F3), Poly([0, 2, 0, 1], F3))
    finite = set(automorphism_group(B).finite_part)
    for a in (F3.one, F3.scalar(2)):
        for b in (F3.zero, F3.one, F3.scalar(2)):
            assert automorphism_preserves_relations(B, (a, b)) == ((a, b) in finite)
    assert len(finite) == 6
    # u = 0 maps h to a constant: no automorphism, and no longer a True answer
    with pytest.raises(DivisionByZero):
        automorphism_preserves_relations(algebra(QQ, 2, [0, 0, 1], [0, 1]), (QQ.zero, QQ.zero))


def test_witness_search_rejects_a_candidate_before_it_accepts():
    # f = h^5 over F_5: every psi conjugates f to itself, so only g tells the
    # candidates apart, and (u, v) = (1, 0) fails before (1, 1) passes
    A = AlgebraParams(F5, 2, Poly([0, 0, 0, 0, 0, 1], F5), Poly([0, 1], F5))
    B = AlgebraParams(F5, 2, Poly([0, 0, 0, 0, 0, 1], F5), Poly([2, 3], F5))
    assert B == apply_witness(A, IsoWitness(F5.scalar(2), F5.one, F5.one))
    candidates = list(_affine_maps(A.f, B.f))
    assert candidates[:2] == [(F5.one, F5.zero), (F5.one, F5.one)]
    witnesses = list(_witnesses(A, B))
    assert witnesses[0] == (F5.one, F5.one, F5.scalar(3))
    assert is_isomorphic(A, B) == witnesses[0]
    for u, v in candidates:
        kept = [w for w in witnesses if (w.u, w.v) == (u, v)]
        assert bool(kept) == any(
            apply_witness(A, IsoWitness(u, v, c)) == B
            for c in F5.elements()
            if not c.is_zero()
        )
