"""Exhaustive census over small prime fields: the isomorphism decider checked
against the automorphism groups.

For each field and pair of degrees every presentation (q, f, g) with one
fixed q is enumerated.  The group G = {(u, v, c)} of composite moves (u, c
nonzero) acts on them through `apply_witness`, and its orbits are found by
brute force.  Then:

- orbit size times stabilizer size is |G| = p(p-1)^2, where the stabilizer is
  the finite part of `automorphism_group`, times the p - 1 rescalings of g
  when g = 0;
- `is_isomorphic` maps each orbit representative onto every member of its
  orbit with a witness that `apply_witness` confirms;
- `is_isomorphic` separates the representatives of distinct orbits.

Every move fixes q, so one q suffices.  The F_2 and F_3 cases with
deg f = 3 include non-abelian finite parts.
"""

import itertools

import pytest

from qgha import (
    AlgebraParams,
    FieldSpec,
    IsoWitness,
    Poly,
    apply_witness,
    automorphism_group,
    is_isomorphic,
)

CASES = [
    (p, deg_f, deg_g)
    for p, deg_fs, max_deg_g in ((2, (2, 3), 2), (3, (2, 3), 2), (5, (2,), 1))
    for deg_f in deg_fs
    for deg_g in range(-1, max_deg_g + 1)  # -1 stands for g = 0
]


def _polys(field, degree):
    """Every polynomial of exact degree `degree` (the zero one for -1)."""
    if degree < 0:
        return [Poly.zero(field)]
    p = field.p
    return [
        Poly([*low, lead], field)
        for lead in range(1, p)
        for low in itertools.product(range(p), repeat=degree)
    ]


def _group(field):
    units = [field.scalar(r) for r in range(1, field.p)]
    shifts = [field.scalar(r) for r in range(field.p)]
    return [IsoWitness(u, v, c) for u in units for v in shifts for c in units]


def _orbits(presentations, group):
    """Orbit representative -> orbit, by applying every move to each
    presentation not yet reached."""
    seen = set()
    orbits = {}
    for algebra in presentations:
        if algebra in seen:
            continue
        orbit = {apply_witness(algebra, move) for move in group}
        seen |= orbit
        orbits[algebra] = orbit
    return orbits


_IDS = [f"F{p}-degf{df}-" + (f"degg{dg}" if dg >= 0 else "gzero") for p, df, dg in CASES]


@pytest.mark.parametrize("p, deg_f, deg_g", CASES, ids=_IDS)
def test_census_orbits_match_automorphisms(p, deg_f, deg_g):
    field = FieldSpec(p)
    q = field.one
    presentations = [
        AlgebraParams(field, q, f, g)
        for f in _polys(field, deg_f)
        for g in _polys(field, deg_g)
    ]
    orbits = _orbits(presentations, _group(field))
    assert sum(len(orbit) for orbit in orbits.values()) == len(presentations)

    for rep, orbit in orbits.items():
        stabilizer = len(automorphism_group(rep).finite_part)
        if rep.g.is_zero():
            stabilizer *= p - 1
        assert len(orbit) * stabilizer == p * (p - 1) ** 2, rep
        for target in orbit:
            witness = is_isomorphic(rep, target)
            assert witness is not None, (rep, target)
            assert apply_witness(rep, witness) == target

    reps = list(orbits)
    for a, b in itertools.combinations(reps, 2):
        assert is_isomorphic(a, b) is None, (a, b)
        assert is_isomorphic(b, a) is None, (b, a)
