import itertools
import json
import os
import random
import time
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgha import (
    AlgebraParams,
    CenterKind,
    Element,
    FieldSpec,
    NoetherianReason,
    NoetherianReport,
    Poly,
    center_describe,
    centralizer_of_h_contains,
    gk_dimension_sequence,
    is_central,
    is_domain,
    is_noetherian,
    noetherian_witness_check,
    oracle_multiply,
    reduce_word,
    sigma_pow,
    solve_sigma_q,
)
import qgha.algebra
import qgha.structure
from qgha.algebra import _times
from qgha import capacity
from qgha.errors import (
    CapacityExceeded,
    InternalError,
    NoFixedPointInField,
    PreconditionViolated,
    WrongDegree,
)
from qgha.serial import algebra_from_dict, load_algebra, witness_chain_to_dict
from qgha.structure import _integer_row, _reduce_insert

from conftest import (
    QQ,
    F7,
    algebra,
    poly_divmod,
    random_element,
    random_poly,
    random_scalar,
    rng_for,
)


def test_is_domain():
    assert is_domain(algebra(QQ, 1, [0, 0, 1], [0, 1])).verdict
    assert not is_domain(algebra(QQ, 0, [0, 1], [0, 1])).verdict
    assert not is_domain(algebra(QQ, 1, [5], [0, 1])).verdict  # constant f
    report = is_domain(algebra(QQ, 0, [5], [0, 1]))
    assert not report and "q = 0" in report.reason and "deg f" in report.reason


def test_is_noetherian_truth_table():
    yes = is_noetherian(algebra(QQ, 1, [1, 1], [0, 1]))  # f = h + 1
    assert yes.verdict and yes.reason is NoetherianReason.DEG_F_1_AND_Q_NONZERO
    qzero = is_noetherian(algebra(QQ, 0, [0, 1], [0, 1]))
    assert not qzero.verdict and qzero.reason is NoetherianReason.Q_ZERO
    square = algebra(QQ, 1, [0, 0, 1], [0, 1])
    report = is_noetherian(square)
    assert not report.verdict and report.reason is NoetherianReason.DEG_F_NOT_1
    witness = noetherian_witness_check(square, 5)
    assert witness.beta == QQ.zero
    assert witness_chain_to_dict(witness)["verified"] is True


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_noetherian_verdict_makes_no_search(monkeypatch, field):
    # the verdict is the closed criterion: no root search, so no witness
    def no_search(p):
        raise AssertionError("is_noetherian searched for a root")

    monkeypatch.setattr(qgha.structure, "poly_roots", no_search)
    A = algebra(field, 1, [0, 0, 1], [0, 1])  # f = h^2
    assert is_noetherian(A) == NoetherianReport(False, NoetherianReason.DEG_F_NOT_1)


def test_noetherian_report_without_a_fixed_point_has_no_witness():
    # f - h = h^2 - h + 1 has no rational root
    A = algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1])
    with pytest.raises(NoFixedPointInField):
        noetherian_witness_check(A, depth=2)
    report = is_noetherian(A)
    assert report == NoetherianReport(False, NoetherianReason.DEG_F_NOT_1)


def test_noetherian_report_past_the_search_bound_has_no_witness(set_capacity):
    # the verdict needs no search; the fixed-point search over F_1000003 is
    # capped, and so is a witness deeper than the bound
    set_capacity(10**4)
    A = algebra(FieldSpec(1000003), 2, [0, 0, 1], [0, 1])
    with pytest.raises(CapacityExceeded, match="root search in F_1000003"):
        noetherian_witness_check(A, depth=5)
    report = is_noetherian(A)
    assert report == NoetherianReport(False, NoetherianReason.DEG_F_NOT_1)
    square = algebra(QQ, 1, [0, 0, 1], [0, 1])
    with pytest.raises(CapacityExceeded, match="witness depth"):
        noetherian_witness_check(square, depth=10**4 + 1)
    assert is_noetherian(square) == report


def test_noetherian_implies_domain_not_conversely():
    # the headline phenomenon: q != 0 with deg f >= 2 is a non-Noetherian domain
    wild = algebra(QQ, 2, [0, 0, 1], [0, 1])
    assert is_domain(wild).verdict
    assert not is_noetherian(wild).verdict
    tame = algebra(QQ, 2, [1, 1], [0, 1])
    assert is_domain(tame).verdict and is_noetherian(tame).verdict


def test_witness_chain_h_square():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])
    chain = noetherian_witness_check(A, depth=5)
    assert chain == (QQ.zero, 5)
    checks = witness_chain_to_dict(chain)["checks"]
    assert [c["n"] for c in checks] == list(range(6))
    assert all(c["sigma_powers_divisible"] and c["h_not_divisible"] for c in checks)
    # direct division evidence: sigma^k(h) = h^(2^k) is divisible by h^2, h is not
    f = A.f
    power = Poly.h(QQ)
    for k in range(1, 7):
        power = power.compose(f)
        assert poly_divmod(power, f)[1].is_zero()
    assert not poly_divmod(Poly.h(QQ), f)[1].is_zero()


def test_witness_chain_shifted_fixed_point():
    # f = (h-1)^2 + 1 has fixed points 1 and 2; the witness shifts to 0
    f = [2, -2, 1]
    A = algebra(QQ, 1, f, [0, 1])
    chain = noetherian_witness_check(A, depth=3)
    assert chain.beta == QQ.one
    assert witness_chain_to_dict(chain)["verified"] is True
    assert not is_noetherian(A).verdict


def test_witness_chain_divides_nothing():
    # both facts hold by construction once beta is found, and Poly has no
    # division, so no division runs
    assert not any(hasattr(Poly, name) for name in ("__divmod__", "__floordiv__", "__mod__"))
    chain = noetherian_witness_check(algebra(QQ, 1, [2, -2, 1], [0, 1]), depth=3)
    assert chain == (QQ.one, 3)
    assert witness_chain_to_dict(chain)["checks"] == [
        {"n": n, "sigma_powers_divisible": True, "h_not_divisible": True} for n in range(4)
    ]


def _composed_divisibility(A, beta, depth):
    """Reference: sigma^k(h) mod the shifted f, by explicit composition."""
    field = A.field
    shifted = A.f.compose(Poly([beta, field.one], field)) - Poly.const(beta)
    out, power = [], Poly.h(field)
    for _ in range(depth + 1):
        power = power.compose(shifted)
        out.append(poly_divmod(power, shifted)[1].is_zero())
    return out, not poly_divmod(Poly.h(field), shifted)[1].is_zero()


def test_witness_residues_match_composition():
    rng = rng_for("witness-residues")
    for field in (QQ, F7):
        for _ in range(12):
            # f = h + (h - b)*r(h) has the fixed point b; deg f = 1 + deg r
            b = random_scalar(rng, field)
            r = random_poly(rng, field, max_deg=2, allow_zero=False)
            if r.degree() < 1:
                continue
            f = Poly.h(field) + (Poly.h(field) - Poly.const(b)) * r
            A = AlgebraParams(field, 1, f, Poly.h(field))
            depth = rng.randint(1, 4)
            chain = noetherian_witness_check(A, depth)
            assert f.evaluate(chain.beta) == chain.beta
            divisible, h_free = _composed_divisibility(A, chain.beta, depth)
            assert witness_chain_to_dict(chain)["checks"] == [
                {
                    "n": n,
                    "sigma_powers_divisible": all(divisible[: n + 1]),
                    "h_not_divisible": h_free,
                }
                for n in range(depth + 1)
            ]


def test_witness_chain_errors():
    with pytest.raises(NoFixedPointInField):
        # f = h^2 + 1: f - h = h^2 - h + 1 has no rational root
        noetherian_witness_check(algebra(QQ, 1, [1, 0, 1], [0, 1]), depth=3)
    with pytest.raises(WrongDegree):
        noetherian_witness_check(algebra(QQ, 1, [0, 1], [0, 1]), depth=3)
    # over F_5 the same f - h = h^2 - h + 1 does have roots (3^2-3+1=7=2... none)
    # h^2 - h + 1 mod 5: r=3 -> 7 = 2, no; exhaustive check confirms none
    assert all((r * r - r + 1) % 5 != 0 for r in range(5))


def test_witness_depth_bound():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])
    cap = capacity.SEARCH_CAP
    start = time.perf_counter()
    chain = noetherian_witness_check(A, depth=cap)
    assert time.perf_counter() - start < 5.0
    printed = witness_chain_to_dict(chain)
    assert chain.depth == cap and len(printed["checks"]) == cap + 1 and printed["verified"]
    with pytest.raises(CapacityExceeded, match="witness depth of size"):
        noetherian_witness_check(A, depth=cap + 1)


def _sigma_q_brute(A, max_deg):
    """Independent oracle: solve sigma(a) - q*a = g as a dense linear system
    over Fractions, for deg a <= max_deg."""
    assert A.field.is_rationals
    f = [Fraction(c.value) for c in A.f.coeffs]
    g = [Fraction(c.value) for c in A.g.coeffs]
    q = Fraction(A.q.value)
    deg_f = len(f) - 1
    rows = deg_f * max_deg + 1

    def poly_mul(p, r):
        out = [Fraction(0)] * (len(p) + len(r) - 1 or 1)
        for i, a in enumerate(p):
            for j, b in enumerate(r):
                out[i + j] += a * b
        return out

    # columns: coefficients a_0..a_max_deg; entries: coeff vector of f^i - q*h^i
    cols = []
    fpow = [Fraction(1)]
    for i in range(max_deg + 1):
        col = list(fpow) + [Fraction(0)] * (rows - len(fpow))
        col = col[:rows] + [Fraction(0)] * max(0, rows - len(col))
        if i < rows:
            col[i] -= q
        cols.append(col)
        fpow = poly_mul(fpow, f)
    rhs = list(g) + [Fraction(0)] * (rows - len(g))
    # Gaussian elimination on the augmented system
    m = [[cols[c][r] for c in range(len(cols))] + [rhs[r]] for r in range(rows)]
    ncols = len(cols)
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, rows) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        pv = m[pivot_row][col]
        m[pivot_row] = [v / pv for v in m[pivot_row]]
        for r in range(rows):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, rows):
        if m[r][ncols] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        solution[col] = m[r][ncols]
    return Poly([QQ.scalar(v) for v in solution], QQ)


def test_solve_sigma_q_examples():
    # f = h^2, q = -1, g = h^2 + h: a = h since sigma(h) + h = h^2 + h
    A = algebra(QQ, -1, [0, 0, 1], [0, 1, 1])
    a = solve_sigma_q(A)
    assert a == Poly.h(QQ)
    assert sigma_pow(A.f, 1, a) - A.q * a == A.g
    # f = h^2, q = 2, g = 1: constant a = -1
    B = algebra(QQ, 2, [0, 0, 1], [1])
    assert solve_sigma_q(B) == Poly([-1], QQ)
    # f = h^2, q = 2, g = h: deg 1 is not a multiple of deg 2
    C = algebra(QQ, 2, [0, 0, 1], [0, 1])
    assert solve_sigma_q(C) is None
    # constant g: a = g / (1 - q), and no solution for q = 1
    assert solve_sigma_q(algebra(QQ, 1, [0, 0, 1], [1])) is None
    assert solve_sigma_q(algebra(QQ, 3, [1, 1, 1], [4])) == Poly([-2], QQ)
    assert solve_sigma_q(algebra(F7, 3, [0, 0, 1], [2])) == Poly([6], F7)  # -2*6 = 2
    assert solve_sigma_q(algebra(F7, 1, [0, 0, 1], [5])) is None
    with pytest.raises(PreconditionViolated):
        solve_sigma_q(algebra(QQ, 2, [0, 1], [0, 1]))
    with pytest.raises(PreconditionViolated):
        solve_sigma_q(algebra(QQ, 0, [0, 0, 1], [0, 1]))


def test_failed_sigma_q_check_is_an_internal_error(monkeypatch):
    compose = Poly.compose
    # sigma(a) one off makes the closing check fail: a bug, not "no solution"
    monkeypatch.setattr(Poly, "compose", lambda p, inner: compose(p, inner) + Poly.one(p.field))
    A = algebra(QQ, -1, [0, 0, 1], [0, 1, 1])
    with pytest.raises(InternalError, match="sigma") as caught:
        solve_sigma_q(A)
    assert caught.value.exit_code == 5
    with pytest.raises(InternalError):
        center_describe(A)


def test_solve_sigma_q_round_trip_and_brute_force():
    rng = rng_for("sigma-q")
    for _ in range(60):
        f_coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(2, 3) + 1)]
        if len(f_coeffs) - 1 < 2 or f_coeffs[-1] == 0:
            f_coeffs = f_coeffs[:-1] + [1]
            while len(f_coeffs) < 3:
                f_coeffs.append(1)
        q = rng.choice([1, -1, 2, 3, Fraction(1, 2)])
        g_coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(0, 4) + 1)]
        A = algebra(QQ, q, f_coeffs, g_coeffs)
        a = solve_sigma_q(A)
        if a is not None:
            assert a.compose(A.f) - A.q * a == A.g
            if A.q.is_one():
                assert a.coeff(0).is_zero()  # canonical representative
        else:
            deg_g = max(len(g_coeffs) - 1, 0)
            brute = _sigma_q_brute(A, deg_g)
            if brute is not None:
                assert brute.compose(A.f) - A.q * brute != A.g
            else:
                assert brute is None


def test_solve_sigma_q_q_one_family():
    # q = 1: solutions differ by constants; the a(0) = 0 representative is returned
    A = algebra(QQ, 1, [0, 0, 1], [0, 0, -1, 0, 1])  # g = h^4 - h^2 = sigma(a) - a
    a = solve_sigma_q(A)
    assert a is not None
    assert a.coeff(0).is_zero()
    assert a.compose(A.f) - a == A.g


def test_center_scalars_only():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    description = center_describe(A)
    assert description.kind is CenterKind.SCALARS_ONLY


def test_center_polynomial_in_z():
    A = algebra(QQ, -1, [0, 0, 1], [0, 1, 1])
    description = center_describe(A)
    assert description.kind is CenterKind.POLYNOMIAL_IN_Z_ELL
    assert description.ell == 2
    assert description.a == Poly.h(QQ)
    # Z = -(x*y - h)
    x, y, h = A.generators()
    assert description.z == -(x * y) + h
    assert is_central(description.z**2)
    assert not is_central(description.z)


def test_center_undetermined():
    A = algebra(QQ, -1, [0, 0, 1], [0, 1])
    description = center_describe(A)
    assert description.kind is CenterKind.UNDETERMINED
    assert description.ell == 2
    assert description.reason


def test_center_over_prime_field():
    # q = 3 has order 6 in F_7*; g = sigma(h) - 3h = h^2 + 4h is solvable
    A = algebra(F7, 3, [0, 0, 1], [0, 4, 1])
    description = center_describe(A)
    assert description.kind is CenterKind.POLYNOMIAL_IN_Z_ELL
    assert description.ell == 6
    assert description.a == Poly.h(F7)
    assert is_central(description.z**6)


def _row_rank(rows, zero):
    """Rank of rows (dicts key -> Scalar) by plain Gaussian elimination."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            top = max(row)
            if top not in pivots:
                pivots[top] = row
                break
            c = row[top] / pivots[top][top]
            for key, value in pivots[top].items():
                row[key] = row.get(key, zero) - c * value
            row = {key: value for key, value in row.items() if not value.is_zero()}
    return len(pivots)


def _box_nullity(A, N, D):
    """Nullity of z -> (zx - xz, zy - yz) on the span of x^i h^j y^i, i <= N,
    j <= D: the central elements of the box, since for deg f >= 2 the
    diagonal support is what commutes with h."""
    x, y, _ = A.generators()
    rows = []
    for i in range(N + 1):
        for j in range(D + 1):
            b = Element.monomial(A, i, Poly([0] * j + [1], A.field), i)
            rows.append({
                (tag, i2, k2, e): c
                for tag, image in enumerate((b * x - x * b, b * y - y * b))
                for (i2, k2), p in image.terms.items()
                for e, c in enumerate(p.coeffs)
                if not c.is_zero()
            })
    return len(rows) - _row_rank(rows, A.field.zero)


def _z_powers_in_box(description, A, N, D):
    """How many of the powers Z^(ell m), m >= 0, of center_describe's answer
    have every term x^i p(h) y^k with i <= N and deg p <= D (1 when the
    answer holds no Z: the scalars)."""
    if description.kind is not CenterKind.POLYNOMIAL_IN_Z_ELL:
        return 1
    count, power, step = 0, A.one(), description.z**description.ell
    while all(i <= N and p.degree() <= D for (i, _), p in power.terms.items()):
        count += 1
        power = power * step
    return count


@pytest.mark.parametrize(
    "field, q, f, g, kind, nullities",
    [
        (QQ, -1, [0, 0, 1], [0, 1, 1], CenterKind.POLYNOMIAL_IN_Z_ELL, (2, 3)),
        (F7, -1, [0, 0, 1], [0, 1, 1], CenterKind.POLYNOMIAL_IN_Z_ELL, (2, 3)),
        (QQ, 2, [1, 0, 1], [0, 0, 0, 1], CenterKind.SCALARS_ONLY, (1, 1)),
        (F7, 2, [1, 0, 1], [0, 1], CenterKind.UNDETERMINED, (1, 1)),
        (FieldSpec(5), 4, [0, 1, 0, 1], [0, 0, 1], CenterKind.UNDETERMINED, (1, 1)),
    ],
    ids=["Q-q-1", "F7-q-1", "Q-scalars", "F7-undetermined", "F5-undetermined"],
)
def test_center_in_a_box(field, q, f, g, kind, nullities):
    # Z^2 has x-degree 2 and h-degree 2, Z^4 has 4 and 8: box (2, 8) holds
    # 1 and Z^2, box (4, 16) also Z^4
    A = algebra(field, q, f, g)
    description = center_describe(A)
    assert description.kind is kind
    for (N, D), nullity in zip([(2, 8), (4, 16)], nullities):
        assert _box_nullity(A, N, D) == nullity
        assert _z_powers_in_box(description, A, N, D) == nullity


def test_center_preconditions():
    with pytest.raises(PreconditionViolated):
        center_describe(algebra(QQ, 2, [0, 1], [0, 1]))
    with pytest.raises(PreconditionViolated):
        center_describe(algebra(QQ, 0, [0, 0, 1], [0, 1]))


def test_is_central():
    A = algebra(QQ, 1, [0, 0, 1], [])  # q=1, f=h^2, g=0
    assert is_central(Element.from_scalar(A, 7))
    assert not is_central(A.h())  # h x = x h^2 != x h
    assert not is_central(A.x())


def test_centralizer_of_h():
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    x, y, h = A.generators()
    assert centralizer_of_h_contains(x * h * y)
    assert not centralizer_of_h_contains(x)
    assert centralizer_of_h_contains(x**2 * y**2 + h**5)
    with pytest.raises(PreconditionViolated):
        centralizer_of_h_contains(algebra(QQ, 2, [0, 1], [0, 1]).x())


def test_centralizer_matches_commutation():
    rng = rng_for("centralizer")
    A = algebra(QQ, 2, [0, 0, 1], [0, 1])
    h = A.h()
    for _ in range(40):
        e = random_element(rng, A, max_support=2, max_exp=2, max_deg=2)
        assert centralizer_of_h_contains(e) == (e * h == h * e)


def _gk_dims_by_word_enumeration(A, max_n):
    """Independent oracle: reduce every word of length <= n through the
    rewriting oracle and echelonize the resulting coordinate vectors."""
    dims = []
    vectors = []
    pivots = {}

    def key(mono):
        i, j, k = mono
        return (i + j + k, i, j, k)

    def insert(vec):
        while vec:
            top = max(vec, key=key)
            if top not in pivots:
                inv = vec[top].inv()
                pivots[top] = {m: c * inv for m, c in vec.items()}
                return True
            c = vec[top]
            pivot = pivots[top]
            out = dict(vec)
            for m, pv in pivot.items():
                nv = out.get(m, A.field.zero) - c * pv
                if nv.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = nv
            vec = out
        return False

    for n in range(max_n + 1):
        for word in itertools.product("xyh", repeat=n):
            e = reduce_word("".join(word), A)
            vec = {}
            for (i, k), p in e.terms.items():
                for j, c in p.monomials():
                    vec[(i, j, k)] = c
            insert(vec)
        dims.append(len(pivots))
    return dims


def test_gk_down_up_regime():
    A = algebra(QQ, 1, [0, 1], [0, 1])  # q=1, f=h, g=h
    report = gk_dimension_sequence(A, 5)
    assert report.dims[0] == 1
    assert report.dims[2] == 10 == comb(5, 3)
    assert list(report.dims) == [comb(n + 3, 3) for n in range(6)]
    assert report.dims == tuple(_gk_dims_by_word_enumeration(A, 5))


def test_gk_wild_regime():
    A = algebra(QQ, 1, [0, 0, 1], [0, 1])  # q=1, f=h^2, g=h
    report = gk_dimension_sequence(A, 4)
    assert report.dims[0] == 1
    assert report.dims[2] == 12
    assert report.dims == tuple(_gk_dims_by_word_enumeration(A, 4))
    for n in range(2, 5):
        assert report.dims[n] > comb(n + 3, 3)
    tame = gk_dimension_sequence(algebra(QQ, 1, [0, 1], [0, 1]), 4)
    for n in range(2, 5):
        assert report.dims[n] > tame.dims[n]


def test_gk_monotone_and_csv():
    A = algebra(F7, 3, [0, 0, 1], [0, 1, 1])
    report = gk_dimension_sequence(A, 4)
    assert all(a < b for a, b in zip(report.dims, report.dims[1:]))
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,dim,slope"
    # row layout: n, dim, slope (slope empty for n < 2)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == ""
    third = lines[3].split(",")
    assert third[0] == "2" and third[2] != ""


_GK_ORACLE_PRESENTATIONS = [
    pytest.param((QQ, 0, [0, 0, 1], [0, 1]), id="Q-q0"),
    pytest.param((QQ, 2, [3], [0, 1]), id="Q-f-constant"),
    pytest.param((QQ, 2, [], [1]), id="Q-f-zero"),
    pytest.param((QQ, 3, [0, 1], [0, 0, 1]), id="Q-f-h"),
    pytest.param(
        (QQ, Fraction(1, 2), [1, 0, Fraction(2, 3)], [0, Fraction(1, 5)]), id="Q-fractions"
    ),
    pytest.param((F7, 3, [0, 0, 1], [0, 1, 1]), id="F7"),
    pytest.param((F7, 0, [2, 5], [3]), id="F7-q0"),
    pytest.param((F7, 4, [6], [0, 2, 1]), id="F7-f-constant"),
]


@pytest.mark.parametrize("params", _GK_ORACLE_PRESENTATIONS)
def test_gk_matches_word_enumeration(params):
    A = algebra(*params)
    assert gk_dimension_sequence(A, 4).dims == tuple(_gk_dims_by_word_enumeration(A, 4))


_RIGHT_MULTIPLY_ALGEBRAS = [
    algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1]),
    algebra(QQ, 0, [0, 0, 1], [0, 1]),
    algebra(QQ, 3, [2], [1, 1]),
    algebra(QQ, 1, [], [0, 1]),
    algebra(QQ, -1, [Fraction(1, 2), 3], [0, 1]),
    algebra(F7, 3, [0, 0, 1], [0, 1, 1]),
    algebra(F7, 0, [5], [2]),
    algebra(F7, 5, [1, 4], [0, 0, 3]),
]


@given(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, len(_RIGHT_MULTIPLY_ALGEBRAS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_times_generator_matches_element_product(seed, index):
    A = _RIGHT_MULTIPLY_ALGEBRAS[index]
    rng = random.Random(seed)
    gens = A.generators()
    # one sigma memo for every product, as across a gk run
    images: dict = {}
    for _ in range(2):
        e = random_element(rng, A)
        for gen in gens:
            product = _times(A, e.terms, gen.terms, images, {})
            assert Element(A, product) == e * gen
            assert all(not p.is_zero() for p in product.values())


CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "corpus")


def test_gk_run_composes_each_polynomial_once(monkeypatch):
    A = load_algebra(os.path.join(CORPUS, "q2_h2p1_h3.json"))
    compose = Poly.compose
    composed: list = []

    def tracked_compose(p, inner):
        composed.append((p._nums, p._den, inner._nums, inner._den))
        return compose(p, inner)

    monkeypatch.setattr(Poly, "compose", tracked_compose)
    assert gk_dimension_sequence(A, 7).dims == (1, 4, 13, 33, 76, 161, 323, 622)
    # the run-wide memo: x*f(h) and y*h hold f, which also follows h in
    # sigma^k(h), and y^b x^c and Gamma_c read sigma from the same orbits, so
    # no (outer, inner) pair is composed twice
    assert composed and len(composed) == len(set(composed))


@pytest.mark.parametrize(
    "field, f",
    [(QQ, [1, -1]), (QQ, [1, 0, 1]), (F7, [0, 0, 1])],
    ids=["Q-1-h", "Q-h^2+1", "F7-h^2"],
)
def test_product_and_sigma_pow_compose_each_polynomial_once(field, f, monkeypatch):
    # 1 - h has period 2 (h -> 1 - h -> h), so a walk that does not store
    # what it composes meets the pair (h, f) again
    A = algebra(field, 2, f, [0, 1])  # fresh, so the y^b x^c memo is empty
    h, one = Poly.h(field), Poly.one(field)
    e = Element(A, {(2, 1): h, (1, 0): h, (0, 2): h + one, (0, 0): h})
    compose = Poly.compose
    composed: list = []

    def tracked_compose(p, inner):
        composed.append((p._nums, p._den, inner._nums, inner._den))
        return compose(p, inner)

    monkeypatch.setattr(Poly, "compose", tracked_compose)
    square = e * e
    assert composed and len(composed) == len(set(composed))
    composed.clear()
    sigma = sigma_pow(A.f, 6, h)
    assert composed and len(composed) == len(set(composed))
    monkeypatch.undo()
    assert square == oracle_multiply(e, e)
    expected = h
    for _ in range(6):
        expected = expected.compose(A.f)
    assert sigma == expected


def test_gk_run_builds_each_generator_row_once(monkeypatch):
    A = load_algebra(os.path.join(CORPUS, "q2_h2p1_h3.json"))
    dims = (1, 4, 13, 33, 76, 161, 323, 622)
    assert gk_dimension_sequence(A, 7).dims == dims
    # A's y^b x^c memo is now warm, so each _yx_terms call builds one row
    yx_terms = qgha.algebra._yx_terms
    calls: list = []
    monkeypatch.setattr(
        qgha.algebra, "_yx_terms", lambda *args: calls.append(args[1:3]) or yx_terms(*args)
    )
    assert gk_dimension_sequence(A, 7).dims == dims
    # at most one row y^k1 * generator per generator and k1 <= 7, kept for
    # the run: x's rows read y^k1 x, y's and h's read y^k1
    assert 0 < len(calls) <= 3 * 8
    assert all(calls.count(call) == (1 if call[1] else 2) for call in calls)


def test_gk_matches_the_recorded_growth_pool():
    with open(os.path.join(CORPUS, "growth_pool.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    horizon = pool["horizon"]
    for entry in pool["entries"]:
        A = algebra_from_dict(entry["algebra"])
        assert list(gk_dimension_sequence(A, horizon).dims) == entry["dims"], entry["id"]


def test_gk_dims_do_not_depend_on_the_scale_of_a_candidate_row(monkeypatch):
    # a row's scale never changes its span, so scaling each candidate row by a
    # random nonzero integer before insertion leaves every dim as it was
    rng = rng_for("gk-row-scale")
    integer_row = qgha.structure._integer_row

    def scaled_row(terms, p):
        row = integer_row(terms, p)
        if p is None:
            c = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            return {m: c * v for m, v in row.items()}
        c = rng.randrange(1, p)
        return {m: c * v % p for m, v in row.items()}

    with open(os.path.join(CORPUS, "growth_pool.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    cases = [(algebra_from_dict(e["algebra"]), pool["horizon"], e["dims"]) for e in pool["entries"]]
    assert {A.field.p for A, _, _ in cases} == {None, 7, 17}
    A = load_algebra(os.path.join(CORPUS, "q2_h2p1_h3.json"))
    cases.append((A, 7, [1, 4, 13, 33, 76, 161, 323, 622]))
    monkeypatch.setattr(qgha.structure, "_integer_row", scaled_row)
    for A, horizon, dims in cases:
        assert list(gk_dimension_sequence(A, horizon).dims) == dims


def test_gk_q2_h2p1_h3_to_n9():
    A = load_algebra(os.path.join(CORPUS, "q2_h2p1_h3.json"))
    dims = (1, 4, 13, 33, 76, 161, 323, 622, 1160, 2111)
    assert gk_dimension_sequence(A, 9).dims == dims


def _gk_dims_unpruned(A, max_n):
    """gk's loop with no product skipped: every new element of V^(n-1) times
    x, y and h, through the same `_times`, rows and echelon."""
    field = A.field
    p = field.p
    echelon: dict = {}
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
                candidate = _times(A, terms, right, images, rows)
                if _reduce_insert(echelon, _integer_row(candidate, p), p):
                    new_frontier.append(candidate)
        dims.append(len(echelon))
        frontier = new_frontier
    return dims


def _drawn_coefficients(rng, field, degree):
    """Coefficients of a drawn polynomial of exactly this degree; none for degree < 0."""
    if degree < 0:
        return []
    lead = random_scalar(rng, field)
    while lead.is_zero():
        lead = random_scalar(rng, field)
    return [random_scalar(rng, field) for _ in range(degree)] + [lead]


def _drawn_presentations():
    """One drawn presentation per deg f in 0..5 and deg g in -inf..3, with q
    cycling through 0, 1 and a drawn value and the field through Q and F_p,
    so that every (q, field) pair meets every degree.  deg f = 5 is over F_p
    only: over Q its coefficients grow too long for a quick test."""
    rng = rng_for("gk-unpruned")
    cases = []
    for index, (deg_f, deg_g) in enumerate(itertools.product(range(6), (-1, 0, 1, 2, 3))):
        field = QQ if index % 2 == 0 and deg_f < 5 else FieldSpec(rng.choice((3, 5, 7)))
        q = (0, 1, None)[index % 3]
        if q is None:  # drawn, neither 0 nor 1
            if field.p is None:
                q = rng.choice((2, -1, Fraction(1, 2), Fraction(-2, 3)))
            else:
                q = rng.randrange(2, field.p)
        f = _drawn_coefficients(rng, field, deg_f)
        g = _drawn_coefficients(rng, field, deg_g)
        name = f"f{deg_f}-g{deg_g if deg_g >= 0 else 'zero'}-{field}-q{q}"
        cases.append(pytest.param(algebra(field, q, f, g), max(5, deg_f + 1), id=name))
    return cases


@pytest.mark.parametrize("A, max_n", _drawn_presentations())
def test_gk_matches_the_unpruned_loop(A, max_n):
    assert list(gk_dimension_sequence(A, max_n).dims) == _gk_dims_unpruned(A, max_n)


def test_gk_skips_the_products_the_relations_span(monkeypatch):
    # q = 1, f = h^2, g = h: all three skips apply; the unpruned loop makes
    # 3 * 67 products, one per new element of V^0..V^4 and generator
    A = load_algebra(os.path.join(CORPUS, "q1_h2_h.json"))
    times = qgha.structure._times
    calls: list = []
    monkeypatch.setattr(qgha.structure, "_times", lambda *args: calls.append(1) or times(*args))
    assert gk_dimension_sequence(A, 5).dims == (1, 4, 12, 30, 67, 140)
    assert len(calls) == 165


def _rank(i, j, k):
    """Rank of x^i h^j y^k among the triples (d, i, j), d = i+j+k."""
    d = i + j + k
    return d * (d + 1) * (2 * d + 1) // 6 + i * (d + 1) + j


def test_integer_row_scales_by_the_denominator_lcm():
    terms = {
        (1, 1): Poly([0, Fraction(1, 2)], QQ),
        (0, 0): Poly([Fraction(-5, 4), 0, Fraction(2, 3)], QQ),
    }
    # x^i h^j y^k is keyed by its rank; lcm(2, 12) = 12
    assert _integer_row(terms, None) == {_rank(1, 1, 1): 6, _rank(0, 0, 0): -15, _rank(0, 2, 0): 8}
    assert _integer_row({(0, 2): Poly([3, 0, 6], F7)}, 7) == {_rank(0, 0, 2): 3, _rank(0, 2, 2): 6}
    assert _integer_row({}, None) == _integer_row({}, 7) == {}
    # the keys rise strictly in (i+j+k, i, j, k) order, so max() is the pivot
    triples = sorted(
        (i + j + k, i, j, k) for i, j, k in itertools.product(range(7), repeat=3) if i + j + k <= 6
    )
    keys = [
        next(iter(_integer_row({(i, k): Poly([0] * j + [1], QQ)}, None))) for _, i, j, k in triples
    ]
    assert keys == [_rank(i, j, k) for _, i, j, k in triples]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # the keys are stepped along each polynomial: long ones, with interior
    # zeros, at every (i, k) in {0..4}^2 keep each key at _rank(i, j, k)
    for field, p, coeff in (
        (QQ, None, lambda i, j, k: Fraction((3 * j + i + 2 * k) % 11 - 5, 1 + (i + j + k) % 6)),
        (F7, 7, lambda i, j, k: (3 * j + i + 2 * k) % 7),
    ):
        coeffs = {
            (i, k): [0 if j % 5 == 2 else coeff(i, j, k) for j in range(40 + i + k)] + [1]
            for i, k in itertools.product(range(5), repeat=2)
        }
        den = 1 if p else lcm(*(c.denominator for cs in coeffs.values() for c in cs))
        row = _integer_row({ik: Poly(cs, field) for ik, cs in coeffs.items()}, p)
        assert row == {
            _rank(i, j, k): c * den
            for (i, k), cs in coeffs.items()
            for j, c in enumerate(cs)
            if c
        }


def test_reduce_insert_row_forms():
    # rows map monomial ranks to integer coordinates; the largest rank is the pivot
    echelon = {}
    # over Q, as over F_p, a stored row is kept as it arrived: its content
    # and a negative pivot included
    assert _reduce_insert(echelon, {5: 6, 2: -4, 0: 10}, None)
    assert _reduce_insert(echelon, {3: -4, 1: 6}, None)
    assert echelon == {5: {5: 6, 2: -4, 0: 10}, 3: {3: -4, 1: 6}}
    # a multiple of a pivot stores nothing
    assert not _reduce_insert(echelon, {5: -21, 2: 14, 0: -35}, None)
    # 2 * row - pivot leaves -8 at rank 4, content and all
    assert _reduce_insert(echelon, {5: 3, 4: -4, 2: -2, 0: 5}, None)
    assert echelon[4] == {4: -8}
    # the row's multiplier is positive: 2 * row - pivot leaves -8 at rank 0
    assert _reduce_insert(echelon, {3: -2, 1: 3, 0: -4}, None)
    assert echelon[0] == {0: -8}
    # 6 * row - pivot, then 2 * row + 3 * pivot 4, then row + 3 * pivot 3
    assert _reduce_insert(echelon, {5: 1, 4: 2, 3: 1}, None)
    assert echelon[2] == {2: 8, 1: 18, 0: -20}
    assert len(echelon) == 5
    # over F_p a stored row is kept as it arrived, not made monic
    echelon = {}
    assert _reduce_insert(echelon, {4: 3, 1: 5}, 7)
    assert echelon == {4: {4: 3, 1: 5}}
    assert not _reduce_insert(echelon, {4: 6, 1: 3}, 7)
    # row - 5 * pivot, with 5 = 1/3 mod 7, leaves {2: 1, 1: 3}
    assert _reduce_insert(echelon, {4: 1, 2: 1}, 7)
    assert echelon == {4: {4: 3, 1: 5}, 2: {2: 1, 1: 3}}
    assert not _reduce_insert(echelon, {}, 7)


def test_faulty_echelon_step_is_an_internal_error(monkeypatch):
    # a step that does not cancel the pivot entry used to loop forever
    monkeypatch.setattr(qgha.structure, "gcd", lambda a, b: 2)
    with pytest.raises(InternalError, match="echelon step"):
        _reduce_insert({5: {5: 3, 2: 1}}, {5: 5, 1: 1}, None)
    monkeypatch.setattr(qgha.structure, "pow", lambda *args: 2, raising=False)
    with pytest.raises(InternalError, match="echelon step"):
        _reduce_insert({4: {4: 3, 1: 5}}, {4: 1, 2: 1}, 7)


def test_gk_zero_horizon():
    A = algebra(QQ, 1, [0, 1], [0, 1])
    assert gk_dimension_sequence(A, 0).dims == (1,)


def test_witness_soundness_invariant():
    rng = rng_for("witness-sound")
    for _ in range(10):
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(2, 4))] + [1]
        A = algebra(QQ, rng.choice([1, 2, -1]), coeffs, [rng.randint(-2, 2), 1])
        if A.f.degree() < 2:
            continue
        try:
            chain = noetherian_witness_check(A, depth=3)
        except NoFixedPointInField:
            continue
        if witness_chain_to_dict(chain)["verified"]:
            assert not is_noetherian(A).verdict


def test_gk_cubic_formula_other_presentations():
    # deg f = 1 with deg g <= 2: the relations keep the standard filtration,
    # so the normal monomials of total degree <= n are a basis of V^n
    fs = [[1, 1], [0, 3], [5, 2]]
    gs = [[], [1], [0, 1], [2, -1], [0, 0, 1], [-3, 0, Fraction(1, 2)]]
    cubic = [comb(n + 3, 3) for n in range(8)]
    cases = [
        (field, q, f, g)
        for field in (QQ, F7, FieldSpec(2))
        for q, f, g in itertools.product((0, 1, 2, -1), fs, gs)
    ]
    # off the grid: q = 3, f = h with a constant g, and f with a negative lead
    cases += [(QQ, 3, [1, 2], [5, 1]), (QQ, 1, [0, 1], [2]), (QQ, -1, [4, -1], [0, 1])]
    for field, q, f, g in cases:
        if field.p == 2 and Fraction(1, 2) in g:
            g = [1, 0, 1]
        A = algebra(field, q, f, g)
        if A.f.degree() != 1:
            continue  # 2h + 5 is 1 over F_2
        assert list(gk_dimension_sequence(A, 7).dims) == cubic, (field, q, f, g)


@pytest.mark.parametrize("field", [QQ, F7, FieldSpec(2)], ids=["Q", "F7", "F2"])
def test_gk_cubic_formula_fails_for_cubic_g(field):
    # deg g = 3 lifts yx - q*xy out of the filtration, so the count differs
    dims = gk_dimension_sequence(algebra(field, 1, [1, 1], [0, 0, 0, 1]), 7).dims
    assert list(dims) != [comb(n + 3, 3) for n in range(8)]
    assert dims == (1, 4, 11, 23, 42, 69, 106, 154)


def _monomial_growth(s, max_n):
    """dim V^n for f = h^s, g = 0 and q != 0, where every word is a nonzero
    scalar times one normal monomial: x^i h^j y^k times x is x^(i+1) h^(s*j)
    y^k (as h x = x h^s and y x = q x y), times y is x^i h^j y^(k+1), and
    times h is x^i h^(j + s^k) y^k (as y h = h^s y).  So dim V^n counts the
    monomials a breadth-first search reaches in at most n moves."""
    reached = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    dims = [1]
    for _ in range(max_n):
        new = []
        for i, j, k in frontier:
            for mono in ((i + 1, s * j, k), (i, j, k + 1), (i, j + s**k, k)):
                if mono not in reached:
                    reached.add(mono)
                    new.append(mono)
        frontier = new
        dims.append(len(reached))
    return dims


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize(
    "field, q",
    [(QQ, 2), (QQ, Fraction(1, 2)), (FieldSpec(5), 3)],
    ids=["Q-q2", "Q-qhalf", "F5-q3"],
)
def test_gk_monomial_algebra_matches_breadth_first_count(field, q, s):
    A = algebra(field, q, [0] * s + [1], [])
    assert list(gk_dimension_sequence(A, 9).dims) == _monomial_growth(s, 9)


# -- the GK dimension's bounds as gk oracles --------------------------------
# Every presentation: the normal words x^i h^j y^k with i + j + k <= n lie in
# V^n and are basis elements, so dim V^n >= C(n+3, 3).
# deg f <= 1: with x and y of weight a = max(1, ceil(deg g / 2)) and h of
# weight 1, no rule (hx -> x f(h), yh -> f(h) y, yx -> q xy + g(h)) raises
# the weight, so V^n lies in the span of the normal monomials of weight at
# most a * n.
# deg f = s >= 2: h x^m = x^m sigma^m(h) with deg sigma^m(h) = s^m, so a word
# in x and h with i letters x is x^i p(h), deg p the sum of s^m over its h's,
# m the number of x's to that h's right; words with distinct (i, deg p) are
# linearly independent.


def _weight_count(a, n):
    """#{(i, j, k) : a(i + k) + j <= a * n}: for each i + k = t <= n, t + 1
    pairs (i, k) and a(n - t) + 1 exponents j."""
    return sum((t + 1) * (a * (n - t) + 1) for t in range(n + 1))


def _xh_word_degrees(s, max_n):
    """For n = 0..max_n, the number of distinct (i, deg p) over the words in
    x and h of length <= n, each built right to left: a new x raises i, a
    new h adds s^i."""
    reached = frontier = {(0, 0)}
    counts = [1]
    for _ in range(max_n):
        frontier = {(i + 1, e) for i, e in frontier} | {(i, e + s**i) for i, e in frontier}
        reached = reached | frontier
        counts.append(len(reached))
    return counts


# every presentation of the two corpora, by name
_BOUND_FILES = [os.path.join(CORPUS, name) for name in (
    "f11_q2_h2_h3.json", "f13_q2_h2_0.json", "f5_q2_h5_h.json", "f7_q3_h2_h2ph.json",
    "linear.json", "q1_h2_h.json", "q1_h2_h_image.json", "q2_h2p1_h3.json",
    "q2_h3ph_h.json", "q2_h4ph_h.json",
)] + [os.path.join(os.path.dirname(__file__), "corpus", name) for name in (
    "f13_q0_hp1_0.json", "f3_q2_h3ph_h2p1.json", "f5_q2_h5_h_image.json",
    "fbig_q3_h2mh_h.json", "q0_h2_h.json", "q2_1mh_h.json", "q2_const_h.json",
    "q2_h2pbig_h.json", "qhalf_h2m1_h.json",
)]
# on a 2-vCPU host, n = 7 took 3.0 s on q2_h4ph_h and 4.2 s on q2_h2pbig_h's
# 2000-digit constant, where n = 6 takes 0.3 s
_BOUND_HORIZON = {"q2_h4ph_h.json": 6, "q2_h2pbig_h.json": 6}


def _bound_cases():
    for path in _BOUND_FILES:
        name = os.path.basename(path)
        yield pytest.param(load_algebra(path), _BOUND_HORIZON.get(name, 7), id=name)
    # deg f <= 1 with deg g >= 3, beyond the cubic formula's reach
    yield pytest.param(algebra(QQ, 2, [1, 1], [0, 0, 0, 1]), 7, id="Q-h+1-h^3")
    yield pytest.param(algebra(QQ, 0, [1, 1], [0, 0, 0, 0, 1]), 7, id="Q-q0-h+1-h^4")
    yield pytest.param(algebra(F7, 2, [3], [0] * 5 + [1]), 7, id="F7-3-h^5")


def _assert_within_gk_bounds(A, dims):
    assert all(dim >= comb(n + 3, 3) for n, dim in enumerate(dims)), dims
    s = A.f.degree()
    if s <= 1:
        a = max(1, (max(A.g.degree(), 0) + 1) // 2)
        assert all(dim <= _weight_count(a, n) for n, dim in enumerate(dims)), dims
    else:
        lows = _xh_word_degrees(s, len(dims) - 1)
        assert all(dim >= low for dim, low in zip(dims, lows)), dims


@pytest.mark.parametrize("A, horizon", list(_bound_cases()))
def test_gk_dims_within_the_gk_dimension_bounds(A, horizon):
    _assert_within_gk_bounds(A, gk_dimension_sequence(A, horizon).dims)


def test_growth_pool_dims_within_the_gk_dimension_bounds():
    # the recorded dims alone: test_gk_matches_the_recorded_growth_pool ties
    # them to gk, so this runs no gk
    with open(os.path.join(CORPUS, "growth_pool.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    assert len(pool["entries"]) == 45
    for entry in pool["entries"]:
        assert len(entry["dims"]) == pool["horizon"] + 1, entry["id"]
        _assert_within_gk_bounds(algebra_from_dict(entry["algebra"]), entry["dims"])


def test_gk_dimension_bound_counts():
    # both counts against a plain enumeration; the weight count is C(n+3, 3)
    # for a = 1, and the word count at least 2^floor(n/2) (364 for s = 2 at n = 9)
    for a in (1, 2, 3):
        for n in range(6):
            triples = itertools.product(range(a * n + 1), repeat=3)
            assert _weight_count(a, n) == sum(a * (i + k) + j <= a * n for i, j, k in triples)
    assert [_weight_count(1, n) for n in range(10)] == [comb(n + 3, 3) for n in range(10)]
    for s in (2, 3):
        counts = _xh_word_degrees(s, 6)
        pairs = set()
        for n in range(7):
            for w in itertools.product("xh", repeat=n):
                degree = sum(s ** w[t:].count("x") for t, ch in enumerate(w) if ch == "h")
                pairs.add((w.count("x"), degree))
            assert counts[n] == len(pairs), (s, n)
    words = _xh_word_degrees(2, 9)
    assert words[9] == 364
    assert all(count >= 2 ** (n // 2) for n, count in enumerate(words))
