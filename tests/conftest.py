import os
import random

import pytest

import qgha
from qgha import capacity
from qgha import AlgebraParams, Element, FieldSpec, Poly
from qgha.errors import DivisionByZero

QQ = FieldSpec()
F7 = FieldSpec(7)


def poly(field, *coeffs):
    return Poly(coeffs, field)


def algebra(field, q, f_coeffs, g_coeffs):
    return AlgebraParams(field, q, Poly(f_coeffs, field), Poly(g_coeffs, field))


def poly_divmod(a, b):
    """Reference long division of Polys over one field by their Scalar
    coefficients: (quotient, remainder) with deg remainder < deg b."""
    assert a.field == b.field
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    rem = list(a.coeffs)
    divisor = b.coeffs
    dd = len(divisor) - 1
    lead_inv = divisor[-1].inv()
    quo = [a.field.zero] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        factor = rem[i] * lead_inv
        if factor.is_zero():
            continue
        quo[i - dd] = factor
        for j, c in enumerate(divisor):
            rem[i - dd + j] = rem[i - dd + j] - factor * c
    return Poly(quo, a.field), Poly(rem, a.field)


@pytest.fixture(autouse=True)
def _no_capacity_variable(monkeypatch):
    """cli.main applies QGHA_CAPACITY to the module bounds, so a value in the
    runner's environment would reach every later test through one call."""
    monkeypatch.delenv("QGHA_CAPACITY", raising=False)


@pytest.fixture
def set_capacity(monkeypatch):
    """Set both capacity bounds, as QGHA_CAPACITY does when qgha starts."""

    def set_bounds(bound):
        monkeypatch.setattr(capacity, "DEGREE_CAP", bound)
        monkeypatch.setattr(capacity, "SEARCH_CAP", bound)

    return set_bounds


@pytest.fixture
def alg_q1_h2_h():
    # q = 1, f = h^2, g = h over Q
    return algebra(QQ, 1, [0, 0, 1], [0, 1])


@pytest.fixture
def alg_q2_h2p1_h3():
    # q = 2, f = h^2 + 1, g = h^3 over Q
    return algebra(QQ, 2, [1, 0, 1], [0, 0, 0, 1])


@pytest.fixture
def alg_f7():
    # q = 3, f = h^2, g = h^2 + h over F_7
    return algebra(F7, 3, [0, 0, 1], [0, 1, 1])


def random_scalar(rng, field, lo=-3, hi=3):
    if field.is_rationals:
        return field.scalar(rng.randint(lo, hi))
    return field.scalar(rng.randint(0, field.p - 1))


def random_poly(rng, field, max_deg=3, allow_zero=True):
    degree = rng.randint(0, max_deg)
    p = Poly([random_scalar(rng, field) for _ in range(degree + 1)], field)
    while not allow_zero and p.is_zero():
        p = Poly([random_scalar(rng, field) for _ in range(degree + 1)], field)
    return p


def random_element(rng, alg, max_support=3, max_exp=3, max_deg=3, nonzero=False):
    while True:
        e = Element.zero(alg)
        for _ in range(rng.randint(1, max_support)):
            i = rng.randint(0, max_exp)
            k = rng.randint(0, max_exp)
            p = random_poly(rng, alg.field, max_deg)
            e = e + Element.monomial(alg, i, p, k)
        if not (nonzero and e.is_zero()):
            return e


def rng_for(name):
    return random.Random(f"qgha-{name}")


def child_env():
    """Environment for a child interpreter that imports this qgha checkout,
    with the capacity bounds at their defaults."""
    src = os.path.dirname(os.path.dirname(qgha.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("QGHA_CAPACITY", None)
    return env
