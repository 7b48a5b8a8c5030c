"""JSON serialization: algebra description files, and every JSON answer
qgha writes (witnesses and reports); the `gk` CSV is `GrowthReport.to_csv`.

Algebra description schema:

    {"field": {"type": "Q"} | {"type": "Fp", "p": 7},
     "q": "<scalar>", "f": ["c0", "c1", ...], "g": ["c0", "c1", ...]}

Scalars are written as optional-sign integers or "a/b" over Q, and as
decimal residues over F_p.  Polynomials are coefficient lists ascending
in h, so ["0", "1", "2"] means 2h^2 + h.
"""

from __future__ import annotations

import json
import re

from .algebra import AlgebraParams
from .errors import SchemaError
from .fields import FieldSpec, Scalar
from .poly import Poly

# whole strings of ASCII digits: \d takes other scripts' digits, $ a final newline
_Q_SCALAR = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
DECIMAL = re.compile(r"[0-9]+")


def scalar_from_text(field: FieldSpec, text) -> Scalar:
    if not isinstance(text, str):
        raise SchemaError(f"scalar must be a string, got {text!r}")
    if not (_Q_SCALAR if field.is_rationals else DECIMAL).fullmatch(text):
        kind = "rational scalar" if field.is_rationals else "residue"
        raise SchemaError(f"malformed {kind} {text!r}")
    try:
        if field.is_rationals:
            return field.scalar(text)
        residue = int(text)
    except ValueError:  # more digits than int() converts
        raise SchemaError(f"scalar of {len(text)} characters is too long") from None
    if residue >= field.p:
        raise SchemaError(f"residue {residue} not in [0, {field.p})")
    return field.scalar(residue)


def poly_from_list(field: FieldSpec, items) -> Poly:
    if not isinstance(items, list):
        raise SchemaError(f"polynomial must be a list of scalar strings, got {items!r}")
    return Poly([scalar_from_text(field, s) for s in items], field)


def poly_to_list(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


_ALGEBRA_KEYS = {"field", "q", "f", "g"}


def algebra_from_dict(data) -> AlgebraParams:
    if not isinstance(data, dict) or set(data) != _ALGEBRA_KEYS:
        raise SchemaError("algebra description needs exactly the keys field, q, f, g")
    descriptor = data["field"]
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise SchemaError("field descriptor must be an object with a type tag")
    if descriptor["type"] == "Q":
        if set(descriptor) != {"type"}:
            raise SchemaError("rational field descriptor takes no further keys")
        field = FieldSpec()
    elif descriptor["type"] == "Fp":
        if set(descriptor) != {"type", "p"} or not isinstance(descriptor["p"], int):
            raise SchemaError("prime field descriptor needs an integer p")
        field = FieldSpec(descriptor["p"])
    else:
        raise SchemaError(f"unknown field type {descriptor['type']!r}")
    return AlgebraParams(
        field,
        scalar_from_text(field, data["q"]),
        poly_from_list(field, data["f"]),
        poly_from_list(field, data["g"]),
    )


def algebra_to_dict(algebra: AlgebraParams) -> dict:
    if algebra.field.is_rationals:
        descriptor = {"type": "Q"}
    else:
        descriptor = {"type": "Fp", "p": algebra.field.p}
    return {
        "field": descriptor,
        "q": str(algebra.q),
        "f": poly_to_list(algebra.f),
        "g": poly_to_list(algebra.g),
    }


def load_algebra(path) -> AlgebraParams:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # also long integers, deep nesting
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return algebra_from_dict(data)


def json_text(data) -> str:
    """data as indented, key-sorted JSON with a trailing newline: the form of
    every JSON file and JSON answer qgha writes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def dump_algebra(algebra: AlgebraParams, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(algebra_to_dict(algebra)))


def iso_witness_to_dict(witness: IsoWitness) -> dict:
    return {
        "u": str(witness.u),
        "v": str(witness.v),
        "c": str(witness.c),
        "decomposition": {
            "alpha": str(witness.alpha),
            "lambda": str(witness.u),
            "lambda_mu": str(witness.c),
        },
    }


def aut_to_dict(description: AutGroupDescription) -> dict:
    return {
        "torus_rank": description.torus_rank,
        "regime": description.regime.value,
        "char_caveat": description.char_caveat,
        "abelian": description.abelian,
        "finite_part": [
            {"a": str(a), "b": str(b)} for a, b in description.finite_part
        ],
    }


def center_to_dict(center: CenterDescription) -> dict:
    out: dict = {"kind": center.kind.value}
    if center.ell is not None:
        out["ell"] = center.ell
    if center.a is not None:
        out["a"] = poly_to_list(center.a)
        out["z"] = str(center.z)
    if center.reason:
        out["reason"] = center.reason
    return out


def witness_chain_to_dict(chain: WitnessChain) -> dict:
    """The chain with, for each n, the two facts that make I_n c I_{n+1}
    strict; both hold by construction (`noetherian_witness_check`)."""
    return {
        "beta": str(chain.beta),
        "depth": chain.depth,
        "verified": True,
        "checks": [
            {
                "n": n,
                "sigma_powers_divisible": True,
                "h_not_divisible": True,
            }
            for n in range(chain.depth + 1)
        ],
    }


def gdua_to_dict(presentation: GduaPresentation) -> dict:
    return {
        "v": poly_to_list(presentation.v),
        "r": str(presentation.r),
        "s": str(presentation.s),
        "gamma": str(presentation.gamma),
    }
