"""Command-line front end.

Subcommands:

    analyze FILE                    domain / Noetherian / gdua flags, center summary
    mul FILE E1 E2                  product of two element expressions
    deg FILE E                      lexicographic bidegree of an element
    iota FILE E                     the x<->y anti-automorphism
    iso FILEA FILEB                 isomorphism witness (JSON) or "not isomorphic"
    aut FILE                        automorphism-group description (JSON)
    center FILE                     center description (JSON)
    gk FILE --max-n N               growth dimensions (CSV)
    noeth-witness FILE [--depth N]  ideal-chain witness (JSON)
    convert ...                     down-up / generalized down-up conversions

Exit codes: 0 success, 1 usage; every other failure exits with the
`exit_code` of its `errors.QghaError` subclass, which that class documents.
A file that cannot be read exits as a SchemaError, and a bare ValueError,
which no input error raises, as an InternalError.
Identical inputs produce byte-identical outputs.  `main` reads the
QGHA_CAPACITY environment variable once, when the command starts: a whole
ASCII count above 0 sets both capacity bounds, anything else keeps them.

Start-up is part of every call's cost, so each handler imports the modules it
uses: `deg` never loads the classifier, the growth code or the oracle.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple

from .errors import InternalError, QghaError, SchemaError
from .serial import DECIMAL, json_text, load_algebra
from . import capacity  # only once loaded: the package's __getattr__ would load everything

EXIT_OK = 0
EXIT_USAGE = 1


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # every option but -h is spelled "--name", so an argument such as
        # "-3*x" or "-5/2" is a value, not an unknown option
        single_dash = arg_string.startswith("-") and not arg_string.startswith("--")
        if single_dash and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _decimal(text: str) -> "int | None":
    """text's value if it is whole ASCII digits that int() converts, else None."""
    try:
        return int(text) if DECIMAL.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def _int_at_least(low: int):
    """argparse type: an int >= low, so a bad count is a usage error."""

    def parse(text: str) -> int:
        value = _decimal(text.removeprefix("-"))
        if value is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        value = -value if text.startswith("-") else value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


CommandResult = namedtuple(
    "CommandResult", "exit_code payload note error", defaults=("", "", "")
)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _center_summary(algebra) -> str:
    from .structure import CenterKind, center_describe

    if algebra.f.degree() < 2 or algebra.q.is_zero():
        return "not computed (needs deg f >= 2 and q != 0)"
    center = center_describe(algebra)
    if center.kind is CenterKind.SCALARS_ONLY:
        return "scalars only (q is not a root of unity)"
    if center.kind is CenterKind.POLYNOMIAL_IN_Z_ELL:
        return f"F[Z^{center.ell}] where Z = {center.z}"
    return f"undetermined ({center.reason})"


def _cmd_analyze(ns) -> CommandResult:
    from .structure import is_domain, is_noetherian

    algebra = load_algebra(ns.file)
    domain = is_domain(algebra)
    noetherian = is_noetherian(algebra, witness_depth=None)  # the verdict only
    lines = [
        f"domain: {_bool(domain.verdict)} ({domain.reason})",
        f"noetherian: {_bool(noetherian.verdict)} ({noetherian.reason.value})",
        f"gdua: {_bool(algebra.is_gdua)}",
        f"center: {_center_summary(algebra)}",
    ]
    return CommandResult(EXIT_OK, "\n".join(lines) + "\n")


def _cmd_mul(ns) -> CommandResult:
    from .exprparse import parse_element_expr

    algebra = load_algebra(ns.file)
    left = parse_element_expr(ns.e1, algebra)
    right = parse_element_expr(ns.e2, algebra)
    if ns.oracle:
        from .rewrite import oracle_multiply

        return CommandResult(EXIT_OK, f"{oracle_multiply(left, right)}\n")
    return CommandResult(EXIT_OK, f"{left * right}\n")


def _cmd_deg(ns) -> CommandResult:
    from .algebra import DEG_BOTTOM
    from .exprparse import parse_element_expr

    algebra = load_algebra(ns.file)
    element = parse_element_expr(ns.expr, algebra)
    degree = element.deg_lex()
    if degree == DEG_BOTTOM:
        return CommandResult(EXIT_OK, "(-inf, -inf)\n")
    return CommandResult(EXIT_OK, f"({degree[0]}, {degree[1]})\n")


def _cmd_iota(ns) -> CommandResult:
    from .exprparse import parse_element_expr

    algebra = load_algebra(ns.file)
    element = parse_element_expr(ns.expr, algebra)
    return CommandResult(EXIT_OK, f"{element.iota()}\n")


def _cmd_iso(ns) -> CommandResult:
    from .classify import is_isomorphic

    left = load_algebra(ns.file_a)
    right = load_algebra(ns.file_b)
    witness = is_isomorphic(left, right)
    if witness is None:
        return CommandResult(EXIT_OK, "not isomorphic\n")
    return CommandResult(EXIT_OK, json_text(witness.to_dict()))


def _cmd_aut(ns) -> CommandResult:
    from .classify import automorphism_group
    from .serial import aut_to_dict

    algebra = load_algebra(ns.file)
    return CommandResult(EXIT_OK, json_text(aut_to_dict(automorphism_group(algebra))))


def _cmd_center(ns) -> CommandResult:
    from .serial import center_to_dict
    from .structure import center_describe

    algebra = load_algebra(ns.file)
    return CommandResult(EXIT_OK, json_text(center_to_dict(center_describe(algebra))))


def _cmd_gk(ns) -> CommandResult:
    from .structure import gk_dimension_sequence

    algebra = load_algebra(ns.file)
    report = gk_dimension_sequence(algebra, ns.max_n)
    return CommandResult(EXIT_OK, report.to_csv())


def _cmd_noeth_witness(ns) -> CommandResult:
    from .serial import witness_chain_to_dict
    from .structure import noetherian_witness_check

    algebra = load_algebra(ns.file)
    chain = noetherian_witness_check(algebra, ns.depth)
    return CommandResult(EXIT_OK, json_text(witness_chain_to_dict(chain)))


def _parse_field_flag(text: str):
    from .fields import FieldSpec

    if text == "Q":
        return FieldSpec()
    if text.startswith("Fp:"):
        p = _decimal(text[3:])
        if p is None:
            raise _UsageError(f"malformed field spec {text!r}")
        return FieldSpec(p)
    raise _UsageError(f"field spec must be Q or Fp:<p>, got {text!r}")


def _cmd_convert(ns) -> CommandResult:
    from .classify import GduaPresentation, downup_candidates, from_gdua, to_gdua
    from .serial import algebra_to_dict, gdua_to_dict, poly_from_list, scalar_from_text

    if ns.to_gdua is not None:
        algebra = load_algebra(ns.to_gdua)
        return CommandResult(EXIT_OK, json_text(gdua_to_dict(to_gdua(algebra))))
    field = _parse_field_flag(ns.field)
    if ns.from_gdua is not None:
        v_text, r_text, s_text, gamma_text = ns.from_gdua
        presentation = GduaPresentation(
            v=poly_from_list(field, v_text.split(",")),
            r=scalar_from_text(field, r_text),
            s=scalar_from_text(field, s_text),
            gamma=scalar_from_text(field, gamma_text),
        )
        return CommandResult(EXIT_OK, json_text(algebra_to_dict(from_gdua(presentation))))
    alpha, beta, gamma = (scalar_from_text(field, t) for t in ns.from_downup)
    candidates = downup_candidates(alpha, beta, gamma)
    if ns.choice >= len(candidates):
        raise _UsageError(
            f"--choice {ns.choice} out of range for {len(candidates)} root ordering(s)"
        )
    note = ""
    if len(candidates) > 1:
        orderings = ", ".join(f"(r={r}, s={s})" for r, s, _ in candidates)
        note = f"note: two root orderings {orderings}; --choice selects one\n"
    chosen = candidates[ns.choice][2]
    return CommandResult(EXIT_OK, json_text(algebra_to_dict(chosen)), note=note)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="qgha",
        description="Exact symbolic kernel for quantum generalized Heisenberg algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="domain/Noetherian/gdua flags and center summary")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("mul", help="multiply two element expressions")
    p.add_argument("file")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("deg", help="lexicographic bidegree of an element")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_deg)

    p = sub.add_parser("iota", help="apply the x<->y anti-automorphism")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_iota)

    p = sub.add_parser("iso", help="decide isomorphism of two presentations")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("aut", help="automorphism-group description")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("center", help="center description")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_center)

    p = sub.add_parser("gk", help="growth dimensions of span{1,x,y,h}")
    p.add_argument("file")
    p.add_argument("--max-n", type=_int_at_least(0), required=True, dest="max_n")
    p.set_defaults(handler=_cmd_gk)

    p = sub.add_parser("noeth-witness", help="ideal-chain witness for deg f >= 2")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(1), default=5)
    p.set_defaults(handler=_cmd_noeth_witness)

    p = sub.add_parser("convert", help="down-up / generalized down-up conversions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--from-downup",
        nargs=3,
        metavar=("ALPHA", "BETA", "GAMMA"),
        help="down-up parameters",
    )
    group.add_argument(
        "--from-gdua",
        nargs=4,
        metavar=("V", "R", "S", "GAMMA"),
        help="generalized down-up parameters; V as comma-separated coefficients",
    )
    group.add_argument("--to-gdua", metavar="FILE", help="algebra file with deg f <= 1")
    p.add_argument("--field", default="Q", help="ground field: Q or Fp:<p>")
    p.add_argument("--choice", type=_int_at_least(0), default=0, help="root ordering to select")
    p.set_defaults(handler=_cmd_convert)

    return parser


def run(argv) -> CommandResult:
    try:
        ns = build_parser().parse_args(argv)
        return ns.handler(ns)
    except _UsageError as exc:
        return CommandResult(EXIT_USAGE, error=f"usage error: {exc}")
    except SystemExit as exc:  # --help
        return CommandResult(exc.code or 0)
    except OSError as exc:
        return CommandResult(SchemaError.exit_code, error=f"error: {exc}")
    except QghaError as exc:
        return CommandResult(exc.exit_code, error=f"error: {exc}")
    except ValueError as exc:  # no input error is a bare ValueError
        return CommandResult(
            InternalError.exit_code, error=f"error: internal error: {exc}"
        )


def main(argv=None) -> int:
    bound = _decimal(os.environ.get("QGHA_CAPACITY", ""))
    if bound:  # None or 0 keeps the bounds
        capacity.DEGREE_CAP = capacity.SEARCH_CAP = bound
    result = run(sys.argv[1:] if argv is None else list(argv))
    if result.payload:
        sys.stdout.write(result.payload)
    if result.note:
        sys.stderr.write(result.note)
    if result.error:
        sys.stderr.write(result.error + "\n")
    return result.exit_code
