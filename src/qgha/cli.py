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

The grammar is one table, `_COMMANDS`: each subcommand's handler, help,
positionals, options as {flag: argparse `add_argument` keywords}, and
convert's exclusive group.  `run` first tries `_read_argv`, which takes only
the plain form of a well-formed call and returns the namespace argparse would
give.  Any other argv (-h, --opt=value, --, abbreviations, repeated options,
every usage error) goes to the argparse parser that `build_parser` makes from
the same table, so help texts, messages and exit codes are argparse's own.
A well-formed call never imports argparse.

Start-up is part of every call's cost, so each handler imports the modules it
uses: `deg` never loads the classifier, the growth code or the oracle.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .errors import InternalError, QghaError, SchemaError
from .serial import DECIMAL, json_text, load_algebra
from . import capacity  # only once loaded: the package's __getattr__ would load everything

EXIT_OK = 0
EXIT_USAGE = 1
_HIDDEN = object()  # as an option's help: argparse.SUPPRESS, which keeps it out of -h


class _UsageError(Exception):
    pass


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
        if value is not None:
            value = -value if text.startswith("-") else value
            if value >= low:
                return value
        from argparse import ArgumentTypeError

        if value is None:
            raise ArgumentTypeError(f"invalid int value: {text!r}")
        raise ArgumentTypeError(f"must be at least {low}, got {value}")

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


# options: {flag: its add_argument keywords}; group: flags of which a call gives exactly one
_Command = namedtuple("_Command", "handler help positionals options group", defaults=({}, ()))

_COMMANDS = {
    "analyze": _Command(
        _cmd_analyze, "domain/Noetherian/gdua flags and center summary", ("file",)
    ),
    "mul": _Command(
        _cmd_mul, "multiply two element expressions", ("file", "e1", "e2"),
        {"--oracle": dict(action="store_true", help=_HIDDEN)},
    ),
    "deg": _Command(_cmd_deg, "lexicographic bidegree of an element", ("file", "expr")),
    "iota": _Command(_cmd_iota, "apply the x<->y anti-automorphism", ("file", "expr")),
    "iso": _Command(_cmd_iso, "decide isomorphism of two presentations", ("file_a", "file_b")),
    "aut": _Command(_cmd_aut, "automorphism-group description", ("file",)),
    "center": _Command(_cmd_center, "center description", ("file",)),
    "gk": _Command(
        _cmd_gk, "growth dimensions of span{1,x,y,h}", ("file",),
        {"--max-n": dict(type=_int_at_least(0), required=True)},
    ),
    "noeth-witness": _Command(
        _cmd_noeth_witness, "ideal-chain witness for deg f >= 2", ("file",),
        {"--depth": dict(type=_int_at_least(1), default=5)},
    ),
    "convert": _Command(
        _cmd_convert, "down-up / generalized down-up conversions", (),
        {
            "--from-downup": dict(
                nargs=3, metavar=("ALPHA", "BETA", "GAMMA"), help="down-up parameters"
            ),
            "--from-gdua": dict(
                nargs=4, metavar=("V", "R", "S", "GAMMA"),
                help="generalized down-up parameters; V as comma-separated coefficients",
            ),
            "--to-gdua": dict(metavar="FILE", help="algebra file with deg f <= 1"),
            "--field": dict(default="Q", help="ground field: Q or Fp:<p>"),
            "--choice": dict(type=_int_at_least(0), default=0, help="root ordering to select"),
        },
        group=("--from-downup", "--from-gdua", "--to-gdua"),
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_option(token: str) -> bool:
    # every option but -h is spelled "--name", so an argument such as
    # "-3*x" or "-5/2" is a value, not an unknown option
    return token.startswith("--") or token == "-h"


def _read_argv(argv):
    """The namespace argparse gives a well-formed argv of the plain form, or
    None for any other argv.

    The plain form: a command name, then its positionals and its options in
    any order, each option spelled in full, at most once and followed by
    exactly its values; no value is an option token, every value passes its
    type, and the required options and one flag of the group are given.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    # as argparse: one str value, or a list of `nargs`, or none for a store_true `action`
    values = {
        _dest(flag): kw.get("default", False if "action" in kw else None)
        for flag, kw in command.options.items()
    }
    given, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            positionals.append(token)
            continue
        kw = command.options.get(token)
        if kw is None or token in given:
            return None
        given.add(token)
        nargs = 0 if "action" in kw else kw.get("nargs", 1)
        texts = list(itertools.islice(tokens, nargs))
        if len(texts) < nargs or any(map(_is_option, texts)):
            return None
        try:
            read = [kw.get("type", str)(text) for text in texts]
        except Exception:  # argparse reads the value again and reports the error
            return None
        values[_dest(token)] = read if "nargs" in kw else read[0] if read else True
    if len(positionals) != len(command.positionals):
        return None
    if any(kw.get("required") and flag not in given for flag, kw in command.options.items()):
        return None
    if command.group and len(given.intersection(command.group)) != 1:
        return None
    positionals = dict(zip(command.positionals, positionals))
    return SimpleNamespace(command=argv[0], handler=command.handler, **positionals, **values)


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def _parse_optional(self, arg_string):
            if arg_string.startswith("-") and not _is_option(arg_string):
                return None
            return super()._parse_optional(arg_string)

    parser = _ArgumentParser(
        prog="qgha",
        description="Exact symbolic kernel for quantum generalized Heisenberg algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.positionals:
            p.add_argument(dest)
        group = p.add_mutually_exclusive_group(required=True) if command.group else None
        for flag, kw in command.options.items():
            kw = {**kw, "help": argparse.SUPPRESS} if kw.get("help") is _HIDDEN else kw
            (group if flag in command.group else p).add_argument(flag, **kw)
        p.set_defaults(handler=command.handler)
    return parser


def run(argv) -> CommandResult:
    try:
        ns = _read_argv(argv) or build_parser().parse_args(argv)
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
