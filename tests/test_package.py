"""The package namespace: every public name loads on first use, importing
the package alone loads only `errors`, and modules import at module level."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import qgha

from conftest import QQ, algebra, child_env

# Every name the package exported when it imported all its modules eagerly,
# by the module that defines it.
PUBLIC_API = {
    "algebra": ["DEG_BOTTOM", "AlgebraParams", "Element", "leading_term_product", "yx_expand"],
    "classify": [
        "AutGroupDescription", "AutRegime", "GduaPresentation", "IsoWitness",
        "apply_witness", "automorphism_group", "automorphism_preserves_relations",
        "downup_candidates", "from_downup", "from_gdua", "is_isomorphic", "to_gdua",
        "transform_type_I", "transform_type_II", "transform_type_III",
    ],
    "exprparse": ["parse_element_expr"],
    "fields": ["FieldSpec", "Scalar", "field_make", "nth_roots", "root_of_unity_order"],
    "poly": ["NEG_INF", "Poly", "affine_conjugate", "poly_roots", "sigma_pow"],
    "rewrite": ["FreeWord", "element_words", "oracle_multiply", "reduce_word"],
    "serial": ["algebra_from_dict", "algebra_to_dict", "dump_algebra", "load_algebra"],
    "structure": [
        "CenterDescription", "CenterKind", "DomainReport", "GrowthReport",
        "NoetherianReason", "NoetherianReport", "WitnessChain",
        "center_describe", "centralizer_of_h_contains", "gk_dimension_sequence",
        "is_central", "is_domain", "is_noetherian", "noetherian_witness_check",
        "solve_sigma_q",
    ],
}
SUBMODULES = ["errors", "capacity", *PUBLIC_API]
ALL_NAMES = SUBMODULES + [name for names in PUBLIC_API.values() for name in names]


def _fresh_python(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_resolves_to_its_module():
    assert sorted(qgha.__all__) == sorted(ALL_NAMES)
    for module_name, names in PUBLIC_API.items():
        module = importlib.import_module(f"qgha.{module_name}")
        for name in names:
            assert getattr(qgha, name) is getattr(module, name), name
    for module_name in SUBMODULES:
        assert getattr(qgha, module_name) is sys.modules[f"qgha.{module_name}"]


def _imports(path):
    """(enclosing def or class, or None at module level, imported module) of
    each import statement in the file; a relative module keeps its dots."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((scope, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((scope, "." * child.level + (child.module or "")))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if inner else scope)

    visit(tree, None)
    return found


def test_module_graph_is_one_way():
    # Imports sit at module level, so the graph between modules is the one
    # their headers state; only the CLI loads per subcommand and only the
    # package's __getattr__ loads the API on demand.  fields is the bottom
    # of the arithmetic: poly builds on it, never the other way round.
    package = os.path.dirname(qgha.__file__)
    nested = {
        (name, scope, module)
        for name in sorted(os.listdir(package))
        if name.endswith(".py") and name != "cli.py"
        for scope, module in _imports(os.path.join(package, name))
        if scope is not None
    }
    assert nested == {("__init__.py", "__getattr__", "importlib")}
    fields = {module for _, module in _imports(os.path.join(package, "fields.py"))}
    assert not fields & {".poly", "qgha.poly"}, fields


def test_unknown_names_raise_attribute_error():
    assert not hasattr(qgha, "no_such_name")
    assert not hasattr(qgha, "__wrapped__")
    with pytest.raises(AttributeError, match="no_such_name"):
        qgha.no_such_name


def test_star_import_binds_every_name():
    code = (
        "import sys\n"
        "from qgha import *\n"
        "print(' '.join(n for n in sys.argv[1:] if n not in globals()))\n"
    )
    assert _fresh_python(code, *ALL_NAMES).strip() == ""


def test_errors_and_version_load_nothing_else():
    code = (
        "import sys\n"
        "import qgha\n"
        "assert issubclass(qgha.errors.SchemaError, qgha.errors.QghaError)\n"
        "assert qgha.__version__\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qgha'))))\n"
    )
    assert _fresh_python(code).split() == ["qgha", "qgha.errors"]


def test_reports_are_immutable(alg_q1_h2_h):
    linear = algebra(QQ, 1, [0, 1], [0, 1])
    reports = [
        qgha.is_domain(alg_q1_h2_h),
        qgha.is_noetherian(alg_q1_h2_h),
        qgha.noetherian_witness_check(alg_q1_h2_h, 2),
        qgha.center_describe(algebra(QQ, 2, [0, 0, 1], [0, 1])),
        qgha.gk_dimension_sequence(alg_q1_h2_h, 2),
        qgha.is_isomorphic(alg_q1_h2_h, alg_q1_h2_h),
        qgha.automorphism_group(alg_q1_h2_h),
        qgha.to_gdua(linear),
    ]
    assert {type(r).__name__ for r in reports} == {
        "DomainReport", "NoetherianReport", "WitnessChain",
        "CenterDescription", "GrowthReport", "IsoWitness", "AutGroupDescription",
        "GduaPresentation",
    }
    for report in reports:
        field = report._fields[0]
        with pytest.raises(AttributeError):
            setattr(report, field, getattr(report, field))


# An argument outside its documented domain, one case per site.
_INVALID_ARGUMENTS = {
    "Element exponent": lambda A: qgha.Element(A, {(-1, 0): qgha.Poly.one(QQ)}),
    "yx_expand exponent": lambda A: qgha.yx_expand(1, -2, A),
    "gk max_n": lambda A: qgha.gk_dimension_sequence(A, -1),
    "witness depth": lambda A: qgha.noetherian_witness_check(A, 0),
    "sigma_pow k": lambda A: qgha.sigma_pow(A.f, -1, qgha.Poly.h(QQ)),
    "nth_roots m": lambda A: qgha.nth_roots(0, QQ.one),
    "field kind": lambda A: qgha.field_make("Zp", 7),
    "field without p": lambda A: qgha.field_make("Fp"),
    "enumerate Q": lambda A: next(QQ.elements()),
    "word letter": lambda A: qgha.FreeWord(QQ.one, "xz"),
    "rewrite strategy": lambda A: qgha.reduce_word("yx", A, strategy="innermost"),
    "down-up choice": lambda A: qgha.from_downup(QQ.zero, QQ.one, QQ.zero, choice=2),
}


@pytest.mark.parametrize("site", _INVALID_ARGUMENTS)
def test_invalid_arguments_are_typed(site, alg_q1_h2_h):
    with pytest.raises(qgha.errors.InvalidArgument) as info:
        _INVALID_ARGUMENTS[site](alg_q1_h2_h)
    # still a ValueError for callers that catch one, but an input error
    assert isinstance(info.value, ValueError)
    assert info.value.exit_code == 2
