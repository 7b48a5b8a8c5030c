"""Exact symbolic kernel for quantum generalized Heisenberg algebras H_q(f, g).

The algebra on generators x, y, h with relations

    h*x = x*f(h),    y*h = f(h)*y,    y*x - q*x*y = g(h)

over Q or a prime field, with normal-form element arithmetic, structural
analysis (domain/Noetherian/center/growth), an isomorphism decider with
explicit witnesses, automorphism-group computation, and down-up
conversions.

Importing the package loads only `errors` and `__version__`, so a CLI
subcommand pays for the modules it uses and no others.  The first lookup of
any other public name (`qgha.Poly`, `from qgha import *`) loads the whole
public API listed in `__all__` at once (PEP 562 module `__getattr__`).
"""

from . import errors

__version__ = "0.1.0"

# Each public name, by the module that defines it: the single list behind
# `__all__` and the lazy load below.
_PUBLIC = {
    "algebra": "DEG_BOTTOM AlgebraParams Element leading_term_product yx_expand",
    "classify": (
        "AutGroupDescription AutRegime GduaPresentation IsoWitness apply_witness"
        " automorphism_group automorphism_preserves_relations downup_candidates"
        " from_downup from_gdua is_isomorphic to_gdua transform_type_I"
        " transform_type_II transform_type_III"
    ),
    "exprparse": "parse_element_expr",
    "fields": "FieldSpec Scalar field_make nth_roots root_of_unity_order",
    "poly": "NEG_INF Poly affine_conjugate poly_roots sigma_pow",
    "rewrite": "FreeWord element_words oracle_multiply reduce_word",
    "serial": "algebra_from_dict algebra_to_dict dump_algebra load_algebra",
    "structure": (
        "CenterDescription CenterKind DomainReport GrowthReport NoetherianReason"
        " NoetherianReport StrictnessCheck WitnessChain center_describe"
        " centralizer_of_h_contains gk_dimension_sequence is_central is_domain"
        " is_noetherian noetherian_witness_check solve_sigma_q"
    ),
}
__all__ = ["errors", "capacity", *_PUBLIC, *" ".join(_PUBLIC.values()).split()]


def __getattr__(name: str):
    """Load the whole public API on the first lookup of a name not yet bound;
    loading also binds every submodule, so later lookups skip this hook."""
    if not name.startswith("__"):
        from importlib import import_module

        for module_name, names in _PUBLIC.items():
            module = import_module(f"{__name__}.{module_name}")
            globals().update((n, getattr(module, n)) for n in names.split())
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
