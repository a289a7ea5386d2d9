"""dblnerve: finite 2-categories, double categories, and their nerves.

Everything here is exhaustive desk-scale enumeration over composition
tables: validators for (2-/double) categories, weak-horizontal-
invertibility witnesses, biequivalence and trivial-fibration checkers, a
lifting-property engine, oriental shape families, and bisimplicial nerve
levels computed along two independent routes.

Importing the package runs none of its modules.  Each one but ``cli`` is
in ``sys.modules`` and an attribute of the package from the start, and
runs on its first attribute access (``importlib.util.LazyLoader``); an
exported name is read from its module on first access and kept (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# each module but cli, with the names the package exports from it
_EXPORTS = {
    "cat": ("CatFunctor", "FiniteCategory", "is_free_category", "validate_category"),
    "dblcat": ("DoubleFunctor", "FiniteDoubleCategory", "equivalence_embed", "horizontal_embed",
               "underlying", "validate_double_category", "validate_double_functor",
               "vertical_embed"),
    "errors": ("BoundaryMismatch", "BudgetExceeded", "DblnerveError", "DisagreementBug",
               "NotAdjoint", "NotAnEquivalence", "NotWhi", "RangeExceeded", "SchemaError",
               "UsageError", "ValidationError"),
    "expr": ("HorizontalEquivalence",),
    "io": ("load_document", "load_path", "serialize"),
    "nerve": ("SimplexSet", "comparison_maps", "dbl_nerve_degeneracy", "dbl_nerve_face",
              "dbl_nerve_level", "dbl_nerve_oracle", "fibrancy_vertical_check", "n2_degeneracy",
              "n2_face", "n2_simplices", "segal_tfib_check", "two_nerve_level"),
    "presentation": ("Presentation", "PresentationBuilder", "PresentationMorphism",
                     "enumerate_functors", "has_rlp"),
    "pseudohom": ("PseudoHom", "enumerate_double_functors_concrete", "hpnt_equivalence_report",
                  "is_hpnt_equivalence", "pseudo_hom"),
    "shapes": ("generating_cofibrations_dbl", "generating_cofibrations_two", "oriental",
               "oriental_adjoint_presentation", "oriental_inv", "oriental_inv_presentation",
               "oriental_variant", "shape_2cat", "v_oriental_inv"),
    "standard": (),
    "tensor": ("lx_presentations", "x_presentation"),
    "twocat": ("FiniteTwoCategory", "TwoFunctor", "is_biequivalence", "is_trivial_fibration_two",
               "promote_equivalence", "validate_two_category", "validate_two_functor"),
    "whi": ("WhiWitness", "horizontal_equivalences", "is_double_biequivalence",
            "is_trivial_fibration", "is_weakly_horizontally_invariant", "is_whi_square",
            "promote_witness", "weak_inverse", "whi_squares"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register(name):
    """The submodule ``name``, put in ``sys.modules`` to run on first use."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((name, _register(name)) for name in _EXPORTS)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
