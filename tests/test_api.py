"""The package's public names, pinned.

``skeinkit.__all__`` is listed here in full, so a name that leaves the
package, or a name only the tests use that comes back into it, shows in
this file's diff.  Every module's ``__all__`` names what the module
binds, and every package-level name is one a module exports: a name in
its ``__all__``, or, in a module without one, a name not starting with
an underscore, which is what ``from module import *`` takes.
"""

import importlib
import pkgutil

import skeinkit

PUBLIC = [
    "A",
    "AdequacyError",
    "AdmissibilityError",
    "BracketValue",
    "BudgetError",
    "CoeffList",
    "CyclotomicError",
    "DELTA",
    "DiagramError",
    "ExactDivisionError",
    "ExpressionError",
    "FamilyExpr",
    "FamilySpec",
    "GradingError",
    "LaurentPoly",
    "LayoutError",
    "LinkDiagram",
    "Matching",
    "MemberError",
    "PDSyntaxError",
    "QPoly",
    "RationalFn",
    "Ring",
    "State",
    "StateGraph",
    "StepCheck",
    "TLMorphism",
    "TailReport",
    "TwistRegion",
    "WindowError",
    "ZeroPolynomialError",
    "apply_state",
    "boxed",
    "bracket_state_sum",
    "bracket_window",
    "cabled_crossing",
    "cabled_kink",
    "channel_element",
    "channel_probe",
    "check_color_stability",
    "check_colored_rate",
    "close_ring",
    "closure",
    "colored_state_sum",
    "compose",
    "crossing_morphism",
    "delta",
    "exact_div",
    "family_tail",
    "fusion_coeff",
    "is_adequate",
    "is_alternating",
    "is_minus_adequate",
    "jones_wenzl",
    "min_degree",
    "minus_graph",
    "mirror",
    "n_equivalent",
    "normalize",
    "parse_pd",
    "plus_graph",
    "predicted_min_degree",
    "pretzel",
    "pretzel_family",
    "qpoch4",
    "quantum_fact",
    "quantum_int",
    "reduced_jones",
    "reduced_minus_graph",
    "reduced_window",
    "reduced_windows",
    "seam_closure",
    "substitute_quarter",
    "tensor",
    "tet",
    "theta",
    "theta_network",
    "turnback",
    "twist_coeff",
    "unreduced_colored_jones",
    "vertex_morphism",
    "window_from_bracket",
    "window_from_reduced",
]

# every module but ``__main__``, which runs the command line on import
MODULES = [importlib.import_module(f"skeinkit.{info.name}")
           for info in pkgutil.iter_modules(skeinkit.__path__)
           if not info.name.startswith("_")]


def exports(module):
    """The names ``from module import *`` takes."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


def test_package_names_are_pinned():
    assert sorted(skeinkit.__all__) == PUBLIC


def test_every_module_binds_its_all():
    for module in MODULES:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_every_package_name_is_a_module_export():
    strays = [name for name in skeinkit.__all__
              if not any(name in exports(module)
                         and getattr(module, name) is getattr(skeinkit, name)
                         for module in MODULES)]
    assert strays == []
