"""Slope polygons, orbit invariants, prime splitting and semicircle
tail constants for Hecke eigenvalue data.

The layers, bottom to top: ``polygon`` (the semiring of rational slope
multisets and their Newton polygons), ``galois`` (permutation actions,
orbit slopes, bisections, field-interaction facts), ``numberfield``
(mod-p factorization, prime splitting, ordinariness defects, Weil and
half bounds), ``satotate`` (semicircle measure and its product tail
constants), ``pipeline`` (record schema, per-prime analysis, metadata
guarantees, reports) and ``cli``.

Importing the package loads none of them: each name below is looked up
in its submodule on first access (PEP 562), so a command pays only for
the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "polygon": ("SlopeMultiset", "frobenius_polygon", "hodge_polygon"),
    "galois": ("Permutation", "PermutationGroup", "FieldInteraction", "interact_rules"),
    "numberfield": (
        "Field", "factor_mod_p", "PrimeSplitting", "splitting_type", "element_in_prime",
        "Defect", "k_of_p", "weil_bound_check", "half_bound_check",
    ),
    "satotate": (
        "CEstimate", "METHOD_CLOSED", "METHOD_SERIES",
        "tail_constant", "tail_constant_closed_form", "tail_table",
    ),
    "pipeline": (
        "FormRecord", "FormAnalysis", "PrimeReport", "Guarantee",
        "load_forms", "analyze_form", "guarantee", "emit_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
