"""Slope polygons, orbit invariants, prime splitting and semicircle
tail constants for Hecke eigenvalue data.

The layers, bottom to top: ``polygon`` (the semiring of rational slope
multisets and their Newton polygons), ``galois`` (permutation actions,
orbit slopes, bisections), ``numberfield`` (mod-p factorization, prime
splitting, ordinariness defects, Weil and half bounds, field-interaction
facts), ``satotate`` (semicircle measure and its product tail
constants), ``pipeline`` (record schema, per-prime analysis, metadata
guarantees, reports) and ``cli``.

Importing the package loads none of them: each name below is looked up
in its submodule on first access (PEP 562), so a command pays only for
the layers it runs.  The data errors are defined here, so that ``cli``
catches them without loading ``pipeline`` or ``galois``, which raise
and re-export them; the CLI reports each with exit 2.
"""

import importlib

__version__ = "0.1.0"


class SchemaError(ValueError):
    """Malformed input record; the message names the record and field."""


class DataError(ValueError):
    """Well-formed but internally inconsistent data."""


class ClosureCapExceeded(RuntimeError):
    """Raised when an invariant needs a walk over a group's elements, or
    their list, and the group has more elements than the configured cap.
    The closed forms of S_n and A_n, and lambda and lambda_min decided by
    a full-cycle generator, need neither."""


_EXPORTS = {
    "polygon": ("SlopeMultiset", "frobenius_polygon", "hodge_polygon"),
    "galois": ("Permutation", "PermutationGroup"),
    "numberfield": (
        "Field", "factor_mod_p", "PrimeSplitting", "splitting_type",
        "Defect", "k_of_p", "weil_bound_check", "half_bound_check",
        "FieldInteraction", "interact_rules",
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

__all__ = [*_MODULE_OF, "SchemaError", "DataError", "ClosureCapExceeded", "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
