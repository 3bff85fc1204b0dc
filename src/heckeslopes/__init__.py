"""Slope polygons, orbit invariants, prime splitting and semicircle
tail constants for Hecke eigenvalue data.

The layers, bottom to top: ``polygon`` (the semiring of rational slope
multisets and their Newton polygons), ``galois`` (permutation actions,
orbit slopes, bisections, field-interaction facts), ``numberfield``
(mod-p factorization, prime splitting, ordinariness defects, Weil and
half bounds), ``satotate`` (semicircle measure and its product tail
constants), ``pipeline`` (record schema, per-prime analysis, metadata
guarantees, reports) and ``cli``.
"""

from .galois import (
    FieldInteraction,
    Permutation,
    PermutationGroup,
    interact_rules,
)
from .numberfield import (
    Defect,
    PrimeSplitting,
    element_in_prime,
    factor_mod_p,
    half_bound_check,
    k_of_p,
    splitting_type,
    weil_bound_check,
)
from .pipeline import (
    FormAnalysis,
    FormRecord,
    Guarantee,
    PrimeReport,
    analyze_form,
    emit_report,
    guarantee,
    load_forms,
)
from .polygon import SlopeMultiset, frobenius_polygon, hodge_polygon
from .satotate import (
    METHOD_CLOSED,
    METHOD_SERIES,
    CEstimate,
    tail_constant,
    tail_constant_closed_form,
    tail_table,
)

__version__ = "0.1.0"

__all__ = [
    "SlopeMultiset",
    "frobenius_polygon",
    "hodge_polygon",
    "Permutation",
    "PermutationGroup",
    "FieldInteraction",
    "interact_rules",
    "factor_mod_p",
    "PrimeSplitting",
    "splitting_type",
    "element_in_prime",
    "Defect",
    "k_of_p",
    "weil_bound_check",
    "half_bound_check",
    "CEstimate",
    "METHOD_CLOSED",
    "METHOD_SERIES",
    "tail_constant",
    "tail_constant_closed_form",
    "tail_table",
    "FormRecord",
    "FormAnalysis",
    "PrimeReport",
    "Guarantee",
    "load_forms",
    "analyze_form",
    "guarantee",
    "emit_report",
    "__version__",
]
