"""End-to-end eigenform analysis: records in, reports and guarantees out.

Input is a JSON list of form records::

    [{"label": "...", "d": 1, "field_poly": [0, 1], "level_norm": 11,
      "weight": [2], "hecke_poly": [0, 1], "cm": false,
      "k_f_circ": 1,                      // optional
      "assumptions": ["RST"],             // optional: SST | RST | tST(n)
      "galois_gens": ["(0 1)(2 3)"],      // optional, with galois_degree
      "galois_degree": 4,
      "interact": {"deg_K": 2, "deg_F": 1, ...},   // optional
      "ap": [{"p": 2, "split_in_F": true, "a": ["-2"]}, ...]}]

with rationals written as strings ("3", "-1/2").  ``analyze_form``
classifies each listed prime: skipped (not split in the base field,
ramified in the Hecke field, or carrying an index warning), degenerate
(a_p = 0 lies in every prime, defect = full degree), or analyzed with
its ordinariness defect k(p), Newton/Hodge polygons and the large-prime
half bound; the Weil bound check runs only in the JSON report, the one
output that prints it.  The skipped_ramified and skipped_index statuses
are ``k_of_p``'s refusals (``RamifiedPrimeError``, ``IndexWarningError``)
when p divides the discriminant of the Hecke polynomial.  Today every
such p is refused as ramified, so skipped_index does not occur; it
remains a distinct status for the report contract.

What belongs to a field is computed once per file: each distinct
generator list is parsed once, records with equal generators share one
``PermutationGroup``, and records with equal polynomials share one
``numberfield.Field``, with its discriminant, roots and split verdicts.

``guarantee`` classifies what the record's metadata alone proves about
defects and ordinary density, choosing the strongest applicable case
(smallest defect bound; ties prefer the better density class, then
unconditional cases).  Empirical densities in summaries are plain
ratios over analyzed primes and estimate natural density only as the
prime bound grows; report output carries that caveat verbatim.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from ._errors import DataError, SchemaError
from .galois import (
    FACT_SLOPE_ZERO_OVER_F,
    FACT_SLOPE_ZERO_OVER_F_TILDE,
    FieldInteraction,
    Permutation,
    PermutationGroup,
    interact_rules,
)
from .numberfield import (
    Field,
    IndexWarningError,
    RamifiedPrimeError,
    half_bound_check,
    is_prime,
    k_of_p,
    splits_completely,
    weil_bound_check,
)
from .polygon import SlopeMultiset, _exact, frobenius_polygon, hodge_polygon, vertices_payload

__all__ = [
    "SchemaError",
    "DataError",
    "ApEntry",
    "FormRecord",
    "PrimeReport",
    "FormSummary",
    "FormAnalysis",
    "Guarantee",
    "load_forms",
    "records_from_obj",
    "analyze_form",
    "guarantee",
    "emit_report",
    "vertices_payload",
]


STATUS_ANALYZED = "analyzed"
STATUS_SKIPPED_NONSPLIT = "skipped_nonsplit"
STATUS_SKIPPED_RAMIFIED = "skipped_ramified"
STATUS_SKIPPED_INDEX = "skipped_index"
STATUS_DEGENERATE_AP_ZERO = "degenerate_ap_zero"

CASE_CM = "CM_ordinary"
CASE_SMALL_FIELD = "SmallFrobeniusField"
CASE_ZERO_SLOPE = "ZeroSlope"
CASE_SLOPE_BOUND = "SlopeBound"
CASE_RST = "RSTBound"
CASE_BISECTION = "BisectionRST"
CASE_HALF = "HalfBoundOnly"
CASE_WEIGHT3 = "Weight3Bound"

DENSITY_PRINCIPAL = "principally_abundant"
DENSITY_ABUNDANT = "abundant"
DENSITY_CONDITIONAL = "conditional_abundant"
DENSITY_NONE = "none"

_DENSITY_RANK = {
    DENSITY_PRINCIPAL: 3,
    DENSITY_ABUNDANT: 2,
    DENSITY_CONDITIONAL: 1,
    DENSITY_NONE: 0,
}

DENSITY_CAVEAT = (
    "empirical density is the ratio over the analyzed primes only; it "
    "estimates the natural density of ordinary primes only as the prime "
    "bound grows"
)

ASSUMPTION_SST = "SST"
ASSUMPTION_RST = "RST"
_TST_RE = re.compile(r"tST\(([0-9]+)\)")  # fullmatch: ASCII digits, no trailing newline
_INT_RE = re.compile(r"[-+]?[0-9]+")  # read alike by int and Fraction on every Python


class ApEntry(NamedTuple):
    p: int
    split_in_F: bool
    a: tuple[Union[int, Fraction], ...]  # int unless written "a/b", "3.0", ...


class FormRecord(NamedTuple):
    """One eigenform worth of data plus the optional metadata that the
    guarantee classifier can exploit.  ``k_f`` is the Hecke field
    degree, ``k_f_circ`` the degree of its self-twist-invariant
    subfield when known (never inferred)."""

    label: str
    d: int
    field_poly: tuple[int, ...]
    level_norm: int
    weight: tuple[int, ...]
    hecke_poly: tuple[int, ...]
    cm: bool
    k_f_circ: Optional[int] = None
    d_tilde: Optional[int] = None
    assumptions: frozenset[str] = frozenset()
    galois_action: Optional[PermutationGroup] = None
    interact: Optional[FieldInteraction] = None
    eigenvalues: tuple[ApEntry, ...] = ()

    @property
    def k_f(self) -> int:
        return len(self.hecke_poly) - 1

    @property
    def motivic_weight(self) -> int:
        return self.weight[0]


class PrimeReport(NamedTuple):
    """Outcome for one listed prime (the JSON report adds ``weil_ok``).
    Skipped rows leave the numeric fields at ``None``."""

    p: int
    status: str
    k_p: Optional[int] = None
    newton: Optional[SlopeMultiset] = None
    hodge: Optional[SlopeMultiset] = None
    ordinary: Optional[bool] = None
    half_bound: Optional[str] = None


class FormSummary(NamedTuple):
    n_primes: int
    n_analyzed: int
    n_ordinary: int
    ordinary_density: Optional[Fraction]
    exceptional_primes: tuple[int, ...]
    kp_counts: tuple[tuple[int, int], ...]
    prime_bound: Optional[int]


class FormAnalysis(NamedTuple):
    record: FormRecord
    reports: tuple[PrimeReport, ...]
    summary: FormSummary


class Guarantee(NamedTuple):
    """What the metadata alone proves: a bound on the defect k(p) valid
    for all sufficiently large analyzed primes, and the density class
    of the ordinary locus it implies."""

    case: str
    bound_on_kp: Fraction
    density_class: str
    conditional_on: frozenset[str] = frozenset()


# ---------------------------------------------------------------------
# loading and validation

_REQUIRED_KEYS = {
    "label",
    "d",
    "field_poly",
    "level_norm",
    "weight",
    "hecke_poly",
    "cm",
    "ap",
}
_OPTIONAL_KEYS = {
    "k_f_circ",
    "d_tilde",
    "assumptions",
    "galois_gens",
    "galois_degree",
    "interact",
}
_AP_KEYS = {"p", "split_in_F", "a"}


def _fail(label: str, field: str, problem: str) -> None:
    raise SchemaError(f"record {label!r}, field {field!r}: {problem}")


def _int_list(label, field, value, length=None):
    if not isinstance(value, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in value
    ):
        _fail(label, field, "must be a list of integers")
    if length is not None and len(value) != length:
        _fail(label, field, f"expected length {length}, got {len(value)}")
    return tuple(value)


def _monic_poly(label, field, value, shared, degree=None):
    coeffs = _int_list(label, field, value)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        _fail(label, field, "must be a monic polynomial of degree >= 1 (ascending coefficients)")
    if degree is not None and len(coeffs) - 1 != degree:
        _fail(label, field, f"degree {len(coeffs) - 1} does not match d={degree}")
    return shared.get(coeffs) or shared.setdefault(coeffs, Field(coeffs))


def _positive_int(label, field, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail(label, field, "must be a positive integer")
    return value


def record_from_dict(obj: dict, position: int = 0, *, shared: Optional[dict] = None) -> FormRecord:
    """Validate one record object.  ``shared`` maps each polynomial, a
    tuple of ints, to its ``Field`` and (degree, generator image tuples)
    to a group, so records listing one share it, and (degree, generator
    strings) to the same group, so each distinct list is parsed once."""
    shared = {} if shared is None else shared
    if not isinstance(obj, dict):
        raise SchemaError(f"record #{position}: not a JSON object")
    label = obj.get("label")
    if not isinstance(label, str) or not label:
        raise SchemaError(f"record #{position}: missing or empty 'label'")
    if not label.isprintable():
        # a tab or line break would split the label's report row
        raise SchemaError(f"record #{position}: label {label!r} has an unprintable character")

    keys = set(obj)
    missing = _REQUIRED_KEYS - keys
    if missing:
        _fail(label, sorted(missing)[0], "required key missing")
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        _fail(label, sorted(unknown)[0], "unknown key")

    d = _positive_int(label, "d", obj["d"])
    field_poly = _monic_poly(label, "field_poly", obj["field_poly"], shared, degree=d)
    level_norm = _positive_int(label, "level_norm", obj["level_norm"])

    weight = _int_list(label, "weight", obj["weight"], length=d)
    if len(set(weight)) != 1 or weight[0] not in (2, 3):
        _fail(label, "weight", "entries must all equal 2 or all equal 3")

    hecke_poly = _monic_poly(label, "hecke_poly", obj["hecke_poly"], shared)
    k_f = len(hecke_poly) - 1

    cm = obj["cm"]
    if not isinstance(cm, bool):
        _fail(label, "cm", "must be a boolean")

    k_f_circ = None
    if "k_f_circ" in obj:
        k_f_circ = _positive_int(label, "k_f_circ", obj["k_f_circ"])
        if k_f % k_f_circ != 0:
            _fail(label, "k_f_circ", f"must divide the Hecke degree {k_f}")

    d_tilde = None
    if "d_tilde" in obj:
        d_tilde = _positive_int(label, "d_tilde", obj["d_tilde"])

    assumptions = frozenset()
    if "assumptions" in obj:
        raw = obj["assumptions"]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            _fail(label, "assumptions", "must be a list of strings")
        for s in raw:
            m = _TST_RE.fullmatch(s)
            if m is None and s not in (ASSUMPTION_SST, ASSUMPTION_RST):
                _fail(label, "assumptions", f"unknown assumption {s!r}")
            if m and len(m.group(1)) > 4300:
                # beyond Python's own limit on integer strings, which
                # early 3.10 releases lack
                _fail(label, "assumptions", "tST index has more than 4300 digits")
            if m and int(m.group(1)) < 1:
                _fail(label, "assumptions", f"tST index must be >= 1 in {s!r}")
        assumptions = frozenset(raw)

    galois_action = None
    if ("galois_gens" in obj) != ("galois_degree" in obj):
        _fail(label, "galois_gens", "galois_gens and galois_degree go together")
    if "galois_gens" in obj:
        degree = _positive_int(label, "galois_degree", obj["galois_degree"])
        if k_f % degree != 0:
            # the action permutes the embeddings of K_f or of a subfield
            _fail(label, "galois_degree", f"must divide the Hecke degree {k_f}")
        gens_raw = obj["galois_gens"]
        if not isinstance(gens_raw, list) or not all(isinstance(s, str) for s in gens_raw):
            _fail(label, "galois_gens", "must be a list of permutation strings")
        # a list seen before in this file is not parsed again; a list
        # that fails to parse ends the file, so no failure is kept
        raw_key = (degree, tuple(gens_raw))
        galois_action = shared.get(raw_key)
        if galois_action is None:
            try:
                gens = [Permutation.parse(s, degree) for s in gens_raw]
            except ValueError as exc:
                _fail(label, "galois_gens", str(exc))
            key = (degree, tuple(g.images for g in gens))
            galois_action = shared[raw_key] = shared.setdefault(key, PermutationGroup(degree, gens))

    interact = None
    if "interact" in obj:
        raw = obj["interact"]
        if not isinstance(raw, dict):
            _fail(label, "interact", "must be an object")
        unknown = set(raw).difference(FieldInteraction._fields)
        if unknown:
            _fail(label, f"interact.{sorted(unknown)[0]}", "unknown key")
        try:
            interact = FieldInteraction(**raw)
        except ValueError as exc:
            _fail(label, "interact", str(exc))

    ap_raw = obj["ap"]
    if not isinstance(ap_raw, list):
        _fail(label, "ap", "must be a list")
    entries = []
    seen_p = set()
    for j, item in enumerate(ap_raw):
        if not isinstance(item, dict) or item.keys() != _AP_KEYS:
            _fail(label, f"ap[{j}]", "must be an object with keys p, split_in_F, a")
        p = item["p"]
        try:
            prime = isinstance(p, int) and not isinstance(p, bool) and is_prime(p)
        except ValueError as exc:
            _fail(label, f"ap[{j}].p", str(exc))
        if not prime:
            _fail(label, f"ap[{j}].p", f"{p!r} is not a prime")
        if p in seen_p:
            _fail(label, f"ap[{j}].p", f"duplicate prime {p}")
        seen_p.add(p)
        split = item["split_in_F"]
        if not isinstance(split, bool):
            _fail(label, f"ap[{j}].split_in_F", "must be a boolean")
        a_raw = item["a"]
        if not isinstance(a_raw, list) or len(a_raw) != k_f:
            _fail(label, f"ap[{j}].a", f"must be a list of {k_f} rationals")
        coords = []
        for c in a_raw:
            if isinstance(c, str):
                try:
                    c = int(c) if _INT_RE.fullmatch(c) else _exact(c)
                except (ValueError, ZeroDivisionError):
                    _fail(label, f"ap[{j}].a", f"bad rational {c!r}")
            elif not isinstance(c, int) or isinstance(c, bool):
                _fail(label, f"ap[{j}].a", "entries must be rational strings or integers")
            coords.append(c)
        entries.append(ApEntry(p, split, tuple(coords)))

    return FormRecord(
        label=label,
        d=d,
        field_poly=field_poly,
        level_norm=level_norm,
        weight=weight,
        hecke_poly=hecke_poly,
        cm=cm,
        k_f_circ=k_f_circ,
        d_tilde=d_tilde,
        assumptions=assumptions,
        galois_action=galois_action,
        interact=interact,
        eigenvalues=tuple(entries),
    )


def records_from_obj(obj) -> list[FormRecord]:
    """Validate an already-parsed JSON value (a list of record objects),
    sharing one ``Field`` per polynomial and one group per action."""
    if not isinstance(obj, list):
        raise SchemaError("top level must be a JSON list of form records")
    shared: dict = {}
    return [record_from_dict(item, position=i, shared=shared) for i, item in enumerate(obj)]


def load_forms(path: Union[str, Path]) -> list[FormRecord]:
    """Load and validate form records from the JSON file at ``path``
    (UTF-8)."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, too many digits, or nesting too deep
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return records_from_obj(obj)


# ---------------------------------------------------------------------
# per-prime analysis

def _analyze_entry(
    rec: FormRecord, entry: ApEntry, hodge: SlopeMultiset, newtons: dict[int, SlopeMultiset]
) -> PrimeReport:
    p = entry.p
    if not entry.split_in_F:
        return PrimeReport(p=p, status=STATUS_SKIPPED_NONSPLIT)
    try:
        split = splits_completely(rec.field_poly, p)
    except RamifiedPrimeError:
        # field_poly has a repeated factor mod p: its roots cannot
        # refute the claim, and the analysis never uses it
        split = True
    if not split:
        raise DataError(
            f"record {rec.label!r}: p={p} is flagged split_in_F but the base "
            "field polynomial does not split into distinct linear factors mod p"
        )
    try:
        defect = k_of_p(entry.a, rec.hecke_poly, p)
    except RamifiedPrimeError:
        return PrimeReport(p=p, status=STATUS_SKIPPED_RAMIFIED)
    except IndexWarningError:
        return PrimeReport(p=p, status=STATUS_SKIPPED_INDEX)
    except ValueError as exc:
        # the record's degree and primality are validated on load, so
        # what remains is the data: an a_p with non-integer coordinates
        raise DataError(f"record {rec.label!r}, p={p}: a_p over hecke_poly: {exc}") from exc
    newton = newtons.get(defect.k)
    if newton is None:  # one polygon, and one check, per defect
        newton = newtons[defect.k] = frobenius_polygon(rec.d, rec.k_f, defect.k, rec.motivic_weight)
        if not hodge.leq_strict(newton):
            raise ArithmeticError(
                f"record {rec.label!r}, p={p}: the Newton polygon does not lie on or "
                "above the Hodge polygon with the same endpoints"
            )
    if defect.all_primes:
        # a_p = 0: k = k_f >= 1, so not ordinary, and the product-formula
        # argument behind the half bound needs a_p != 0
        status, half_bound = STATUS_DEGENERATE_AP_ZERO, "not_applicable"
    else:
        status, half_bound = STATUS_ANALYZED, half_bound_check(defect.k, rec.k_f, p)
    return PrimeReport(
        p=p,
        status=status,
        k_p=defect.k,
        newton=newton,
        hodge=hodge,
        ordinary=defect.k == 0,
        half_bound=half_bound,
    )


# Always empty: each numberfield.Field keeps its roots.  The name stays only
# because perfbench/run.py (_timed_pass) empties it before each in-process pass.
_EMBEDDING_CACHE: dict = {}


def analyze_form(rec: FormRecord) -> FormAnalysis:
    """Classify every listed prime of one record and summarize.

    Deterministic for a given record; the primes are analyzed serially
    in listed order.  Every ``split_in_F`` claim is cross-checked
    against the base field polynomial (``DataError`` on a false claim
    or on an a_p whose coordinates are not integers).  The verdict on
    each p, like the discriminant, is kept on the ``Field`` of
    ``field_poly``, so records loaded from one file compute each once.
    Degenerate a_p = 0 primes count as analyzed-and-not-ordinary in the
    summary; their own rows keep the ``degenerate_ap_zero`` status.
    """
    hodge = hodge_polygon(rec.d, rec.k_f, rec.motivic_weight)
    newtons: dict[int, SlopeMultiset] = {}
    reports = tuple(_analyze_entry(rec, e, hodge, newtons) for e in rec.eigenvalues)

    counted = [r for r in reports if r.status in (STATUS_ANALYZED, STATUS_DEGENERATE_AP_ZERO)]
    n_analyzed = len(counted)
    ordinary = [r for r in counted if r.ordinary]
    exceptional = tuple(sorted(r.p for r in counted if not r.ordinary))
    summary = FormSummary(
        n_primes=len(reports),
        n_analyzed=n_analyzed,
        n_ordinary=len(ordinary),
        ordinary_density=Fraction(len(ordinary), n_analyzed) if n_analyzed else None,
        exceptional_primes=exceptional,
        kp_counts=tuple(sorted(Counter(r.k_p for r in counted).items())),
        prime_bound=max((r.p for r in counted), default=None),
    )
    return FormAnalysis(record=rec, reports=reports, summary=summary)


# ---------------------------------------------------------------------
# metadata classifier

def _sato_tate_assumptions(assumptions: frozenset[str]):
    """Whether SST and RST are listed, and the listed tST string with
    the least n (ties broken by the string), or None."""
    tsts = [(int(m.group(1)), s) for s in assumptions if (m := _TST_RE.fullmatch(s))]
    return ASSUMPTION_SST in assumptions, ASSUMPTION_RST in assumptions, min(tsts)[1] if tsts else None


def guarantee(rec: FormRecord) -> Guarantee:
    """Strongest defect/density guarantee the metadata supports.

    Weight-2 candidates, in precedence order: CM forms are ordinary at
    every analyzed prime; a Hecke field of degree <= 2 over the
    invariant subfield forces defect 0; a known action slope sigma
    bounds the defect by k_f * min(1/2, sigma) off a zero-density set;
    under a Sato-Tate type equidistribution assumption the defect is
    at most (k_f/k_f°) * floor((k_f°-1)/2); with the full refined
    assumption, a bisecting element and even k_f° force defect 0; and
    unconditionally the defect is at most k_f/2 on a full-density set.
    Weight 3 replaces the non-CM cases by k_f - k_f/k_f°
    (principally) and k_f * min_orbit_slope (abundant).  Missing
    metadata just removes candidates — nothing is inferred.

    The Galois action is read only when it can change the case.  CM,
    and k_f° <= 2 at weight 2, give bound 0 principally and
    unconditionally, so they return first; a zero-slope ``interact``
    fact sets sigma = 0 without ``slope()`` (weight 2) or
    ``min_orbit_slope()`` (weight 3); and ``has_bisecting()``, whose
    bound 0 is conditional, is asked only when sigma != 0.  A group
    answers the slopes in its cheapest tier: a full-cycle generator
    gives sigma = 0 with no chain and no walk, so such a group decides
    the case even past the closure cap.
    """
    try:
        facts = interact_rules(rec.interact) if rec.interact is not None else frozenset()
    except ValueError as exc:
        # a deg_K too large for is_prime to decide
        raise DataError(f"record {rec.label!r}, field 'interact': {exc}") from exc
    weight2 = rec.motivic_weight == 2
    if rec.cm:
        return Guarantee(CASE_CM, Fraction(0), DENSITY_PRINCIPAL)
    if weight2 and rec.k_f_circ is not None and rec.k_f_circ <= 2:
        return Guarantee(CASE_SMALL_FIELD, Fraction(0), DENSITY_PRINCIPAL)

    k_f, k_f_circ, group = rec.k_f, rec.k_f_circ, rec.galois_action
    sigma: Optional[Fraction] = None
    if {FACT_SLOPE_ZERO_OVER_F, FACT_SLOPE_ZERO_OVER_F_TILDE} & facts:
        # a zero full-orbit slope means some element is a full cycle,
        # which zeroes the min-orbit slope as well
        sigma = Fraction(0)
    elif group is not None:
        sigma = group.slope() if weight2 else group.min_orbit_slope()

    cands: list[Guarantee] = []
    if weight2:
        if sigma is not None:
            bound = k_f * min(Fraction(1, 2), sigma)
            case = CASE_ZERO_SLOPE if bound == 0 else CASE_SLOPE_BOUND
            cands.append(Guarantee(case, bound, DENSITY_ABUNDANT))

        has_sst, has_rst, tst = _sato_tate_assumptions(rec.assumptions)
        if (has_sst or has_rst or tst) and k_f_circ is not None:
            bound = Fraction(k_f, k_f_circ) * ((k_f_circ - 1) // 2)
            used = tst or (ASSUMPTION_RST if has_rst else ASSUMPTION_SST)
            cands.append(
                Guarantee(CASE_RST, bound, DENSITY_CONDITIONAL, frozenset({used}))
            )

        if (
            (has_sst or has_rst)
            and k_f_circ is not None
            and k_f_circ % 2 == 0
            and group is not None
            and sigma != 0
            and group.has_bisecting()
        ):
            used = ASSUMPTION_RST if has_rst else ASSUMPTION_SST
            cands.append(
                Guarantee(CASE_BISECTION, Fraction(0), DENSITY_CONDITIONAL, frozenset({used}))
            )

        cands.append(Guarantee(CASE_HALF, Fraction(k_f, 2), DENSITY_PRINCIPAL))
    else:
        if k_f_circ is not None:
            cands.append(
                Guarantee(CASE_WEIGHT3, k_f - Fraction(k_f, k_f_circ), DENSITY_PRINCIPAL)
            )
        if sigma is not None:
            cands.append(Guarantee(CASE_WEIGHT3, k_f * sigma, DENSITY_ABUNDANT))
        if not cands:
            cands.append(Guarantee(CASE_WEIGHT3, Fraction(k_f), DENSITY_NONE))

    # min keeps the first of equal keys, so precedence breaks ties
    return min(
        cands,
        key=lambda g: (g.bound_on_kp, -_DENSITY_RANK[g.density_class], len(g.conditional_on)),
    )


# ---------------------------------------------------------------------
# report emission

_TSV_COLUMNS = ("label", "p", "status", "k_p", "ordinary", "newton_vertices", "half_bound")


def _bool_str(b: Optional[bool]) -> str:
    return "" if b is None else ("true" if b else "false")


def _weil_ok(rec: FormRecord, entry: ApEntry) -> bool:
    try:
        return weil_bound_check(entry.a, rec.hecke_poly, entry.p, weight=rec.motivic_weight)
    except OverflowError as exc:
        problem = "hecke_poly or a_p exceeds the float range of the Weil check"
        raise DataError(f"record {rec.label!r}, p={entry.p}: {problem}") from exc


def _per_polygon(fn):
    """``fn`` once per distinct polygon, looked up by object first: the rows
    of a record share one polygon per defect, and the analyses keep each
    alive for the call, so only a new object is hashed, by value."""
    by_id: dict = {}
    by_value: dict = {}

    def once(ms):
        out = by_id.get(id(ms))
        if out is None:
            out = by_value.get(ms)
            if out is None:
                out = by_value[ms] = fn(ms)
            by_id[id(ms)] = out
        return out

    return once


def emit_report(analyses: Sequence[FormAnalysis], fmt: str = "tsv") -> bytes:
    """Serialize analyses deterministically (rows sorted by label then
    prime) as TSV or JSON; output is byte-identical across runs.  Only
    JSON prints ``weil_ok``: it runs the Weil check on each row with a
    defect, a ``DataError`` beyond the float range."""
    if fmt == "tsv":
        newton_json = _per_polygon(lambda ms: json.dumps(vertices_payload(ms), separators=(",", ":")))
        lines = ["\t".join(_TSV_COLUMNS)]
        rows = sorted(
            ((an.record.label, rep) for an in analyses for rep in an.reports),
            key=lambda lr: (lr[0], lr[1].p),
        )
        for label, rep in rows:
            lines.append(
                "\t".join(
                    (
                        label,
                        str(rep.p),
                        rep.status,
                        "" if rep.k_p is None else str(rep.k_p),
                        _bool_str(rep.ordinary),
                        ""
                        if rep.newton is None
                        else newton_json(rep.newton),
                        rep.half_bound or "",
                    )
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = _per_polygon(vertices_payload)
        forms = []
        for an in sorted(analyses, key=lambda a: a.record.label):
            s, rec = an.summary, an.record
            primes = []
            entries = {e.p: e for e in rec.eigenvalues}  # one per prime, as loaded
            for rep in sorted(an.reports, key=lambda r: r.p):
                primes.append(
                    {
                        "p": rep.p,
                        "status": rep.status,
                        "k_p": rep.k_p,
                        "ordinary": rep.ordinary,
                        "weil_ok": None if rep.k_p is None else _weil_ok(rec, entries[rep.p]),
                        "half_bound": rep.half_bound,
                        "newton_vertices": None
                        if rep.newton is None
                        else payload(rep.newton),
                        "hodge_vertices": None
                        if rep.hodge is None
                        else payload(rep.hodge),
                    }
                )
            forms.append(
                {
                    "label": rec.label,
                    "summary": {
                        "n_primes": s.n_primes,
                        "n_analyzed": s.n_analyzed,
                        "n_ordinary": s.n_ordinary,
                        "ordinary_density": None
                        if s.ordinary_density is None
                        else str(s.ordinary_density),
                        "exceptional_primes": list(s.exceptional_primes),
                        "kp_histogram": {str(k): c for k, c in s.kp_counts},
                        "prime_bound": s.prime_bound,
                        "density_caveat": DENSITY_CAVEAT,
                    },
                    "primes": primes,
                }
            )
        return (json.dumps({"forms": forms}, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {fmt!r}")
