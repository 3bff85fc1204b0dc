"""Acceptance gate.

One test per shipped guarantee, each printing a single
``criterion N: PASS/FAIL - detail`` line (run with ``pytest -s`` to see
them on a green run; on a red run pytest shows the captured line).
Every check carries its own runtime budget, measured inside the test.
"""
import json
import random
import time
from fractions import Fraction

from conftest import elliptic_ap, poly_mul_mod, primes_below, quadratic_defect
from heckeslopes.galois import PermutationGroup
from heckeslopes.numberfield import factor_mod_p, k_of_p
from heckeslopes.pipeline import (
    CASE_BISECTION,
    CASE_CM,
    CASE_HALF,
    CASE_RST,
    DENSITY_CONDITIONAL,
    DENSITY_PRINCIPAL,
    STATUS_ANALYZED,
    STATUS_DEGENERATE_AP_ZERO,
    analyze_form,
    emit_report,
    guarantee,
    record_from_dict,
)
from heckeslopes.polygon import EMPTY, TENSOR_IDENTITY, SlopeMultiset, frobenius_polygon
from heckeslopes.satotate import METHOD_CLOSED, tail_constant


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def _random_multiset(rng, max_size):
    n = rng.randint(0, max_size)
    return SlopeMultiset(
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n)
    )


def _dominated_pair(rng, max_size=6):
    """(lower, upper) with equal rank and integral and lower.leq(upper).

    Start from the sorted upper multiset and repeatedly move mass from an
    earlier (smaller) entry to a later one: each move lowers the running
    prefix sums on the affected span and never raises any of them after
    re-sorting, so the chain of moves stays below the original polygon.
    """
    n = rng.randint(2, max_size)
    upper = sorted(
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n)
    )
    lower = list(upper)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        delta = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        lower[i] -= delta
        lower[j] += delta
        lower.sort()
    return SlopeMultiset(lower), SlopeMultiset(upper)


def test_criterion_1_semiring_laws():
    rng = random.Random(20260816)
    cases = 1000
    failures = []
    t0 = time.perf_counter()

    for _ in range(cases):
        a, b = _random_multiset(rng, 8), _random_multiset(rng, 8)
        if a.oplus(b) != b.oplus(a) or a.otimes(b) != b.otimes(a):
            failures.append("commutativity")
    for _ in range(cases):
        a, b, c = (_random_multiset(rng, 4) for _ in range(3))
        if a.oplus(b).oplus(c) != a.oplus(b.oplus(c)):
            failures.append("oplus associativity")
        if a.otimes(b).otimes(c) != a.otimes(b.otimes(c)):
            failures.append("otimes associativity")
    for _ in range(cases):
        a, b, c = (_random_multiset(rng, 5) for _ in range(3))
        if a.otimes(b.oplus(c)) != a.otimes(b).oplus(a.otimes(c)):
            failures.append("distributivity")
    for _ in range(cases):
        a = _random_multiset(rng, 8)
        if a.oplus(EMPTY) != a or a.otimes(TENSOR_IDENTITY) != a:
            failures.append("neutral elements")
        if a.otimes(EMPTY) != EMPTY:
            failures.append("absorbing element")
    for _ in range(cases):
        a, b = _random_multiset(rng, 8), _random_multiset(rng, 8)
        ok = (
            a.oplus(b).rank == a.rank + b.rank
            and a.otimes(b).rank == a.rank * b.rank
            and a.oplus(b).integral == a.integral + b.integral
            and a.otimes(b).integral == b.rank * a.integral + a.rank * b.integral
            and a.dual().integral == -a.integral
            and a.dual().rank == a.rank
        )
        if not ok:
            failures.append("rank/integral homomorphisms")
    for _ in range(cases):
        low, high = _dominated_pair(rng)
        t = _random_multiset(rng, 5)
        if not low.oplus(t).leq(high.oplus(t)):
            failures.append("oplus monotonicity")
        if not low.otimes(t).leq(high.otimes(t)):
            failures.append("otimes monotonicity")
    for _ in range(cases):
        low, high = _dominated_pair(rng)
        if not low.dual().leq(high.dual()):
            failures.append("dual order law at equal endpoints")

    elapsed = time.perf_counter() - t0
    report(
        1,
        not failures and elapsed < 5.0,
        f"7 laws x {cases} cases, {len(failures)} failures, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_family_order():
    t0 = time.perf_counter()
    checked_pairs = 0
    ok = True
    for d in range(1, 5):
        for k in range(1, 7):
            family = [frobenius_polygon(d, k, i) for i in range(k + 1)]
            ok = ok and all(ms.has_integral_breakpoints() for ms in family)
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    ok = ok and family[i].leq(family[j])
                    ok = ok and not family[j].leq(family[i])
                    checked_pairs += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        ok and elapsed < 5.0,
        f"d<=4, k<=6: {checked_pairs} ordered pairs + breakpoints, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------- criterion 3

PRINTED_TABLE = {
    (2, 1): "0.315",
    (3, 1): "0.159", (3, 2): "0.501",
    (4, 1): "0.0795", (4, 2): "0.320", (4, 3): "0.62",
    (5, 1): "0.0398", (5, 2): "0.195", (5, 3): "0.45", (5, 4): "0.71",
    (6, 1): "0.0199", (6, 2): "0.115", (6, 3): "0.31", (6, 4): "0.56",
    (6, 5): "0.8",
}


def _printed_tolerance(entry: str) -> float:
    # tolerance ladder by printed precision: the quoted digits are
    # rounded, so one decimal can hide up to 0.05 of true value
    return {1: 0.05, 2: 0.015}.get(len(entry.split(".")[1]), 0.01)


def test_criterion_3_tail_table_reproduction():
    t0 = time.perf_counter()
    problems = []

    for k, printed in ((2, 0.315), (3, 0.159), (4, 0.0795), (5, 0.0398), (6, 0.0199)):
        got = tail_constant(k, 1, method=METHOD_CLOSED).value
        if abs(got - printed) > 5e-4:
            problems.append(f"closed c({k},1)={got:.5f} vs {printed}")

    for (k, t), entry in sorted(PRINTED_TABLE.items()):
        est = tail_constant(k, t)
        if abs(est.value - float(entry)) > _printed_tolerance(entry):
            problems.append(f"series c({k},{t})={est.value:.4f} vs {entry}")

    asymptote = tail_constant(20, 1, method=METHOD_CLOSED).value * 3.141592653589793 * 2**18
    if not 0.999 <= asymptote <= 1.001:
        problems.append(f"asymptote {asymptote:.5f}")

    elapsed = time.perf_counter() - t0
    report(
        3,
        not problems and elapsed < 120.0,
        f"closed t=1 column +- 15 printed entries by the series + asymptote"
        f"{'' if not problems else ': ' + '; '.join(problems)}, {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_group_fixtures():
    t0 = time.perf_counter()
    klein = PermutationGroup.parse("(0 1)(2 3);(0 2)(1 3)", 4)
    d8 = PermutationGroup.parse("(0 1 2 3);(0 2)", 4)
    a4 = PermutationGroup.parse("(0 1 2);(0 1)(2 3)", 4)
    z3_on_6 = PermutationGroup.parse("(0 2 4)(1 3 5)", 6)
    checks = [
        klein.slope() == Fraction(1, 2) and klein.has_bisecting(),
        PermutationGroup.parse("", 3).slope() == Fraction(2, 3),
        PermutationGroup.parse("", 4).slope() == Fraction(3, 4),
        not PermutationGroup.parse("", 4).has_bisecting(),
        z3_on_6.slope() == Fraction(1, 2) and z3_on_6.has_bisecting(),
        d8.slope() == 0,
        a4.max_orbit_length() == 3,
    ]
    for n, gens in ((3, "(0 1 2);(0 1)"), (4, "(0 1 2 3);(0 1)"), (5, "(0 1 2 3 4);(0 1)")):
        checks.append(PermutationGroup.parse(gens, n).slope() == 0)
    elapsed = time.perf_counter() - t0
    report(
        4,
        all(checks) and elapsed < 1.0,
        f"{len(checks)} exact rational fixtures, {elapsed:.3f}s (< 1s)",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_defect_oracles():
    t0 = time.perf_counter()
    mismatches = 0

    rational_field = (0, 1)
    for p in primes_below(101):
        p = int(p)
        for a in range(-1000, 1001):
            expected = 1 if a % p == 0 else 0
            if k_of_p((a,), rational_field, p).k != expected:
                mismatches += 1

    rng = random.Random(60902)
    odd_primes = [int(p) for p in primes_below(100)][1:]
    done = 0
    while done < 500:
        d = rng.choice((2, 3, 5))
        p = rng.choice(odd_primes)
        if d % p == 0:
            continue
        u, v = rng.randint(-30, 30), rng.randint(-30, 30)
        if u == 0 and v == 0:
            continue
        if k_of_p((u, v), (-d, 0, 1), p).k != quadratic_defect(u, v, d, p):
            mismatches += 1
        done += 1

    factor_failures = 0
    small_primes = [int(p) for p in primes_below(50)]
    for _ in range(1000):
        degree = rng.randint(1, 6)
        f = tuple(rng.randint(-30, 30) for _ in range(degree)) + (1,)
        p = rng.choice(small_primes)
        factors = factor_mod_p(f, p)
        if sum((len(g) - 1) * mult for g, mult in factors) != degree:
            factor_failures += 1
            continue
        prod = [1]
        for g, mult in factors:
            for _ in range(mult):
                prod = poly_mul_mod(prod, g, p)
        if prod != [c % p for c in f]:
            factor_failures += 1

    elapsed = time.perf_counter() - t0
    report(
        5,
        mismatches == 0 and factor_failures == 0 and elapsed < 30.0,
        f"50025 rational + 500 quadratic oracle cases ({mismatches} mismatches), "
        f"1000 factorizations ({factor_failures} failures), {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_elliptic_end_to_end():
    t0 = time.perf_counter()
    traces = {int(p): elliptic_ap(int(p)) for p in primes_below(1000) if p != 11}
    record = record_from_dict(
        {
            "label": "ell.11",
            "d": 1,
            "field_poly": [0, 1],
            "level_norm": 11,
            "weight": [2],
            "hecke_poly": [0, 1],
            "cm": False,
            "ap": [
                {"p": p, "split_in_F": True, "a": [str(a)]}
                for p, a in sorted(traces.items())
            ],
        }
    )
    analysis = analyze_form(record)

    statuses = {rep.status for rep in analysis.reports}
    non_ordinary = {rep.p for rep in analysis.reports if not rep.ordinary}
    oracle = {p for p, a in traces.items() if a % p == 0}
    problems = []
    if not statuses <= {STATUS_ANALYZED, STATUS_DEGENERATE_AP_ZERO}:
        problems.append(f"unexpected statuses {statuses}")
    if analysis.summary.n_analyzed != 167:
        problems.append(f"n_analyzed={analysis.summary.n_analyzed}")
    if non_ordinary != oracle:
        problems.append(f"non-ordinary set differs: {sorted(non_ordinary ^ oracle)}")
    if {p for p in non_ordinary if p < 100} != {2, 19, 29}:
        problems.append(f"below 100: {sorted(p for p in non_ordinary if p < 100)}")
    (form,) = json.loads(emit_report([analysis], fmt="json"))["forms"]
    if not all(row["weil_ok"] for row in form["primes"]):
        problems.append("weil bound failed")
    if not all(rep.hodge.leq(rep.newton) for rep in analysis.reports):
        problems.append("hodge above newton somewhere")

    elapsed = time.perf_counter() - t0
    report(
        6,
        not problems and elapsed < 60.0,
        f"167 primes, {len(non_ordinary)} non-ordinary matching trace oracle"
        f"{'' if not problems else ': ' + '; '.join(problems)}, {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------- criterion 7

def _scenario(**overrides):
    base = {
        "label": "scenario",
        "d": 1,
        "field_poly": [0, 1],
        "level_norm": 1,
        "weight": [2],
        "hecke_poly": [0, 1],
        "cm": False,
        "ap": [],
    }
    base.update(overrides)
    return record_from_dict(base)


def test_criterion_7_classifier_scenarios():
    t0 = time.perf_counter()
    klein_gens = ["(0 1)(2 3)", "(0 2)(1 3)"]
    scenarios = [
        (
            _scenario(cm=True),
            (CASE_CM, Fraction(0), DENSITY_PRINCIPAL, frozenset()),
        ),
        (
            _scenario(
                hecke_poly=[1, 0, -10, 0, 1],
                k_f_circ=4,
                assumptions=["RST"],
                galois_gens=klein_gens,
                galois_degree=4,
            ),
            (CASE_BISECTION, Fraction(0), DENSITY_CONDITIONAL, frozenset({"RST"})),
        ),
        (
            _scenario(
                d=3,
                field_poly=[-1, -3, 0, 1],
                weight=[2, 2, 2],
                hecke_poly=[-1, -3, 0, 1],
                k_f_circ=3,
                galois_gens=["()"],
                galois_degree=3,
            ),
            (CASE_HALF, Fraction(3, 2), DENSITY_PRINCIPAL, frozenset()),
        ),
        (
            _scenario(
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                assumptions=["tST(1)"],
                galois_gens=klein_gens,
                galois_degree=4,
            ),
            (CASE_RST, Fraction(1), DENSITY_CONDITIONAL, frozenset({"tST(1)"})),
        ),
        (
            _scenario(
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                galois_gens=klein_gens,
                galois_degree=4,
            ),
            (CASE_HALF, Fraction(2), DENSITY_PRINCIPAL, frozenset()),
        ),
        (
            _scenario(
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                assumptions=["RST"],
                galois_gens=klein_gens,
                galois_degree=4,
            ),
            (CASE_BISECTION, Fraction(0), DENSITY_CONDITIONAL, frozenset({"RST"})),
        ),
    ]
    wrong = []
    for record, expected in scenarios:
        g = guarantee(record)
        got = (g.case, g.bound_on_kp, g.density_class, frozenset(g.conditional_on))
        if got != expected:
            wrong.append(f"{expected[0]}: got {got}")
    elapsed = time.perf_counter() - t0
    report(
        7,
        not wrong,
        f"4 scenarios / {len(scenarios)} guarantee checks exact"
        f"{'' if not wrong else ': ' + '; '.join(wrong)}, {elapsed:.3f}s",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_bulk_counts_excluded():
    print(
        "criterion 8: SKIPPED-BY-SPEC - bulk catalog aggregate counts need "
        "external data and are not reproduced; criteria 1-7 substitute"
    )
