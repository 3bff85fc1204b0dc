"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and uses none of the
library under test, so the inputs do not depend on the code being
measured.  Each returns the inputs together with a ``composition``
dict that the run prints, so a reader can see what the seed produced.
"""

from __future__ import annotations

import json
import random

import numpy as np

# analyze-synth: record i has base field SYNTH_BASE_FIELDS[i % 4] and a
# seed-chosen Hecke polynomial of degree SYNTH_HECKE_DEGREES[i % 11].
# Records 11..15 reuse the Hecke polynomials of records 0..4 over other
# base fields, so a cache keyed by the Hecke polynomial has something to
# find; the rest are distinct.  The base fields are fixed, so every seed
# has the same primes split in F and about the same factorization work.
SYNTH_BASE_FIELDS = ([0, 1], [-5, 0, 1], [-1, -1, 0, 1], [-1, -1, 0, 0, 1])
SYNTH_HECKE_DEGREES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
SYNTH_RECORDS = 16
SYNTH_PRIME_BOUND = 200
SYNTH_COEFF = 9

# classify-galois: transitive groups of these degrees, each presented
# by one seed-chosen relabelling and listed GALOIS_REPEATS times.
GALOIS_FAMILIES = ("cyclic", "dihedral", "alternating", "symmetric")
GALOIS_DEGREES = (4, 5, 6, 7)
GALOIS_REPEATS = 2

# table: Monte Carlo sample count per entry.
TABLE_MAX_K = 8
TABLE_SAMPLES = 200_000


def primes_below(n: int) -> list[int]:
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def roots_mod_p(f: list[int], p: int) -> list[int]:
    """Roots in [0, p) of the ascending-coefficient polynomial f, by
    evaluating it at every residue."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        acc = (acc * xs + c) % p
    return [int(r) for r in np.flatnonzero(acc == 0)]


def _irreducible_mod_p(f: list[int], p: int) -> bool:
    """Whether the monic ascending-coefficient f is irreducible mod p,
    by sympy's test."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_irreducible_p

    return gf_irreducible_p(gf_from_int_poly(f[::-1], p), p, ZZ)


def random_irreducible(rng: random.Random, degree: int, coeff: int = 3) -> list[int]:
    """A random monic integer polynomial (ascending) that is irreducible
    mod some small prime, hence irreducible over Q."""
    if degree == 1:
        return [rng.randint(-coeff, coeff), 1]
    while True:
        f = [rng.randint(-coeff, coeff) for _ in range(degree)] + [1]
        if f[0] == 0:
            continue
        if any(_irreducible_mod_p(f, p) for p in (2, 3, 5, 7, 11, 13)):
            return f


def _random_element(rng: random.Random, hecke: list[int], p: int) -> list[int]:
    """Coordinates of a_p in the power basis of the Hecke field.

    Mostly small random coordinates (ordinary at all but small p), with
    set shares of elements that lie in every prime above p, in the
    prime of a chosen linear factor, or are zero, so every defect class
    and the degenerate status occur."""
    k_f = len(hecke) - 1
    u = rng.random()
    if u < 0.02:
        return [0] * k_f
    if u < 0.12:
        return [p * rng.randint(-2, 2) or p for _ in range(k_f)]
    if u < 0.32 and p < 200:
        roots = roots_mod_p(hecke, p)
        if roots:
            r = rng.choice(roots)
            a = [p * rng.randint(-1, 1) for _ in range(k_f)]
            a[0] -= r
            a[1] += 1
            return a
    while True:
        a = [rng.randint(-SYNTH_COEFF, SYNTH_COEFF) for _ in range(k_f)]
        if any(a):
            return a


def synth_records(seed: int) -> tuple[list[dict], dict]:
    """Many records over base fields of degree 1..4 (Q, Q(sqrt 5) and the
    fields of x^3 - x - 1 and x^4 - x - 1) and Hecke fields of degree
    2..12, every prime below SYNTH_PRIME_BOUND listed."""
    rng = random.Random(seed)
    heckes = [random_irreducible(rng, k) for k in SYNTH_HECKE_DEGREES]
    primes = primes_below(SYNTH_PRIME_BOUND)
    records = []
    split_count = 0
    for i in range(SYNTH_RECORDS):
        field = SYNTH_BASE_FIELDS[i % len(SYNTH_BASE_FIELDS)]
        d = len(field) - 1
        hecke = heckes[i % len(heckes)]
        ap = []
        for p in primes:
            split = d == 1 or len(roots_mod_p(field, p)) == d
            split_count += split
            a = _random_element(rng, hecke, p)
            ap.append({"p": p, "split_in_F": split, "a": [str(c) for c in a]})
        records.append(
            {
                "label": f"synth.{seed}.{i:02d}",
                "d": d,
                "field_poly": field,
                "level_norm": 1 + rng.randrange(1000),
                "weight": [2 + i % 2] * d,
                "hecke_poly": hecke,
                "cm": False,
                "ap": ap,
            }
        )
    composition = {
        "records": len(records),
        "primes_listed": len(records) * len(primes),
        "primes_split_in_F": split_count,
        "hecke_polys_distinct": len({tuple(h) for h in heckes}),
        "hecke_polys_repeated": SYNTH_RECORDS - len(heckes),
    }
    return records, composition


def _cycle(points: list[int]) -> list[tuple[int, ...]]:
    return [tuple(points)]


def group_generators(family: str, n: int) -> list[list[tuple[int, ...]]]:
    """Standard generators, each a list of cycles on 0..n-1."""
    full = list(range(n))
    if family == "cyclic":
        return [_cycle(full)]
    if family == "dihedral":
        reflection = [(i, n - i) for i in range(1, (n + 1) // 2)]
        return [_cycle(full), reflection]
    if family == "symmetric":
        return [_cycle(full), [(0, 1)]]
    if family == "alternating":
        long_cycle = full if n % 2 else full[1:]
        return [_cycle(long_cycle), [(0, 1, 2)]]
    raise ValueError(family)


def _relabel(gens, perm: list[int]) -> list[str]:
    return [
        "".join("(" + " ".join(str(perm[i]) for i in cyc) + ")" for cyc in gen)
        for gen in gens
    ]


# Metadata variants cycled over the copies of each group: (weight,
# assumptions, k_f_circ divisor choice, cm).
_GALOIS_META = (
    (2, ["RST"], "even", False),
    (2, ["SST"], None, False),
    (2, ["SST", "tST(2)"], "full", False),
    (3, [], "full", False),
    (3, ["SST"], None, False),
    (2, [], "full", True),
)


def galois_records(seed: int) -> tuple[list[dict], dict]:
    """Records carrying transitive actions of degree 4..7, every group
    listed GALOIS_REPEATS times with the same generators and varied
    weight, assumptions and k_f_circ."""
    rng = random.Random(seed)
    records = []
    j = 0
    for family in GALOIS_FAMILIES:
        for n in GALOIS_DEGREES:
            perm = list(range(n))
            rng.shuffle(perm)
            gens = _relabel(group_generators(family, n), perm)
            for copy in range(GALOIS_REPEATS):
                weight, assumptions, circ, cm = _GALOIS_META[j % len(_GALOIS_META)]
                j += 1
                rec = {
                    "label": f"gal.{family}.{n}.{copy}",
                    "d": 1,
                    "field_poly": [0, 1],
                    "level_norm": 1 + rng.randrange(5000),
                    "weight": [weight],
                    "hecke_poly": [-1, -1] + [0] * (n - 2) + [1],
                    "cm": cm,
                    "assumptions": assumptions,
                    "galois_gens": gens,
                    "galois_degree": n,
                    "ap": [],
                }
                if circ == "full":
                    rec["k_f_circ"] = n
                elif circ == "even":
                    rec["k_f_circ"] = 2 if n % 2 == 0 else 1
                records.append(rec)
    rng.shuffle(records)
    composition = {
        "records": len(records),
        "groups_distinct": len(GALOIS_FAMILIES) * len(GALOIS_DEGREES),
        "groups_repeated": len(records) - len(GALOIS_FAMILIES) * len(GALOIS_DEGREES),
    }
    return records, composition


def write_records(records: list[dict], path: str) -> int:
    data = json.dumps(records, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
