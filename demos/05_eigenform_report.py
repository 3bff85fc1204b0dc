"""
End-to-end: point counts -> eigenvalue records -> per-prime report
==================================================================

We generate Hecke eigenvalues for the rational newform attached to the
curve

    y^2 + y = x^3 - x^2 - 10x - 20        (conductor 11)

by brute-force point counting, feed them through the ingestion schema,
and ask the pipeline which primes are ordinary.  The same record then
goes through the metadata classifier.

Run me directly:  python3 demos/05_eigenform_report.py
"""
from heckeslopes.pipeline import analyze_form, emit_report, guarantee, record_from_dict


def trace_of_frobenius(p: int) -> int:
    """a_p = p + 1 - #E(F_p) by counting points on the affine chart."""
    lhs_counts = [0] * p  # how many y give each value of y^2 + y
    for y in range(p):
        lhs_counts[(y * y + y) % p] += 1
    affine = sum(lhs_counts[(x**3 - x * x - 10 * x - 20) % p] for x in range(p))
    return p + 1 - (affine + 1)  # +1 for the point at infinity


def primes_below(n):
    sieve = [True] * n
    sieve[:2] = [False, False]
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, n, q))
    return [q for q in range(n) if sieve[q]]


# Assemble the record.  The base field is Q (field_poly x), the Hecke
# field is Q too (all a_p are rational integers), and we skip the bad
# prime 11.
LIMIT = 200
rows = [
    {"p": p, "split_in_F": True, "a": [str(trace_of_frobenius(p))]}
    for p in primes_below(LIMIT)
    if p != 11
]
record = record_from_dict(
    {
        "label": "curve.11",
        "d": 1,
        "field_poly": [0, 1],
        "level_norm": 11,
        "weight": [2],
        "hecke_poly": [0, 1],
        "cm": False,
        "ap": rows,
    }
)

analysis = analyze_form(record)
print(emit_report([analysis], fmt="tsv").decode())

s = analysis.summary
print(f"analyzed {s.n_analyzed} primes below {LIMIT}; ordinary density so far:", s.ordinary_density)
print("non-ordinary primes:", list(s.exceptional_primes))

# p = 19 and 29 are supersingular (a_p = 0) and p = 2 divides a_2 = -2;
# everything else below 200 is ordinary for this curve.

# The classifier needs only the metadata, not the eigenvalues.  With a
# rational Hecke field the unconditional half bound is already sharp:
g = guarantee(record)
print()
print(
    f"guarantee: case={g.case}  bound_on_kp={g.bound_on_kp}"
    f"  density={g.density_class}"
)
