"""
Prime splitting in a number field and the defect of an element
==============================================================

Factoring the defining polynomial mod p tells you how p splits in the
ring of integers; the residue degrees of the primes containing a given
element a add up to the element's "defect" k(p) — zero exactly when a
avoids every prime over p.

Run me directly:  python3 demos/03_prime_splitting.py
"""
from heckeslopes.numberfield import (
    Defect,
    discriminant,
    embeddings,
    factor_mod_p,
    k_of_p,
    splitting_type,
    weil_bound_check,
)

SQRT2 = (-2, 0, 1)  # x^2 - 2, coefficients low degree first

print("disc(x^2 - 2) =", discriminant(SQRT2))
print("real embeddings of sqrt 2:", [round(z.real, 6) for z in embeddings(SQRT2)])
print()

# How x^2 - 2 factors mod small primes: split, inert, or ramified.
for p in (2, 3, 5, 7, 17, 23, 31):
    st = splitting_type(SQRT2, p)
    kind = (
        "ramified" if st.ramified
        else "split" if len(st.factors) == 2
        else "inert"
    )
    print(f"p={p:2d}: {kind:8s} factors={st.factors} residue degrees={st.residue_degrees}")

# (2/p) = 1, i.e. split, exactly when p = ±1 mod 8 — visible above.
print()

# The defect of a = 3 + sqrt2 at various primes.  N(a) = 9 - 2 = 7, so
# only primes over 7 can contain it.  p is ordinary for a exactly when
# the defect is zero and a is not the zero element.
a = (3, 1)
for p in (3, 5, 7, 31):
    d = k_of_p(a, SQRT2, p)
    print(f"p={p:2d}: k(p)={d.k}  ordinary={d == Defect(0, False)}")

print()

# a = 0 lies in every prime: the defect saturates and is flagged.
zero = k_of_p((0, 0), SQRT2, 13)
print("a=0 at p=13:", zero)

# Raw factorization mod p is also exposed; multiplicities reassemble
# the input.  x^8 - 1 mod 17 splits completely (17 = 1 mod 8):
factors = factor_mod_p((-1, 0, 0, 0, 0, 0, 0, 0, 1), 17)
print()
print("x^8 - 1 mod 17 ->", factors)

# The classical archimedean sanity check used downstream: a candidate
# trace must fit inside the Weil window |a| <= 2 sqrt(p) under every
# embedding (here K_f = Q, so just the one absolute value).
print()
print("weil_bound_check(a=25,  x, p=167):", weil_bound_check((25,), (0, 1), 167))
print("weil_bound_check(a=-26, x, p=167):", weil_bound_check((-26,), (0, 1), 167))
