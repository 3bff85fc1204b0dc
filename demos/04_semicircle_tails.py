"""
Tail constants of products of semicircle variables
==================================================

Draw t independent values from the semicircle density on [-2, 2] and
multiply their absolute values.  c(k, t) is the probability the product
falls below 2^(t-k) — the constant controlling how often k-t "extra"
digits of smallness appear.  Three evaluation routes are exposed:

  series       — the Mellin residue series, exact up to float rounding,
                 any 1 <= t <= k (the default);
  closed_form  — exact integral, t = 1 only (and the t = k diagonal);
  monte_carlo  — seeded rejection sampling in numpy, a cross-check.

Run me directly:  python3 demos/04_semicircle_tails.py
"""
import math

import numpy as np

from heckeslopes.satotate import (
    METHOD_CLOSED,
    METHOD_MC,
    METHOD_SERIES,
    sample,
    tail_constant,
    tail_table,
)

# The three routes agree on c(2, 1):
for method in (METHOD_SERIES, METHOD_CLOSED, METHOD_MC):
    est = tail_constant(2, 1, method=method, samples=200_000, seed=7)
    print(f"c(2,1) via {method:12s} = {est.value:.5f}  (+- {est.abs_error:.2g})")

print()

# Halving the threshold (k -> k+1 at t=1) roughly halves the tail—the
# density is flat near 0 — and the closed form shows the 1/(pi 2^(k-2))
# asymptote directly:
for k in range(2, 8):
    est = tail_constant(k, 1, method=METHOD_CLOSED)
    print(f"c({k},1) = {est.value:.6f}   x pi 2^(k-2) = {est.value * math.pi * 2 ** (k - 2):.4f}")

print()

# The series reports how many residues it summed and a bound on its
# error; Monte Carlo is deterministic for a fixed seed, and the seed is
# part of the returned record, so results are citeable:
print("c(5,3) =", tail_constant(5, 3))
est1 = tail_constant(5, 3, method=METHOD_MC, samples=300_000, seed=11)
est2 = tail_constant(5, 3, method=METHOD_MC, samples=300_000, seed=11)
assert est1 == est2
print("c(5,3) =", est1)

print()

# Rows of the triangular table, well beyond what sampling resolves
# (each row rises in t to the exact 1 on the diagonal):
rows = tail_table(12)
for k in (4, 8, 12):
    print(f"k={k:<3d}" + "  ".join(f"{est.value:.3g}" for est in rows[k - 1]))

# The underlying sampler is public — useful for plotting or for your
# own statistics.  Mean 0, variance 1:
draws = sample(np.random.default_rng(3), 50_000)
print()
print(f"sampler check: mean={draws.mean():+.4f}  var={draws.var():.4f}")
