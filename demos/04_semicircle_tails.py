"""
Tail constants of products of semicircle variables
==================================================

Draw t independent values from the semicircle density on [-2, 2] and
multiply their absolute values.  c(k, t) is the probability the product
falls below 2^(t-k) — the constant controlling how often k-t "extra"
digits of smallness appear.  Two evaluation routes are exposed:

  series       — the Mellin residue series, exact up to float rounding,
                 any 1 <= t <= k <= 60 (the default);
  closed_form  — exact integral, t = 1 only (and the t = k diagonal).

Everything here runs on the standard library.

Run me directly:  python3 demos/04_semicircle_tails.py
"""
import math

from heckeslopes.satotate import (
    METHOD_CLOSED,
    METHOD_SERIES,
    cdf,
    density,
    tail_constant,
    tail_table,
)

# The two routes agree on c(2, 1):
for method in (METHOD_SERIES, METHOD_CLOSED):
    est = tail_constant(2, 1, method=method)
    print(f"c(2,1) via {method:12s} = {est.value:.15f}  (+- {est.abs_error:.2g})")

print()

# Halving the threshold (k -> k+1 at t=1) roughly halves the tail—the
# density is flat near 0 — and the closed form shows the 1/(pi 2^(k-2))
# asymptote directly:
for k in range(2, 8):
    est = tail_constant(k, 1, method=METHOD_CLOSED)
    print(f"c({k},1) = {est.value:.6f}   x pi 2^(k-2) = {est.value * math.pi * 2 ** (k - 2):.4f}")

print()

# The series reports how many residues it summed and a bound on its
# error, so results are citeable:
print("c(5,3) =", tail_constant(5, 3))

print()

# Rows of the triangular table (each row rises in t to the exact 1 on
# the diagonal):
rows = tail_table(12)
for k in (4, 8, 12):
    print(f"k={k:<3d}" + "  ".join(f"{est.value:.3g}" for est in rows[k - 1]))

# The density and its closed-form cdf agree: a midpoint sum of the
# density over [-2, y] reproduces cdf(y), and c(k, 1) is the mass of
# the interval |y| < 2^(1-k).
print()
steps = 20_000
for y in (-1.0, 0.0, 0.5, 1.5):
    h = (y + 2.0) / steps
    mass = h * sum(density(-2.0 + (i + 0.5) * h) for i in range(steps))
    print(f"cdf({y:+.1f}) = {cdf(y):.6f}   midpoint sum of density = {mass:.6f}")
for k in (2, 5):
    u = 2.0 ** (1 - k)
    print(f"2 cdf(2^{1 - k}) - 1 = {2 * cdf(u) - 1:.12f}   c({k},1) = {tail_constant(k, 1).value:.12f}")
