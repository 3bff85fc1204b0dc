"""
Permutation groups, orbit slopes, and bisections
================================================

For a group G acting on n points, each element g breaks the points into
cycles.  Two statistics of the action drive everything downstream:

  sigma(G)  = 1 - lambda(G)/n   where lambda(G) is the longest cycle of
              any element — small sigma means some element moves points
              in one long sweep;
  a *bisection* is an element with exactly two equal-length cycles.

Run me directly:  python3 demos/02_galois_orbits.py
"""
from heckeslopes.galois import PermutationGroup
from heckeslopes.numberfield import FieldInteraction, interact_rules

# Groups are generated from cycle strings; closure is computed (with a
# safety cap) so you only ever name the generators.
klein = PermutationGroup.parse("(0 1)(2 3);(0 2)(1 3)", 4)
d8 = PermutationGroup.parse("(0 1 2 3);(0 2)", 4)
s4 = PermutationGroup.parse("(0 1 2 3);(0 1)", 4)
a4 = PermutationGroup.parse("(0 1 2);(0 1)(2 3)", 4)

for name, group in (("Klein", klein), ("D8", d8), ("S4", s4), ("A4", a4)):
    print(
        f"{name:6s} order={group.order:3d}"
        f"  lambda={group.max_orbit_length()}"
        f"  sigma={group.slope()}"
        f"  bisecting={group.has_bisecting()}"
        f"  (fraction {group.bisecting_fraction()})"
    )

# Klein's three non-identity elements are all double transpositions —
# every one of them is a bisection, so sigma = 1/2 and the bisecting
# fraction is 3/4.  D8 contains a 4-cycle, so sigma drops to 0.

# The trivial group is the degenerate extreme: the only orbit lengths
# are 1, so sigma = 1 - 1/n.
print()
for n in (3, 4):
    g = PermutationGroup.parse("", n)
    print(f"trivial on {n}: sigma={g.slope()}  bisecting={g.has_bisecting()}")

# min-orbit variants (lambda', sigma') swap "longest cycle of the best
# element" for "shortest cycle":
print()
print("D8  : lambda'=", d8.max_min_orbit_length(), " sigma'=", d8.min_orbit_slope())
print("A4  : lambda'=", a4.max_min_orbit_length(), " sigma'=", a4.min_orbit_slope())

# If the action preserves a partition into blocks, the induced action
# on blocks is again a group; invariants can only improve.
blocks = [(0, 2), (1, 3)]
quotient = d8.block_action(blocks)
print()
print("D8 on the 2 diagonals: order", quotient.order, " sigma", quotient.slope())

# Finally, facts about a pair of fields, which live with the fields in
# numberfield, sometimes pin the slope without any group theory.  A degree-5 field over a quadratic base forces
# orbits of full length (5 is prime and does not divide 2):
facts = interact_rules(FieldInteraction(deg_K=5, deg_F=2))
print()
print("deg 5 over deg 2 gives:", sorted(facts))
