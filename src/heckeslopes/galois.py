"""Permutation actions and the orbit invariants they induce.

A finite group acting on ``n`` points is given by generator
permutations.  The invariants exposed here are the ones controlling
slope bounds for eigenvalue fields:

* ``max_orbit_length``  -- largest orbit length any single element
  achieves (over the group: the supremum of per-element maxima),
* ``max_min_orbit_length`` -- supremum over elements of the *shortest*
  orbit length of that element,
* ``slope`` = 1 - max_orbit_length/n  and
  ``min_orbit_slope`` = 1 - max_min_orbit_length/n, both exact
  rationals in [0, 1],
* bisecting elements (exactly two orbits, of equal size) and their
  exact density in the group (a Chebotarev-style fraction).

Each depends only on how many elements have each cycle type, so all of
them read one cached summary of the cycle types per group, in closed
form for S_n and A_n.  It rests on one deterministic
Schreier–Sims stabilizer chain: the elements are the products of the
chain's transversals, and the closure cap bounds only their enumeration
(see ``PermutationGroup``).

``interact_rules`` turns coarse invariants of a pair of number fields
(degrees, Galois group shape, discriminants) into facts about how the
action over the base field constrains slopes and bisections.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from ._arith import is_prime
from ._errors import ClosureCapExceeded

__all__ = [
    "Permutation",
    "PermutationGroup",
    "ClosureCapExceeded",
    "FieldInteraction",
    "interact_rules",
    "FACT_SLOPE_ZERO_OVER_F",
    "FACT_SLOPE_ZERO_OVER_F_TILDE",
    "FACT_SLOPE_EQUALS_RATIONAL_BASE",
    "FACT_BISECTION_TRANSFERS",
]

DEFAULT_CLOSURE_CAP = 10**6


class Permutation:
    """Permutation of ``{0, ..., n-1}`` stored as its image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self._images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def parse(cls, text: str, n: int) -> "Permutation":
        """Parse either cycle notation ``"(0 1)(2 3)"`` (points absent
        from every cycle are fixed) or an image list ``"1,0,3,2"``."""
        text = text.strip()
        if not text or text == "()":
            return cls.identity(n)
        if text.startswith("("):
            images = list(range(n))
            cycles = re.findall(r"\(([^()]*)\)", text)
            if "".join(f"({c})" for c in cycles).replace(" ", "") != text.replace(" ", ""):
                raise ValueError(f"malformed cycle notation: {text!r}")
            for cyc in cycles:
                pts = [int(tok) for tok in cyc.replace(",", " ").split()]
                if len(pts) != len(set(pts)):
                    raise ValueError(f"repeated point in cycle: ({cyc})")
                for p in pts:
                    if not 0 <= p < n:
                        raise ValueError(f"point {p} out of range for degree {n}")
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    images[a] = b
            return cls(images)
        images = [int(tok) for tok in text.split(",")]
        if len(images) != n:
            raise ValueError(
                f"image list has length {len(images)}, expected degree {n}"
            )
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    def __call__(self, i: int) -> int:
        return self._images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(x) = self(other(x))``."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self._images[j] for j in other._images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for i, j in enumerate(self._images):
            inv[j] = i
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits in cycle form, each rotated to start at its minimum,
        sorted by that minimum.  Fixed points appear as 1-cycles."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self._images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self._images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in nontrivial)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)!r})"

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of orbit lengths, sorted increasingly."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def max_orbit_length(self) -> int:
        return max(len(c) for c in self.cycles())

    def min_orbit_length(self) -> int:
        return min(len(c) for c in self.cycles())

    def bisects(self) -> bool:
        """True when the permutation has exactly two orbits and they
        have equal size.  By this literal count the identity on two
        points bisects (two fixed points)."""
        return _bisecting(self.cycle_type())


def _bisecting(cycle_type: tuple[int, ...]) -> bool:
    return len(cycle_type) == 2 and cycle_type[0] == cycle_type[1]


def _chain(degree: int, generators: Sequence[tuple[int, ...]]) -> list[dict]:
    """Stabilizer chain of the group generated by image tuples, along
    the base 0, 1, ..., degree-1, by incremental Schreier–Sims (Knuth,
    "Efficient representation of perm groups", 1991; Seress, *Permutation
    Group Algorithms*, 2003, §4.2).  Deterministic: no random elements.

    Returns ``reps``: ``reps[k]`` maps each point j of the orbit of k
    under G_k, the pointwise stabilizer of 0..k-1, to a pair (u, u^-1)
    with u in G_k and u(k) = j.  Each element is exactly one product
    u_0 * u_1 * ... of one u per level (Seress §4.1), so the order is
    the product of the orbit lengths.  A generator of G_k that does not
    sift through the chain joins ``strong[k]``, and each Schreier
    generator it makes (a product that fixes k) is added to G_(k+1)."""
    identity = tuple(range(degree))
    reps = [{k: (identity, identity)} for k in range(degree)]
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(degree)]

    def sifts(k: int, g: tuple[int, ...]) -> bool:
        for i in range(k, degree):
            if g[i] != i:  # a fixed base point sifts by the identity
                rep = reps[i].get(g[i])
                if rep is None:
                    return False
                g = tuple([rep[1][x] for x in g])
        return True

    def add(k: int, g: tuple[int, ...]) -> None:
        if sifts(k, g):
            return
        strong[k].append(g)
        # products s * u of a strong generator and a representative, each
        # pair taken once: the new g with every old u here, and every s
        # with each new u below
        todo = [tuple([g[x] for x in u]) for u, _ in reps[k].values()]
        while todo:
            h = todo.pop()
            rep = reps[k].get(h[k])
            if rep is None:
                inverse = [0] * degree
                for i, j in enumerate(h):
                    inverse[j] = i
                reps[k][h[k]] = (h, tuple(inverse))
                todo.extend(tuple([s[x] for x in h]) for s in strong[k])
            else:
                schreier = tuple([rep[1][x] for x in h])
                if schreier != identity:
                    add(k + 1, schreier)

    for g in generators:
        add(0, g)
    return reps


class PermutationGroup:
    """Group of permutations of ``{0, ..., n-1}`` given by generators.

    One cached stabilizer chain serves the group: ``order`` is the
    product of its transversal sizes, and ``elements`` lists the
    products of one representative per transversal, sorted by image
    tuple.  The orbit invariants read one cached summary of the cycle
    types: closed forms when the order is n! or n!/2 (S_n, and A_n, the
    only subgroup of index 2), otherwise a count over ``elements``.
    ``elements``, and so ``element_fraction``, raise
    ``ClosureCapExceeded`` when the order exceeds ``cap``, before listing
    anything, so the cap bounds enumeration only.  With no generators
    the group is trivial: the trivial action on 3 points has slope 2/3.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation] = (),
        cap: int = DEFAULT_CLOSURE_CAP,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.degree = degree
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            gens.append(g)
        self.generators = tuple(gens)
        self._cap = cap
        self._reps: Optional[list[dict]] = None
        self._elements: Optional[tuple[Permutation, ...]] = None
        self._summary: Optional[tuple[int, int, int]] = None

    @classmethod
    def parse(
        cls, text: str, degree: int, cap: int = DEFAULT_CLOSURE_CAP
    ) -> "PermutationGroup":
        """Build a group from semicolon-separated permutation strings."""
        gens = [
            Permutation.parse(part, degree)
            for part in text.split(";")
            if part.strip()
        ]
        return cls(degree, gens, cap=cap)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """All group elements, deterministically ordered by image tuple;
        ``ClosureCapExceeded`` when there are more than the cap."""
        if self._elements is None:
            if self.order > self._cap:
                raise ClosureCapExceeded(f"closure exceeds cap of {self._cap} elements")
            products = [tuple(range(self.degree))]
            for level in self._reps:  # built by self.order
                if len(level) > 1:
                    # itemgetter(*u)(p) is the image tuple of p * u
                    getters = [itemgetter(*u) for u, _ in level.values()]
                    products = [get(p) for get in getters for p in products]
            products.sort()
            self._elements = tuple(map(Permutation, products))
        return self._elements

    @property
    def order(self) -> int:
        if self._reps is None:
            self._reps = _chain(self.degree, [g.images for g in self.generators])
        return prod(map(len, self._reps))

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    def _orbit_summary(self) -> tuple[int, int, int]:
        """(largest orbit length, largest shortest-orbit length, number
        of bisecting elements) over the elements of the group."""
        if self._summary is None:
            n, order = self.degree, self.order
            full = factorial(n)
            # for even n, S_n has n!/z = 2(n-1)!/n elements of cycle type
            # (n/2, n/2), z = (n/2)^2 * 2!, all of them even
            bisecting = 2 * full // n**2 if n % 2 == 0 else 0
            if order == full or (2 * order == full and n % 2):
                # S_n, or A_n with n odd: an n-cycle is in the group
                self._summary = (n, n, bisecting)
            elif 2 * order == full:
                # A_n with n even: n-cycles are odd, while the (n-1)-cycles
                # and the type (n/2, n/2) are even
                self._summary = (n - 1, n // 2, bisecting)
            else:
                types = Counter(g.cycle_type() for g in self.elements)
                bisecting = sum(count for ct, count in types.items() if _bisecting(ct))
                self._summary = (max(ct[-1] for ct in types), max(ct[0] for ct in types), bisecting)
        return self._summary

    # -- orbit invariants ----------------------------------------------

    def max_orbit_length(self) -> int:
        """Largest orbit length achieved by any element."""
        return self._orbit_summary()[0]

    def max_min_orbit_length(self) -> int:
        """Supremum over elements of that element's *shortest* orbit
        length (equals n exactly when some element is an n-cycle)."""
        return self._orbit_summary()[1]

    def slope(self) -> Fraction:
        """``1 - max_orbit_length()/degree``; in [0, 1), and 0 exactly
        when some element is a full cycle."""
        return 1 - Fraction(self.max_orbit_length(), self.degree)

    def min_orbit_slope(self) -> Fraction:
        """``1 - max_min_orbit_length()/degree``; in [0, 1], never
        smaller than ``slope()``."""
        return 1 - Fraction(self.max_min_orbit_length(), self.degree)

    def has_bisecting(self) -> bool:
        return self._orbit_summary()[2] > 0

    def element_fraction(self, predicate: Callable[[Permutation], bool]) -> Fraction:
        """Exact fraction of elements satisfying ``predicate`` — the
        group-theoretic stand-in for a Chebotarev density.  Enumerates
        the group, so it is bounded by the cap."""
        hits = sum(1 for g in self.elements if predicate(g))
        return Fraction(hits, self.order)

    def bisecting_fraction(self) -> Fraction:
        return Fraction(self._orbit_summary()[2], self.order)

    # -- induced actions -------------------------------------------------

    def block_action(self, blocks: Sequence[Sequence[int]]) -> "PermutationGroup":
        """Action induced on a stable partition into equal-size blocks.

        ``blocks`` must partition ``{0, ..., degree-1}`` into blocks of
        one common size, each mapped onto a block by every generator
        (hence by every element).  Returns the degree-``len(blocks)``
        group generated by the induced block permutations.  Raises
        ``ValueError`` if the partition is uneven, incomplete, or not
        stable.
        """
        blocks = [tuple(b) for b in blocks]
        if not blocks:
            raise ValueError("empty partition")
        size = len(blocks[0])
        if any(len(b) != size for b in blocks):
            raise ValueError("blocks must have equal sizes")
        owner = {}
        for idx, b in enumerate(blocks):
            for p in b:
                if p in owner:
                    raise ValueError(f"point {p} appears in two blocks")
                owner[p] = idx
        if len(owner) != self.degree or set(owner) != set(range(self.degree)):
            raise ValueError("blocks must partition all points")
        induced = []
        for g in self.generators:
            images = []
            for idx, b in enumerate(blocks):
                targets = {owner[g(p)] for p in b}
                if len(targets) != 1:
                    raise ValueError(
                        f"partition not stable: generator {g} splits block {b}"
                    )
                images.append(targets.pop())
            induced.append(Permutation(images))
        return PermutationGroup(len(blocks), induced, cap=self._cap)


# -- field interaction facts -------------------------------------------

FACT_SLOPE_ZERO_OVER_F = "slope_zero_over_F"
FACT_SLOPE_ZERO_OVER_F_TILDE = "slope_zero_over_F_tilde"
FACT_SLOPE_EQUALS_RATIONAL_BASE = "slope_equals_rational_base"
FACT_BISECTION_TRANSFERS = "bisection_transfers"

GROUP_KINDS = ("symmetric", "alternating", "cyclic", "klein", "dihedral", "other")


@dataclass(frozen=True)
class FieldInteraction:
    """Coarse invariants of a coefficient field K over a base field F.

    ``deg_K``/``deg_F`` are the absolute degrees, ``deg_F_tilde`` the
    degree of the Galois closure of F, ``galois_group_kind`` (one of
    ``GROUP_KINDS``) the shape of Gal of the closure of K, and the
    discriminants are of K and F.  Degrees and discriminants are
    integers (not bools), degrees positive; anything else raises
    ``ValueError``.  Unknown entries stay ``None`` and simply disable
    the rules that need them.
    """

    deg_K: Optional[int] = None
    deg_F: Optional[int] = None
    deg_F_tilde: Optional[int] = None
    galois_group_kind: Optional[str] = None
    disc_K: Optional[int] = None
    disc_F: Optional[int] = None

    def __post_init__(self):
        if self.galois_group_kind is not None and self.galois_group_kind not in GROUP_KINDS:
            raise ValueError(f"unknown galois_group_kind: {self.galois_group_kind!r}")
        for name in ("deg_K", "deg_F", "deg_F_tilde", "disc_K", "disc_F"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name.startswith("deg_") and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")


def interact_rules(meta: FieldInteraction) -> frozenset[str]:
    """Derive slope/bisection facts from field invariants.

    Three independent rules fire:

    1. ``deg_K`` a prime not dividing ``deg_F``: the full cycle survives
       restriction, so the slope over F is zero.
    2. Galois group of K symmetric and ``deg_F_tilde`` odd: the slope
       over the Galois closure of F is zero.
    3. ``|disc_K|`` and ``|disc_F|`` coprime: the fields are linearly
       disjoint, so the slope over F equals the slope over the
       rationals and bisecting elements transfer.
    """
    facts = set()
    if (
        meta.deg_K is not None
        and meta.deg_F is not None
        and is_prime(meta.deg_K)
        and meta.deg_F % meta.deg_K != 0
    ):
        facts.add(FACT_SLOPE_ZERO_OVER_F)
    if (
        meta.galois_group_kind == "symmetric"
        and meta.deg_F_tilde is not None
        and meta.deg_F_tilde % 2 == 1
    ):
        facts.add(FACT_SLOPE_ZERO_OVER_F_TILDE)
    if (
        meta.disc_K is not None
        and meta.disc_F is not None
        and gcd(abs(meta.disc_K), abs(meta.disc_F)) == 1
    ):
        facts.add(FACT_SLOPE_EQUALS_RATIONAL_BASE)
        facts.add(FACT_BISECTION_TRANSFERS)
    return frozenset(facts)
