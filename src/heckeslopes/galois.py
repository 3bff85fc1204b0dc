"""Permutation actions and the orbit invariants they induce.

A finite group acting on ``n`` points is given by generator
permutations, each the tuple of its images (as a ``numberfield.Field``
is the tuple of its coefficients).  The invariants exposed here are
the ones controlling slope bounds for eigenvalue fields:

* ``max_orbit_length``  -- largest orbit length any single element
  achieves (over the group: the supremum of per-element maxima),
* ``max_min_orbit_length`` -- supremum over elements of the *shortest*
  orbit length of that element,
* ``slope`` = 1 - max_orbit_length/n  and
  ``min_orbit_slope`` = 1 - max_min_orbit_length/n, both exact
  rationals in [0, 1],
* bisecting elements (exactly two orbits, of equal size) and their
  exact density in the group (a Chebotarev-style fraction).

Each is read in the first of three tiers that decides it:

1. generator evidence: a generator that is one cycle through all n
   points puts an n-cycle in the group, so both orbit lengths are n
   and no stabilizer chain is built;
2. closed forms for S_n and A_n, recognised by the order n! or n!/2
   of one deterministic Schreier–Sims stabilizer chain;
3. for every other group, one walk over the products of the chain's
   transversals under the closure cap, updating the longest cycle, the
   shortest cycle and the bisecting count per product; no element list
   is kept (see ``PermutationGroup``).

Only groups live here; the facts that field metadata gives about them
are ``numberfield.interact_rules``.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import factorial, prod
from operator import itemgetter

from . import ClosureCapExceeded

__all__ = ["Permutation", "PermutationGroup", "ClosureCapExceeded"]

DEFAULT_CLOSURE_CAP = 10**6
_POINT_RE = re.compile(r"[0-9]+")  # fullmatch: ASCII digits only, as every integer of the schema


def _point(token: str) -> int:
    token = token.strip()
    if not _POINT_RE.fullmatch(token):
        raise ValueError(f"bad point {token!r}")
    return int(token)


class Permutation(tuple):
    """Permutation of ``{0, ..., n-1}`` as the tuple of its images
    (Seress, *Permutation Group Algorithms*, 2003): like a ``Field``, it
    compares, hashes and orders as that tuple."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> Permutation:
        if isinstance(images, Permutation):
            return images
        self = super().__new__(cls, images)
        # by type first: True == 1 and 1.0 == 1 would pass the sort
        if not all(type(i) is int for i in self) or sorted(self) != list(range(len(self))):
            raise ValueError(f"not a permutation of 0..{len(self) - 1}: {tuple(self)!r}")
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def parse(cls, text: str, n: int) -> "Permutation":
        """Parse either cycle notation ``"(0 1)(2 3)"`` (points absent
        from every cycle are fixed, and no point is in two cycles) or an
        image list ``"1,0,3,2"``."""
        text = text.strip()
        if not text or text == "()":
            return cls.identity(n)
        if text.startswith("("):
            images = list(range(n))
            cycles = re.findall(r"\(([^()]*)\)", text)
            if "".join(f"({c})" for c in cycles).replace(" ", "") != text.replace(" ", ""):
                raise ValueError(f"malformed cycle notation: {text!r}")
            seen: set[int] = set()
            for cyc in cycles:
                pts = [_point(tok) for tok in cyc.replace(",", " ").split()]
                for p in pts:
                    if p in seen:
                        raise ValueError(f"repeated point {p} in {text!r}")
                    if not 0 <= p < n:
                        raise ValueError(f"point {p} out of range for degree {n}")
                    seen.add(p)
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    images[a] = b
            return cls(images)
        images = [_point(tok) for tok in text.split(",")]
        if len(images) != n:
            raise ValueError(
                f"image list has length {len(images)}, expected degree {n}"
            )
        return cls(images)

    __call__ = tuple.__getitem__

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits in cycle form, each rotated to start at its minimum,
        sorted by that minimum.  Fixed points appear as 1-cycles."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            j, cyc = start, []
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self[j]
            if cyc:
                out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in nontrivial) or "()"

    def __repr__(self) -> str:
        return f"Permutation({list(self)!r})"

    def max_orbit_length(self) -> int:
        return max(len(c) for c in self.cycles())


def _chain(degree: int, generators: Sequence[tuple[int, ...]]) -> list[dict]:
    """Stabilizer chain of the group generated by image tuples, along
    the base 0, 1, ..., degree-1, by incremental Schreier–Sims (Knuth,
    "Efficient representation of perm groups", 1991; Seress, *Permutation
    Group Algorithms*, 2003, §4.2).  Deterministic: no random elements.

    Returns ``reps``: ``reps[k]`` maps each point j of the orbit of k
    under G_k, the pointwise stabilizer of 0..k-1, to a pair (u, u^-1)
    with u in G_k and u(k) = j.  Each element is exactly one product
    u_0 * u_1 * ... of one u per level (Seress §4.1), so the order is
    the product of the orbit lengths.  One worklist, not recursion: an
    element popped at level k that does not sift through the chain joins
    ``strong[k]``, and each Schreier generator it makes (a product that
    fixes k) is pushed at level k + 1.  An element g that fixes k and
    moves no point that the representatives of level k move commutes
    with each of them, so every Schreier generator u^-1 * g * u it makes
    is g itself (Seress §4.2): g passes straight to k + 1.  A level
    holding only k moves nothing, so any g fixing k passes it."""
    identity = tuple(range(degree))
    reps = [{k: (identity, identity)} for k in range(degree)]
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(degree)]

    # popped first to last; CPython specializes indexing for exact tuples only
    pending = [(0, tuple(g)) for g in reversed(generators)]
    while pending:
        k, g = pending.pop()
        h = g
        for i in range(k, degree):
            if h[i] != i:  # a fixed point sifts by the identity: what is composed has degree >= 2
                rep = reps[i].get(h[i])
                if rep is None:
                    break
                h = itemgetter(*h)(rep[1])
        else:
            continue  # g sifts through the chain: it is in the group so far
        if g[k] == k:
            support = [i for i, j in enumerate(g) if i != j]
            while g[k] == k and (len(reps[k]) == 1 or all(
                    u[i] == i for j, (u, _) in reps[k].items() if j != k for i in support)):
                strong[k].append(g)
                k += 1
        strong[k].append(g)
        # products s * u of a strong generator and a representative, each
        # pair taken once: the new g with every old u here, and every s
        # with each new u below
        todo = [itemgetter(*u)(g) for u, _ in reps[k].values()]
        while todo:
            h = todo.pop()
            rep = reps[k].get(h[k])
            if rep is None:
                inverse = [0] * degree
                for i, j in enumerate(h):
                    inverse[j] = i
                reps[k][h[k]] = (h, tuple(inverse))
                todo.extend(map(itemgetter(*h), strong[k]))
            else:
                schreier = itemgetter(*h)(rep[1])
                if schreier != identity:
                    pending.append((k + 1, schreier))
    return reps


def _products(reps: list[dict], degree: int) -> Iterable[tuple[int, ...]]:
    """Image tuples of the elements of the group whose chain is ``reps``,
    each once: the products u_0 * u_1 * ... of one representative per
    level (Seress §4.1), depth first over suffixes v * s =
    ``itemgetter(*s)(v)``, with level 0 batched over each suffix.  The
    trivial group yields the identity, so ``itemgetter`` only ever gets
    two or more points and returns tuples."""
    levels = [[u for u, _ in level.values()] for level in reps if len(level) > 1]
    if not levels:
        return (tuple(range(degree)),)

    def walk(depth: int, suffix: tuple[int, ...]):
        if depth:
            for v in levels[depth]:
                yield from walk(depth - 1, itemgetter(*suffix)(v))
        else:
            yield map(itemgetter(*suffix), levels[0])

    return chain.from_iterable(walk(len(levels) - 1, tuple(range(degree))))


def _walk_summary(reps: list[dict], degree: int) -> tuple[int, int, int]:
    """(longest cycle, largest shortest cycle, number of bisecting
    elements) over the group whose chain is ``reps``, one pass over
    ``_products`` that keeps no element."""
    half = degree // 2 if degree % 2 == 0 else 0
    lam = lam_min = bisecting = 0
    for g in _products(reps, degree):
        seen = bytearray(degree)
        low, high, cycles = degree, 0, 0
        for start in range(degree):
            if not seen[start]:
                seen[start] = 1
                j = g[start]
                length = 1
                while j != start:
                    seen[j] = 1
                    j = g[j]
                    length += 1
                cycles += 1
                # plain comparisons: min() and max() double the walk's time
                if length < low:
                    low = length
                if length > high:
                    high = length
        if high > lam:
            lam = high
        if low > lam_min:
            lam_min = low
        if cycles == 2 and high == half:
            bisecting += 1
    return lam, lam_min, bisecting


class PermutationGroup:
    """Group of permutations of ``{0, ..., n-1}`` given by generators,
    ``Permutation``s or plain image tuples, each checked on the way in.

    Like a ``Field``, the group computes on first use and keeps one
    stabilizer chain, whose transversal sizes multiply to ``order``;
    ``elements`` sorts the products of one representative per
    transversal by image tuple.  The orbit invariants come in three
    tiers.  A generator that is a full cycle decides
    ``max_orbit_length`` and ``max_min_orbit_length`` (both n) without
    the chain.  Otherwise, and for the bisecting count, they read one
    kept summary of the cycle types: closed forms when the order is n!
    or n!/2 (S_n, and A_n, the only subgroup of index 2), otherwise one
    walk over the same products that keeps three running values and
    lists nothing.  The walk, ``elements`` and so ``element_fraction``
    raise ``ClosureCapExceeded`` when the order exceeds ``cap``, before
    walking or listing anything, so the cap bounds enumeration only.
    With no generators the group is trivial: the trivial action on 3
    points has slope 2/3.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Iterable[int]] = (),
        cap: int = DEFAULT_CLOSURE_CAP,
    ):
        # by type first, as Permutation: 2.0 and True would pass the bounds
        for name, value in (("degree", degree), ("cap", cap)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        self.degree = degree
        self.generators = tuple(map(Permutation, generators))
        if any(len(g) != degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        self._cap = cap

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

    @functools.cached_property
    def _reps(self) -> list[dict]:
        return _chain(self.degree, self.generators)

    @functools.cached_property
    def _elements(self) -> tuple[Permutation, ...]:
        self._check_cap()
        products = sorted(_products(self._reps, self.degree))
        # in place, freeing each plain tuple; products need no check
        for i, p in enumerate(products):
            products[i] = tuple.__new__(Permutation, p)
        return tuple(products)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """All group elements, deterministically ordered by image tuple;
        ``ClosureCapExceeded`` when there are more than the cap."""
        return self._elements

    @property
    def order(self) -> int:
        return prod(map(len, self._reps))

    def _check_cap(self) -> None:
        if self.order > self._cap:
            raise ClosureCapExceeded(f"closure exceeds cap of {self._cap} elements")

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    @functools.cached_property
    def _orbit_summary(self) -> tuple[int, int, int]:
        """(largest orbit length, largest shortest-orbit length, number
        of bisecting elements) over the elements of the group."""
        n, order = self.degree, self.order
        # S_n and A_n move all points left at levels 0..n-3; 0 matches no order
        full = factorial(n) if all(len(self._reps[k]) == n - k for k in range(n - 2)) else 0
        # for even n, S_n has n!/z = 2(n-1)!/n elements of cycle type
        # (n/2, n/2), z = (n/2)^2 * 2!, all of them even
        bisecting = 2 * full // n**2 if n % 2 == 0 else 0
        if order == full or (2 * order == full and n % 2):
            # S_n, or A_n with n odd: an n-cycle is in the group
            return n, n, bisecting
        if 2 * order == full:
            # A_n with n even: n-cycles are odd, while the (n-1)-cycles
            # and the type (n/2, n/2) are even
            return n - 1, n // 2, bisecting
        self._check_cap()
        return _walk_summary(self._reps, n)

    @functools.cached_property
    def _has_full_cycle_generator(self) -> bool:
        """Generator evidence: an n-cycle makes both orbit lengths n."""
        return any(g.max_orbit_length() == self.degree for g in self.generators)

    # -- orbit invariants ----------------------------------------------

    def max_orbit_length(self) -> int:
        """Largest orbit length achieved by any element."""
        if self._has_full_cycle_generator:
            return self.degree
        return self._orbit_summary[0]

    def max_min_orbit_length(self) -> int:
        """Supremum over elements of that element's *shortest* orbit
        length (equals n exactly when some element is an n-cycle)."""
        if self._has_full_cycle_generator:
            return self.degree
        return self._orbit_summary[1]

    def slope(self) -> Fraction:
        """``1 - max_orbit_length()/degree``; in [0, 1), and 0 exactly
        when some element is a full cycle."""
        return 1 - Fraction(self.max_orbit_length(), self.degree)

    def min_orbit_slope(self) -> Fraction:
        """``1 - max_min_orbit_length()/degree``; in [0, 1], never
        smaller than ``slope()``."""
        return 1 - Fraction(self.max_min_orbit_length(), self.degree)

    def has_bisecting(self) -> bool:
        return self._orbit_summary[2] > 0

    def element_fraction(self, predicate: Callable[[Permutation], bool]) -> Fraction:
        """Exact fraction of elements satisfying ``predicate`` — the
        group-theoretic stand-in for a Chebotarev density.  Enumerates
        the group, so it is bounded by the cap."""
        hits = sum(1 for g in self.elements if predicate(g))
        return Fraction(hits, self.order)

    def bisecting_fraction(self) -> Fraction:
        return Fraction(self._orbit_summary[2], self.order)

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
