"""Multisets of rational slopes and their Newton polygons.

A finite multiset of rationals is identified with the convex polygon
obtained by sorting the entries weakly increasingly and using them as
successive segment slopes starting from the origin.  Multisets carry a
commutative semiring structure:

* ``oplus`` is multiset union (polygons: concatenation of slope lists,
  re-sorted),
* ``otimes`` is the multiset of all pairwise sums (polygons: every slope
  of one polygon shifted by every slope of the other),

with the empty multiset neutral for ``oplus`` and the singleton ``{0}``
neutral for ``otimes``.  ``dual`` negates every slope.  The partial
order ``leq`` compares polygons of equal rank pointwise: ``S.leq(T)``
holds when the polygon of ``T`` lies on or above the polygon of ``S``
at every integer abscissa, i.e. every partial sum of the sorted slopes
of ``T`` dominates the corresponding partial sum for ``S``.

A multiset is stored as its sorted runs ``(slope, multiplicity)``, one
per distinct slope, so the geometry (``vertices``, ``integral``,
``rank``, ``leq``) costs O(runs) however large the multiplicities
are; only ``slopes``, iteration and ``str`` expand the list.  ``leq``
walks the runs in integers, each slope scaled by the common
denominator of both polygons' slopes.

``frobenius_polygon`` builds the standard two-block families used for
crystalline Frobenius slopes of eigenforms, in closed form, and
``hodge_polygon`` their fully ordinary member.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from math import comb, lcm

Rational = int | Fraction | str

__all__ = [
    "SlopeMultiset",
    "EMPTY",
    "TENSOR_IDENTITY",
    "frobenius_polygon",
    "hodge_polygon",
    "vertices_payload",
]


class SlopeMultiset:
    """Immutable multiset of rational slopes, kept in sorted order.

    >>> s = SlopeMultiset([0, 1]).otimes(SlopeMultiset([0, 1]))
    >>> str(s)
    '0,1,1,2'
    >>> s.vertices()
    ((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), (Fraction(3, 1), Fraction(2, 1)), (Fraction(4, 1), Fraction(4, 1)))
    """

    __slots__ = ("_runs",)

    def __init__(self, slopes: Iterable[Rational] = ()):
        self._runs = _runs_of((_exact(s), 1) for s in slopes)

    @classmethod
    def _from_pairs(cls, pairs: Iterable[tuple[Fraction, int]]) -> "SlopeMultiset":
        """Multiset holding each Fraction ``s`` of the ``(s, m)`` pairs
        ``m`` times."""
        out = cls.__new__(cls)
        out._runs = _runs_of(pairs)
        return out

    @classmethod
    def from_string(cls, text: str) -> "SlopeMultiset":
        """Parse the comma syntax ``"0,1/2,1/2,1"``; empty string is the
        empty multiset."""
        text = text.strip()
        if not text:
            return cls()
        return cls(part.strip() for part in text.split(","))

    # -- basic container protocol ------------------------------------

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, m in self._runs for _ in range(m))

    @property
    def rank(self) -> int:
        """Number of slopes, counted with multiplicity."""
        return sum(m for _, m in self._runs)

    @property
    def integral(self) -> Fraction:
        """Sum of all slopes = height of the polygon's right endpoint."""
        return sum((s * m for s, m in self._runs), Fraction(0))

    def __len__(self) -> int:
        return self.rank

    def __iter__(self):
        return iter(self.slopes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlopeMultiset):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __str__(self) -> str:
        return ",".join(text for s, m in self._runs for text in [str(s)] * m)

    def __repr__(self) -> str:
        return f"SlopeMultiset('{self}')"

    # -- semiring operations -----------------------------------------

    def oplus(self, other: "SlopeMultiset") -> "SlopeMultiset":
        """Multiset union (concatenation of slope lists)."""
        return SlopeMultiset._from_pairs(self._runs + other._runs)

    def otimes(self, other: "SlopeMultiset") -> "SlopeMultiset":
        """Multiset of all pairwise sums.

        The result has rank ``self.rank * other.rank``; the empty
        multiset annihilates, ``{0}`` is the identity.
        """
        return SlopeMultiset._from_pairs(
            (a + b, m * n) for a, m in self._runs for b, n in other._runs
        )

    def dual(self) -> "SlopeMultiset":
        """Entrywise negation."""
        return SlopeMultiset._from_pairs((-s, m) for s, m in self._runs)

    def scale(self, c: Rational) -> "SlopeMultiset":
        """Multiply every slope by the rational ``c``."""
        c = Fraction(c)
        return SlopeMultiset._from_pairs((c * s, m) for s, m in self._runs)

    # -- polygon geometry ----------------------------------------------

    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Polygon vertices with runs of equal slopes merged into single
        segments.  Starts at ``(0, 0)``; x-coordinates strictly increase
        and segment slopes strictly increase."""
        pts = [(Fraction(0), Fraction(0))]
        x = Fraction(0)
        y = Fraction(0)
        for s, m in self._runs:
            x += m
            y += s * m
            pts.append((x, y))
        return tuple(pts)

    def has_integral_breakpoints(self) -> bool:
        """True when every vertex of the polygon has integer
        coordinates (x-coordinates are integers by construction, so
        only the heights matter)."""
        return all(y.denominator == 1 for _, y in self.vertices())

    # -- partial order -------------------------------------------------

    def leq(self, other: "SlopeMultiset") -> bool:
        """Polygon comparison: ranks agree and the polygon of ``other``
        lies on or above this one, i.e. every partial sum of the sorted
        slopes of ``other`` is >= the corresponding partial sum here.
        Endpoints need not match; see ``leq_strict`` for that."""
        return self._walk_below(other) is not None

    def leq_strict(self, other: "SlopeMultiset") -> bool:
        """``leq`` plus equality of the right endpoints (equal
        integrals)."""
        ends = self._walk_below(other)
        return ends is not None and ends[0] == ends[1]

    def _walk_below(self, other: "SlopeMultiset") -> tuple[Fraction, Fraction] | None:
        """The right-endpoint heights of both polygons when ``self.leq(other)``,
        else None.  Both polygons are linear between the union of their
        breakpoints, so the heights are compared only there, in one
        merge walk over the two run lists, in integers: every slope
        times the common denominator of all of them."""
        if self.rank != other.rank:
            return None
        den = lcm(*(s.denominator for s, _ in self._runs + other._runs))
        mine = [(s.numerator * (den // s.denominator), m) for s, m in self._runs]
        theirs = [(s.numerator * (den // s.denominator), m) for s, m in other._runs]
        i = j = 0
        used_a = used_b = 0  # slopes of the current runs already walked
        a = b = 0
        while i < len(mine):
            (sa, ma), (sb, mb) = mine[i], theirs[j]
            step = min(ma - used_a, mb - used_b)
            a += sa * step
            b += sb * step
            if b < a:
                return None
            used_a += step
            used_b += step
            if used_a == ma:
                i, used_a = i + 1, 0
            if used_b == mb:
                j, used_b = j + 1, 0
        return Fraction(a, den), Fraction(b, den)


# an exponent beyond Python's own limit on integer strings, 4300 digits,
# would have Fraction build a power of ten that long; a longer run of
# digits would have int() name the interpreter's setting
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_LONG_DIGITS = re.compile(r"(?<![\d_])\d(?:_?\d){4300}")  # from a run's start: linear


def _exact(s: Rational) -> Fraction:
    if isinstance(s, float):
        # binary floats are almost never the rational the caller
        # meant; insist on Fraction/int/str to keep slopes exact
        raise TypeError(f"slope {s!r} is a float; pass a Fraction, int, or string")
    exp = _EXPONENT.search(s) if isinstance(s, str) else None
    if exp and (len(exp[1]) > 4300 or abs(int(exp[1])) > 4300):
        raise ValueError(f"bad rational {s!r}: exponent magnitude above 4300")
    if isinstance(s, str) and len(s) > 4300 and _LONG_DIGITS.search(s):
        raise ValueError(f"bad rational {s!r}: more than 4300 digits in a row")
    return Fraction(s)


def _runs_of(pairs: Iterable[tuple[Fraction, int]]) -> tuple[tuple[Fraction, int], ...]:
    """Sorted runs of the multiset holding each ``s`` of the ``(s, m)``
    pairs ``m`` times: equal slopes add up, empty runs are dropped."""
    counts: dict[Fraction, int] = {}
    for s, m in pairs:
        counts[s] = counts.get(s, 0) + m
    return tuple(sorted((s, m) for s, m in counts.items() if m))


EMPTY = SlopeMultiset()
TENSOR_IDENTITY = SlopeMultiset([0])


def frobenius_polygon(d: int, k: int, i: int, weight: int = 2) -> SlopeMultiset:
    """Slope multiset of a Frobenius polygon with ``i`` non-ordinary
    blocks out of ``k``, tensor-powered over a degree-``d`` base.

    For ``weight == 2`` this is the union of ``k - i`` copies of
    ``{0,1}**(otimes d)`` and ``i`` copies of ``{1/2,1/2}**(otimes d)``;
    rank ``k * 2**d``, integral ``k * d * 2**(d-1)``.  ``weight == 3``
    scales every slope by 2 (blocks ``{0,2}`` and ``{1,1}``).  The
    family is monotone in ``i``: more non-ordinary blocks lift the
    polygon.

    In closed form, with ``s = 1`` (weight 2) or ``2`` (weight 3): slope
    ``j*s`` with multiplicity ``(k-i) * C(d, j)`` for ``j = 0..d``, plus
    slope ``d*s/2`` with multiplicity ``i * 2**d``, which joins the run
    of ``j = d/2`` when ``d`` is even.  The runs come out sorted.
    """
    if d < 1:
        raise ValueError("frobenius_polygon needs d >= 1")
    if k < 1:
        raise ValueError("frobenius_polygon needs k >= 1")
    if not 0 <= i <= k:
        raise ValueError("frobenius_polygon needs 0 <= i <= k")
    if weight not in (2, 3):
        raise ValueError("weight must be 2 or 3")
    step = 1 if weight == 2 else 2
    middle = i * 2**d
    runs = [(j * step, (k - i) * comb(d, j) + (middle if 2 * j == d else 0)) for j in range(d + 1)]
    if d % 2:  # d*s/2 lies between the runs of (d - 1)/2 and (d + 1)/2
        runs.insert((d + 1) // 2, (Fraction(d * step, 2), middle))
    out = SlopeMultiset.__new__(SlopeMultiset)
    out._runs = tuple([(Fraction(s), m) for s, m in runs if m])
    return out


def hodge_polygon(d: int, k: int, weight: int = 2) -> SlopeMultiset:
    """Fully ordinary member of the family: ``frobenius_polygon`` with
    ``i = 0``.  Lies on or below every other member of the same
    ``(d, k)`` family."""
    return frobenius_polygon(d, k, 0, weight)


def vertices_payload(ms: SlopeMultiset) -> list[list[str]]:
    """Polygon vertices as [x, y] rational-string pairs."""
    return [[str(x), str(y)] for x, y in ms.vertices()]
