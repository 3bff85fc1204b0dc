"""Permutation groups and their orbit invariants."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bfs_closure, cycle_type_histogram
from heckeslopes import galois
from heckeslopes.galois import ClosureCapExceeded, Permutation, PermutationGroup

KLEIN = PermutationGroup.parse("(0 1)(2 3);(0 2)(1 3)", 4)
D8 = PermutationGroup.parse("(0 1 2 3);(0 2)", 4)
S4 = PermutationGroup.parse("(0 1);(0 1 2 3)", 4)
A4 = PermutationGroup.parse("(0 1 2);(0 1)(2 3)", 4)
C4 = PermutationGroup.parse("(0 1 2 3)", 4)


class TestPermutation:
    def test_parse_cycles(self):
        assert Permutation.parse("(0 1)(2 3)", 4) == (1, 0, 3, 2)

    def test_parse_image_list(self):
        assert Permutation.parse("1,0,3,2", 4) == Permutation.parse("(0 1)(2 3)", 4)

    def test_parse_identity(self):
        assert Permutation.parse("()", 3) == Permutation.identity(3)
        assert Permutation.parse("", 3) == Permutation.identity(3)

    def test_fixed_points_omitted(self):
        assert Permutation.parse("(1 2)", 4) == (0, 2, 1, 3)

    # points are ASCII digits only, though int() reads 1_0 as 10, +0 as 0
    # and the Arabic-Indic digit one as 1
    PARSE_REJECTS = [
        ("(0 1", 3), ("(0 0)", 3), ("(0 9)", 3), ("0,0,1", 3), ("0,1", 3),
        ("(0 1_0)", 11), ("(+0 1)", 3), ("(0 \u0661)", 3), ("1_0,0,1,2,3,4,5,6,7,8,9", 11),
        # a point in two cycles, which the later cycle would overwrite
        ("(0 1 2)(2 1 0)", 3), ("(0 1)(0 1)", 2), ("(0)(0)", 1),
    ]

    @pytest.mark.parametrize("bad, n", PARSE_REJECTS, ids=[bad for bad, _ in PARSE_REJECTS])
    def test_parse_rejects(self, bad, n):
        with pytest.raises(ValueError):
            Permutation.parse(bad, n)

    def test_is_its_image_tuple(self):
        p = Permutation((1, 0))
        assert isinstance(p, tuple) and p == (1, 0) and hash(p) == hash((1, 0))
        assert (len(p), p[0], list(p)) == (2, 1, [1, 0])
        assert sorted([Permutation((1, 0)), Permutation((0, 1))]) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("images", [(True, False), (1.0, 0.0), (1, 0.0), (1, "0")])
    def test_images_must_be_ints(self, images):
        # True == 1 and 1.0 == 1, so a check by value alone lets them in
        with pytest.raises(ValueError, match="not a permutation of 0..1"):
            Permutation(images)

    def test_str_round_trip(self):
        for text in ["(0 1)(2 3)", "(0 1 2 3)", "()"]:
            p = Permutation.parse(text, 4)
            assert Permutation.parse(str(p), 4) == p

    def test_inverse(self):
        # the reversed cycle undoes the cycle, and the group holds both
        g = Permutation.parse("(0 1 2 3)", 4)
        h = Permutation.parse("(0 3 2 1)", 4)
        assert [g(h(x)) for x in range(4)] == [h(g(x)) for x in range(4)] == [0, 1, 2, 3]
        assert {g, h} <= set(C4.elements)

    def test_cycle_type(self):
        assert Permutation.parse("(0 1 2)(3 4)", 6).cycles() == ((0, 1, 2), (3, 4), (5,))
        assert Permutation.parse("(4 3)(2 0 1)", 6).cycles() == ((0, 1, 2), (3, 4), (5,))
        assert Permutation.identity(3).cycles() == ((0,), (1,), (2,))

    def test_orbit_lengths(self):
        assert Permutation.parse("(0 1 2)(3 4)", 6).max_orbit_length() == 3
        assert Permutation.parse("(0 1 2 3)", 4).max_orbit_length() == 4

    # the walk behind the orbit invariants reads each element's cycles
    # once; fed a single element, it reports that element alone
    @pytest.mark.parametrize(
        "text,n,expect",
        [
            ("(0 1)(2 3)", 4, True),
            ("(0 1 2)(3 4 5)", 6, True),
            ("()", 2, True),  # two fixed points are two equal orbits
            ("(0 1)", 3, False),
            ("()", 4, False),
            ("(0 1 2 3)", 4, False),
        ],
    )
    def test_bisects(self, monkeypatch, text, n, expect):
        g = Permutation.parse(text, n)
        monkeypatch.setattr(galois, "_products", lambda reps, degree: [g])
        assert galois._walk_summary([], n)[2] == int(expect)

    @pytest.mark.parametrize(
        "text,n,longest,shortest",
        [
            ("()", 1, 1, 1),
            ("()", 3, 1, 1),
            ("(0 1 2)(3 4)", 6, 3, 1),
            ("(0 1 2)(3 4 5)", 6, 3, 3),
            ("(0 1)(2 3 4)", 5, 3, 2),
            ("(0 1 2 3 4)", 5, 5, 5),
        ],
    )
    def test_walk_orbit_lengths(self, monkeypatch, text, n, longest, shortest):
        g = Permutation.parse(text, n)
        monkeypatch.setattr(galois, "_products", lambda reps, degree: [g])
        assert galois._walk_summary([], n)[:2] == (longest, shortest)


@st.composite
def block_products(draw):
    """(degree, generator images), each generator acting on one block of
    points and fixing the rest.  Disjoint blocks of at most 4 points give
    a direct product of the blocks' groups, scattered over the base by a
    random relabeling; overlapping blocks (degree at most 7, so the
    reference closure stays small) give whatever they generate together."""
    disjoint = draw(st.booleans())
    degree = draw(st.integers(1, 10 if disjoint else 7))
    if disjoint:
        points, blocks = draw(st.permutations(range(degree))), []
        while points:
            size = draw(st.integers(1, 4))
            blocks.append(points[:size])
            points = points[size:]
    else:
        block = st.lists(st.integers(0, degree - 1), min_size=1, max_size=4, unique=True)
        blocks = draw(st.lists(block, min_size=1, max_size=3))
    images = []
    for block in blocks:
        for shuffled in draw(st.lists(st.permutations(block), min_size=1, max_size=2)):
            image = list(range(degree))
            for a, b in zip(block, shuffled):
                image[a] = b
            images.append(image)
    return degree, images


class TestGroupClosure:
    @pytest.mark.parametrize(
        "group,order",
        [(KLEIN, 4), (C4, 4), (D8, 8), (A4, 12), (S4, 24)],
    )
    def test_orders(self, group, order):
        assert group.order == order

    def test_trivial_group(self):
        g = PermutationGroup(3)
        assert g.order == 1
        assert g.elements == (Permutation.identity(3),)
        assert PermutationGroup.parse("()", 1).elements == (Permutation.identity(1),)

    def test_elements_sorted_and_closed(self):
        # a finite set closed under composition is a group
        els = D8.elements
        assert list(els) == sorted(els)
        as_set = set(els)
        for a in els:
            for b in els:
                assert tuple([a[j] for j in b]) in as_set

    def test_closure_cap(self):
        s6 = PermutationGroup.parse("(0 1);(0 1 2 3 4 5)", 6, cap=100)
        with pytest.raises(ClosureCapExceeded) as raised:
            s6.elements
        assert str(raised.value) == "closure exceeds cap of 100 elements"
        assert s6.order == len(bfs_closure(s6.generators, 6, cap=10**6)) == 720
        for cap in (0, -5):
            with pytest.raises(ValueError):
                PermutationGroup(3, cap=cap)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            PermutationGroup(3, [Permutation.parse("(0 1)", 4)])

    def test_plain_image_tuples_are_checked(self):
        group = PermutationGroup(3, [(1, 0, 2)])
        assert group.generators == (Permutation((1, 0, 2)),) and group.order == 2
        for gens in ([(0, 0, 1)], [(1, 0)]):
            with pytest.raises(ValueError):
                PermutationGroup(3, gens)
        # refused at construction, not later as a list index in ``order``
        with pytest.raises(ValueError, match="not a permutation"):
            PermutationGroup(2, [(1.0, 0.0)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PermutationGroup(0), "degree must be >= 1"),
            (lambda: PermutationGroup(3, [(1, 0), (0, 2, 1)]), "generator degree mismatch"),
            # by type before the bounds: 2.0 and True compare as ints
            (lambda: PermutationGroup(2.0, [(1, 0)]), "degree must be an int, not 2.0"),
            (lambda: PermutationGroup(True, [(0,)]), "degree must be an int, not True"),
            (lambda: PermutationGroup(2, [(1, 0)], cap=2.5), "cap must be an int, not 2.5"),
            (lambda: PermutationGroup(2, [(1, 0)], cap=True), "cap must be an int, not True"),
            (lambda: PermutationGroup(2, cap=0), "cap must be >= 1"),
        ],
        ids=[
            "degree-0", "product-of-degrees-2-and-3", "float-degree", "bool-degree",
            "float-cap", "bool-cap", "cap-0",
        ],
    )
    def test_refusals(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @settings(deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))
        )
    )
    def test_matches_reference_closure(self, degree_and_images):
        degree, images = degree_and_images
        gens = [Permutation(im) for im in images]
        expected = bfs_closure(gens, degree, cap=10**6)
        group = PermutationGroup(degree, gens)
        assert group.elements == expected  # the same elements in the same order
        order = len(expected)
        assert group.order == order
        assert PermutationGroup(degree, gens, cap=order).elements == expected
        if order > 1:
            with pytest.raises(ClosureCapExceeded) as reference:
                bfs_closure(gens, degree, cap=order - 1)
            with pytest.raises(ClosureCapExceeded) as raised:
                PermutationGroup(degree, gens, cap=order - 1).elements
            assert str(raised.value) == str(reference.value)
            assert str(raised.value) == f"closure exceeds cap of {order - 1} elements"

    @settings(deadline=None)
    @given(block_products())
    @example((6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]))
    @example((4, [[0, 2, 1, 3], [1, 0, 2, 3]]))
    def test_block_products_match_reference_closure(self, degree_and_images):
        # a generator that fixes a level's base point and every point its
        # representatives move passes that level; these products are
        # where that happens
        degree, images = degree_and_images
        expected = bfs_closure([Permutation(im) for im in images], degree, cap=10**6)
        group = PermutationGroup(degree, images)
        assert group.order == len(expected)
        assert group.elements == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_orders_of_transitive_families(self, n):
        cycle = "(" + " ".join(map(str, range(n))) + ")"
        reflection = "".join(f"({i} {n - i})" for i in range(1, (n + 1) // 2))
        long_odd_cycle = cycle if n % 2 else "(" + " ".join(map(str, range(1, n))) + ")"
        orders = {
            cycle: n,
            f"{cycle};{reflection}": 2 * n,
            f"{long_odd_cycle};(0 1 2)": factorial(n) // 2,
            f"{cycle};(0 1)": factorial(n),
        }
        for gens, order in orders.items():
            assert PermutationGroup.parse(gens, n).order == order, gens

    # groups whose stabilizer chains have several nontrivial levels, past
    # the degree <= 6 of the property above, and one that random
    # generators seldom give
    NAMED_GROUPS = {
        "S4xS3": ("(0 1 2 3);(0 1);(4 5 6);(4 5)", 7, 144),
        "C2^4": ("(0 1);(2 3);(4 5);(6 7)", 8, 16),
        "D9": ("(0 1 2 3 4 5 6 7 8);(1 8)(2 7)(3 6)(4 5)", 9, 18),
        "S3wrS2": ("(0 1 2);(0 1);(0 3)(1 4)(2 5)", 6, 72),
        "S8xC2": ("(0 1 2 3 4 5 6 7);(0 1);(8 9)", 10, 80640),
        # S_5 acting on the 6 points of the projective line over F_5: a
        # walk that multiplies the levels in the wrong order miscounts it
        "PGL2(5)": ("(1 2 5 4);(0 3 5 4)", 6, 120),
    }

    @pytest.mark.parametrize("name", NAMED_GROUPS)
    def test_named_groups_match_reference_closure(self, name):
        gens, degree, order = self.NAMED_GROUPS[name]
        group = PermutationGroup.parse(gens, degree)
        expected = bfs_closure(group.generators, degree, cap=10**6)
        assert group.elements == expected  # the same elements in the same order
        assert group.order == len(expected) == order

    def test_large_orders_without_enumeration(self):
        # sifting skips the base points an element fixes; without that,
        # the C_2^200 chain runs for minutes
        s60 = PermutationGroup.parse(_symmetric(60), 60)
        assert s60.order == factorial(60)
        c2_200 = PermutationGroup.parse(";".join(f"({2 * i} {2 * i + 1})" for i in range(200)), 400)
        assert c2_200.order == 2**200
        with pytest.raises(ClosureCapExceeded):
            c2_200.slope()

    def test_deep_chains_without_recursion(self):
        # each level of a chain once held one Python frame: C_2^500 is 500
        # levels deep, and a transposition of the last two of 1000 points
        # passes 998 levels that fix it
        c2_500 = PermutationGroup.parse(";".join(f"({2 * i} {2 * i + 1})" for i in range(500)), 1000)
        assert c2_500.order == 2**500
        with pytest.raises(ClosureCapExceeded):
            c2_500.has_bisecting()
        late = PermutationGroup.parse("(998 999)", 1000)
        assert late.max_orbit_length() == 2
        assert late.bisecting_fraction() == 0

    @pytest.mark.parametrize(
        "gens, n, calls",
        [("(0 1)", 4096, 0), ("(0 1 2 3 4 5 6 7 8 9 10 11)", 12, 0), ("S6", 6, 1), ("A6", 6, 1)],
        ids=["transposition-4096", "C12", "S6", "A6"],
    )
    def test_factorial_only_for_symmetric_and_alternating_profiles(self, monkeypatch, gens, n, calls):
        gens = {"S6": _symmetric(6), "A6": _alternating(6)}.get(gens, gens)
        seen = []
        monkeypatch.setattr(galois, "factorial", lambda m: seen.append(m) or factorial(m))
        group = PermutationGroup.parse(gens, n)
        group.bisecting_fraction()
        assert seen == [n] * calls


class TestOrbitInvariants:
    @pytest.mark.parametrize(
        "group,lam,sigma",
        [
            (KLEIN, 2, Fraction(1, 2)),
            (D8, 4, 0),
            (S4, 4, 0),
            (A4, 3, Fraction(1, 4)),
            (PermutationGroup(3), 1, Fraction(2, 3)),
            (PermutationGroup(4), 1, Fraction(3, 4)),
            (PermutationGroup.parse("(0 2 4)(1 3 5)", 6), 3, Fraction(1, 2)),
        ],
    )
    def test_slope_fixtures(self, group, lam, sigma):
        assert group.max_orbit_length() == lam
        assert group.slope() == sigma
        assert isinstance(group.slope(), Fraction)

    def test_min_orbit_invariants(self):
        # the largest minimal orbit: D8's 4-cycles have a single orbit
        assert D8.max_min_orbit_length() == 4
        assert D8.min_orbit_slope() == 0
        # in S4 a transposition pins its fixed points, but the 4-cycles
        # still push the minimal orbit to 4
        assert S4.max_min_orbit_length() == 4
        # Klein: every non-identity element has all orbits of size 2
        assert KLEIN.max_min_orbit_length() == 2
        assert KLEIN.min_orbit_slope() == Fraction(1, 2)
        # A4: 3-cycles leave a fixed point, double transpositions don't
        assert A4.max_min_orbit_length() == 2
        assert A4.min_orbit_slope() == Fraction(1, 2)

    def test_zero_slope_iff_full_cycle(self):
        for group in (KLEIN, D8, S4, A4, C4):
            has_n_cycle = any(
                g.max_orbit_length() == group.degree for g in group.elements
            )
            assert (group.slope() == 0) is has_n_cycle

    def test_bisection(self):
        assert KLEIN.has_bisecting() is True
        assert KLEIN.bisecting_fraction() == Fraction(3, 4)
        assert D8.has_bisecting() is True
        assert D8.bisecting_fraction() == Fraction(3, 8)
        assert PermutationGroup(4).has_bisecting() is False
        assert PermutationGroup.parse("(0 2 4)(1 3 5)", 6).has_bisecting() is True

    def test_element_fraction(self):
        frac = D8.element_fraction(lambda g: g.max_orbit_length() == 4)
        assert frac == Fraction(1, 4)  # the two 4-cycles
        assert S4.element_fraction(lambda g: True) == 1


def _reference_invariants(elements, degree):
    """The six invariants and the order, straight from a list of all
    elements and the cycle lengths of each.  By this literal count the
    identity on two points bisects (two fixed points)."""
    lengths = [sorted(map(len, g.cycles())) for g in elements]
    bisecting = sum(1 for ls in lengths if len(ls) == 2 and ls[0] == ls[1])
    lam = max(ls[-1] for ls in lengths)
    lam_min = max(ls[0] for ls in lengths)
    return {
        "order": len(elements),
        "max_orbit_length": lam,
        "max_min_orbit_length": lam_min,
        "slope": 1 - Fraction(lam, degree),
        "min_orbit_slope": 1 - Fraction(lam_min, degree),
        "has_bisecting": bisecting > 0,
        "bisecting_fraction": Fraction(bisecting, len(elements)),
    }


def _invariants(group):
    return {
        "order": group.order,
        "max_orbit_length": group.max_orbit_length(),
        "max_min_orbit_length": group.max_min_orbit_length(),
        "slope": group.slope(),
        "min_orbit_slope": group.min_orbit_slope(),
        "has_bisecting": group.has_bisecting(),
        "bisecting_fraction": group.bisecting_fraction(),
    }


def _symmetric(n):
    cycle = "(" + " ".join(map(str, range(n))) + ")"
    return f"{cycle};(0 1)"


def _alternating(n):
    # a cycle of odd length n or n - 1 (an even permutation) and a
    # 3-cycle generate A_n for n >= 3; A_2 is trivial
    points = range(n) if n % 2 else range(1, n)
    return "(" + " ".join(map(str, points)) + ");(0 1 2)" if n >= 3 else ""


class TestCycleTypeHistogram:
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("family", ["symmetric", "alternating"])
    def test_closed_forms_without_enumeration(self, family, n):
        gens = _symmetric(n) if family == "symmetric" else _alternating(n)
        group = PermutationGroup.parse(gens, n, cap=1)  # enumeration would raise
        even_alternating = family == "alternating" and n % 2 == 0
        assert group.order == factorial(n) // (2 if family == "alternating" else 1)
        # A_n of even degree has no n-cycle: its longest cycle has
        # length n - 1, and its best shortest orbit is n/2, from (n/2, n/2)
        assert group.slope() == (Fraction(1, n) if even_alternating else 0)
        assert group.min_orbit_slope() == (Fraction(1, 2) if even_alternating else 0)
        m, odd = divmod(n, 2)
        assert group.has_bisecting() is not odd
        if odd:
            assert group.bisecting_fraction() == 0
        elif family == "symmetric":
            assert group.bisecting_fraction() == Fraction(1, 2 * m * m)
        else:
            assert group.bisecting_fraction() == Fraction(1, m * m)
        if group.order > 1:
            with pytest.raises(ClosureCapExceeded):
                group.elements

    @pytest.mark.parametrize("n", range(2, 12))
    @pytest.mark.parametrize("family", ["symmetric", "alternating"])
    def test_closed_forms_match_the_partition_histogram(self, family, n):
        histogram = cycle_type_histogram(n, alternating=family == "alternating")
        order = sum(histogram.values())
        lam = max(ct[-1] for ct in histogram)
        lam_min = max(ct[0] for ct in histogram)
        bisecting = sum(count for ct, count in histogram.items() if len(ct) == 2 and ct[0] == ct[1])
        gens = _symmetric(n) if family == "symmetric" else _alternating(n)
        assert _invariants(PermutationGroup.parse(gens, n, cap=1)) == {
            "order": order,
            "max_orbit_length": lam,
            "max_min_orbit_length": lam_min,
            "slope": 1 - Fraction(lam, n),
            "min_orbit_slope": 1 - Fraction(lam_min, n),
            "has_bisecting": bisecting > 0,
            "bisecting_fraction": Fraction(bisecting, order),
        }


class TestThreeTiers:
    """Generator evidence, closed forms, then the streamed walk."""

    @settings(deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.permutations(range(n)), max_size=3),
                # the points of a full-cycle generator in cycle order, if any
                st.none() | st.permutations(range(n)),
                st.integers(0, 3),
            )
        )
    )
    @example((1, [], None, 0))
    @example((1, [], [0], 0))
    @example((5, [], None, 0))
    @example((6, [[1, 0, 3, 2, 5, 4]], [0, 3, 1, 4, 2, 5], 1))
    def test_invariants_match_reference_closure(self, drawn):
        degree, images, cycle, at = drawn
        gens = [Permutation(im) for im in images]
        if cycle is not None:
            full = [0] * degree
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                full[a] = b
            gens.insert(min(at, len(gens)), Permutation(full))
        expected = _reference_invariants(bfs_closure(gens, degree, cap=10**6), degree)
        group = PermutationGroup(degree, gens)
        assert _invariants(group) == expected
        assert "_elements" not in vars(group)  # the walk lists nothing
        if cycle is not None:
            fresh = PermutationGroup(degree, gens, cap=1)
            assert fresh.max_orbit_length() == fresh.max_min_orbit_length() == degree
            assert "_reps" not in vars(fresh)  # decided without a chain

    @pytest.mark.parametrize("name", TestGroupClosure.NAMED_GROUPS)
    def test_walk_matches_reference_closure_on_named_groups(self, name):
        gens, degree, _ = TestGroupClosure.NAMED_GROUPS[name]
        group = PermutationGroup.parse(gens, degree)
        expected = _reference_invariants(bfs_closure(group.generators, degree, cap=10**6), degree)
        assert _invariants(group) == expected
        assert "_elements" not in vars(group)

    def test_generator_evidence_is_read_once_per_group(self, monkeypatch):
        calls = []
        longest = Permutation.max_orbit_length
        monkeypatch.setattr(
            Permutation, "max_orbit_length", lambda g: calls.append(g) or longest(g)
        )
        klein = PermutationGroup.parse("(0 1)(2 3);(0 2)(1 3)", 4)
        for _ in range(2):
            assert (klein.max_orbit_length(), klein.max_min_orbit_length()) == (2, 2)
        assert calls == list(klein.generators)

    def test_cap_stops_the_walk_but_not_generator_evidence(self):
        c2_cubed = PermutationGroup.parse("(0 1);(2 3);(4 5)", 6, cap=7)
        with pytest.raises(ClosureCapExceeded, match="^closure exceeds cap of 7 elements$"):
            c2_cubed.has_bisecting()
        with pytest.raises(ClosureCapExceeded, match="^closure exceeds cap of 7 elements$"):
            c2_cubed.slope()
        # S_6 wr S_2, 1036800 elements: a 12-cycle generator decides both
        # orbit lengths; the bisecting count still needs the walk
        wreath = PermutationGroup.parse("(0 6 1 7 2 8 3 9 4 10 5 11);(0 1)", 12)
        assert wreath.slope() == wreath.min_orbit_slope() == 0
        with pytest.raises(ClosureCapExceeded, match="^closure exceeds cap of 1000000 elements$"):
            wreath.has_bisecting()
        assert wreath.order == 2 * factorial(6) ** 2


class TestBlockAction:
    def test_quotient_of_d8(self):
        quotient = D8.block_action([[0, 2], [1, 3]])
        assert quotient.degree == 2
        assert quotient.order == 2

    def test_singleton_blocks_iso(self):
        q = KLEIN.block_action([[0], [1], [2], [3]])
        assert q.order == KLEIN.order
        assert q.slope() == KLEIN.slope()

    def test_unstable_partition_rejected(self):
        with pytest.raises(ValueError):
            S4.block_action([[0, 1], [2, 3]])

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValueError):
            KLEIN.block_action([[0], [1, 2, 3]])

    def test_bad_cover_rejected(self):
        with pytest.raises(ValueError):
            KLEIN.block_action([[0, 1], [1, 2]])

    @pytest.mark.parametrize(
        "blocks, message",
        [([], "empty partition"), ([[0, 1]], "must partition all points")],
        ids=["empty", "misses-2-and-3"],
    )
    def test_partial_partition_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            KLEIN.block_action(blocks)

    def test_semistability_on_random_block_groups(self):
        # groups built to preserve the partition {0,1}{2,3}{4,5}: block
        # permutation plus arbitrary flips inside blocks
        rng = random.Random(4025)
        blocks = [[0, 1], [2, 3], [4, 5]]
        for _ in range(30):
            gens = []
            for _g in range(rng.randint(1, 3)):
                order = rng.sample(range(3), 3)
                images = [0] * 6
                for tgt, src in enumerate(order):
                    flip = rng.random() < 0.5
                    a, b = blocks[src]
                    ta, tb = blocks[tgt]
                    images[a] = tb if flip else ta
                    images[b] = ta if flip else tb
                gens.append(Permutation(images))
            group = PermutationGroup(6, gens)
            quotient = group.block_action(blocks)
            assert 2 * quotient.max_orbit_length() >= group.max_orbit_length()
            assert quotient.slope() <= group.slope()

    def test_subgroup_monotonicity(self):
        # Klein <= D8 <= S4 as actions on the same four points
        chain = [KLEIN, D8, S4]
        for small, big in zip(chain, chain[1:]):
            assert small.max_orbit_length() <= big.max_orbit_length()
            assert small.slope() >= big.slope()
