"""Permutation groups, orbit invariants, and the field-interaction rules."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_closure, cycle_type_histogram
from heckeslopes.galois import (
    FACT_BISECTION_TRANSFERS,
    FACT_SLOPE_EQUALS_RATIONAL_BASE,
    FACT_SLOPE_ZERO_OVER_F,
    FACT_SLOPE_ZERO_OVER_F_TILDE,
    ClosureCapExceeded,
    FieldInteraction,
    Permutation,
    PermutationGroup,
    interact_rules,
)

KLEIN = PermutationGroup.parse("(0 1)(2 3);(0 2)(1 3)", 4)
D8 = PermutationGroup.parse("(0 1 2 3);(0 2)", 4)
S4 = PermutationGroup.parse("(0 1);(0 1 2 3)", 4)
A4 = PermutationGroup.parse("(0 1 2);(0 1)(2 3)", 4)
C4 = PermutationGroup.parse("(0 1 2 3)", 4)


class TestPermutation:
    def test_parse_cycles(self):
        p = Permutation.parse("(0 1)(2 3)", 4)
        assert p.images == (1, 0, 3, 2)

    def test_parse_image_list(self):
        assert Permutation.parse("1,0,3,2", 4) == Permutation.parse("(0 1)(2 3)", 4)

    def test_parse_identity(self):
        assert Permutation.parse("()", 3) == Permutation.identity(3)
        assert Permutation.parse("", 3) == Permutation.identity(3)

    def test_fixed_points_omitted(self):
        p = Permutation.parse("(1 2)", 4)
        assert p.images == (0, 2, 1, 3)

    @pytest.mark.parametrize("bad", ["(0 1", "(0 0)", "(0 9)", "0,0,1", "0,1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Permutation.parse(bad, 3)

    def test_str_round_trip(self):
        for text in ["(0 1)(2 3)", "(0 1 2 3)", "()"]:
            p = Permutation.parse(text, 4)
            assert Permutation.parse(str(p), 4) == p

    def test_composition_applies_right_first(self):
        p = Permutation.parse("(0 1)", 3)
        q = Permutation.parse("(1 2)", 3)
        assert (p * q).images == tuple(p.images[q.images[x]] for x in range(3))

    def test_inverse(self):
        g = Permutation.parse("(0 1 2 3)", 4)
        assert g * g.inverse() == Permutation.identity(4)
        assert g.inverse() == Permutation.parse("(0 3 2 1)", 4)

    def test_cycle_type(self):
        assert Permutation.parse("(0 1 2)(3 4)", 6).cycle_type() == (1, 2, 3)
        assert Permutation.identity(3).cycle_type() == (1, 1, 1)

    def test_orbit_lengths(self):
        g = Permutation.parse("(0 1 2)(3 4)", 6)
        assert g.max_orbit_length() == 3
        assert g.min_orbit_length() == 1
        assert Permutation.parse("(0 1 2 3)", 4).min_orbit_length() == 4

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
    def test_bisects(self, text, n, expect):
        assert Permutation.parse(text, n).bisects() is expect


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
        els = D8.elements
        assert list(els) == sorted(els, key=lambda g: g.images)
        as_set = set(els)
        for a in els:
            assert a.inverse() in as_set
            for b in els:
                assert a * b in as_set

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
    # the degree <= 6 of the property above
    NAMED_GROUPS = {
        "S4xS3": ("(0 1 2 3);(0 1);(4 5 6);(4 5)", 7, 144),
        "C2^4": ("(0 1);(2 3);(4 5);(6 7)", 8, 16),
        "D9": ("(0 1 2 3 4 5 6 7 8);(1 8)(2 7)(3 6)(4 5)", 9, 18),
        "S3wrS2": ("(0 1 2);(0 1);(0 3)(1 4)(2 5)", 6, 72),
        "S8xC2": ("(0 1 2 3 4 5 6 7);(0 1);(8 9)", 10, 80640),
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
    elements."""
    bisecting = sum(1 for g in elements if g.bisects())
    lam = max(g.max_orbit_length() for g in elements)
    lam_min = max(g.min_orbit_length() for g in elements)
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
    @settings(deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))
        )
    )
    def test_invariants_match_reference_closure(self, degree_and_images):
        degree, images = degree_and_images
        gens = [Permutation(im) for im in images]
        expected = _reference_invariants(bfs_closure(gens, degree, cap=10**6), degree)
        assert _invariants(PermutationGroup(degree, gens)) == expected

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


class TestInteractRules:
    def test_prime_degree_not_dividing_base(self):
        meta = FieldInteraction(deg_K=13, deg_F=2)
        assert interact_rules(meta) == {FACT_SLOPE_ZERO_OVER_F}

    def test_prime_degree_dividing_base_is_silent(self):
        assert interact_rules(FieldInteraction(deg_K=13, deg_F=13)) == frozenset()
        assert interact_rules(FieldInteraction(deg_K=13, deg_F=26)) == frozenset()

    def test_composite_degree_is_silent(self):
        assert interact_rules(FieldInteraction(deg_K=4, deg_F=3)) == frozenset()

    def test_symmetric_group_odd_tilde_degree(self):
        meta = FieldInteraction(galois_group_kind="symmetric", deg_F_tilde=3)
        assert interact_rules(meta) == {FACT_SLOPE_ZERO_OVER_F_TILDE}

    def test_symmetric_group_even_tilde_degree_is_silent(self):
        meta = FieldInteraction(galois_group_kind="symmetric", deg_F_tilde=4)
        assert interact_rules(meta) == frozenset()

    def test_other_group_kinds_do_not_fire_rule_two(self):
        meta = FieldInteraction(galois_group_kind="alternating", deg_F_tilde=3)
        assert interact_rules(meta) == frozenset()

    def test_coprime_discriminants_transfer(self):
        meta = FieldInteraction(disc_K=33, disc_F=8)
        assert interact_rules(meta) == {
            FACT_SLOPE_EQUALS_RATIONAL_BASE,
            FACT_BISECTION_TRANSFERS,
        }

    def test_shared_discriminant_factor_is_silent(self):
        # |disc| values 44 and 8 share the factor 4, so the coprimality
        # rule must not fire even though both fields are "different"
        assert interact_rules(FieldInteraction(disc_K=44, disc_F=8)) == frozenset()

    def test_negative_discriminants_use_absolute_value(self):
        meta = FieldInteraction(disc_K=-3, disc_F=8)
        assert interact_rules(meta) == {
            FACT_SLOPE_EQUALS_RATIONAL_BASE,
            FACT_BISECTION_TRANSFERS,
        }

    def test_rules_accumulate(self):
        meta = FieldInteraction(
            deg_K=5, deg_F=2, galois_group_kind="symmetric", deg_F_tilde=3,
            disc_K=5, disc_F=8,
        )
        assert interact_rules(meta) == {
            FACT_SLOPE_ZERO_OVER_F,
            FACT_SLOPE_ZERO_OVER_F_TILDE,
            FACT_SLOPE_EQUALS_RATIONAL_BASE,
            FACT_BISECTION_TRANSFERS,
        }

    def test_empty_metadata_is_silent(self):
        assert interact_rules(FieldInteraction()) == frozenset()

    def test_bad_group_kind_rejected(self):
        with pytest.raises(ValueError):
            FieldInteraction(galois_group_kind="sporadic")

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            FieldInteraction(deg_K=0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(deg_K=True), "deg_K must be an integer, got True"),
            (dict(disc_K=1.5), "disc_K must be an integer, got 1.5"),
            (dict(deg_F="2"), "deg_F must be an integer, got '2'"),
            (dict(galois_group_kind=5), "unknown galois_group_kind: 5"),
        ],
    )
    def test_wrong_types_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            FieldInteraction(**kwargs)
        assert str(err.value) == message

    def test_degree_beyond_primality_range_refused(self):
        # is_prime decides only n < 3317044064679887385961981
        with pytest.raises(ValueError, match="too large"):
            interact_rules(FieldInteraction(deg_K=3317044064679887385961981, deg_F=1))
