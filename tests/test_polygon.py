"""Fixed-value tests for slope multisets and the Frobenius polygon family."""
import doctest
from fractions import Fraction
from functools import reduce

import pytest

from heckeslopes import polygon
from heckeslopes.polygon import (
    EMPTY,
    TENSOR_IDENTITY,
    SlopeMultiset,
    frobenius_polygon,
    hodge_polygon,
)


def ms(text):
    return SlopeMultiset.from_string(text)


class TestConstruction:
    def test_slopes_are_sorted_fractions(self):
        s = SlopeMultiset([1, Fraction(1, 2), 0])
        assert s.slopes == (0, Fraction(1, 2), 1)
        assert all(isinstance(a, Fraction) for a in s.slopes)

    def test_from_string_round_trip(self):
        s = ms("0,1/2,1/2,1")
        assert str(s) == "0,1/2,1/2,1"
        assert ms(str(s)) == s

    def test_from_string_tolerates_whitespace(self):
        assert ms(" 0 , 1/2 ,1 ") == ms("0,1/2,1")

    def test_from_string_empty(self):
        assert ms("") == EMPTY

    @pytest.mark.parametrize("bad", ["xx", "1/2/3", "1,,2", "1/0"])
    def test_from_string_rejects_garbage(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)):
            ms(bad)

    def test_huge_exponent_refused(self):
        # refused before Fraction builds 10**999999999
        with pytest.raises(ValueError, match="exponent magnitude above 4300"):
            ms("0,1e999999999")
        assert ms("1e4300").slopes == (10**4300,)

    def test_rejects_non_rational(self):
        with pytest.raises(TypeError):
            SlopeMultiset([0.5])

    def test_equality_and_hash(self):
        assert ms("1/2,0") == ms("0,1/2")
        assert hash(ms("0,1")) == hash(ms("1,0"))
        assert ms("0") != ms("0,0")


class TestSemiringOperations:
    def test_oplus_is_multiset_union(self):
        assert ms("0,1").oplus(ms("1/2")) == ms("0,1/2,1")
        assert ms("0").oplus(ms("0")) == ms("0,0")

    def test_otimes_adds_all_pairs(self):
        assert ms("0,1").otimes(ms("0,1")) == ms("0,1,1,2")
        assert ms("1/2,1/2").otimes(ms("1/2,1/2")) == ms("1,1,1,1")

    def test_otimes_with_empty_is_empty(self):
        assert ms("0,1").otimes(EMPTY) == EMPTY

    def test_neutral_elements(self):
        s = ms("0,1/2,1")
        assert s.oplus(EMPTY) == s
        assert s.otimes(TENSOR_IDENTITY) == s
        assert TENSOR_IDENTITY == ms("0")

    def test_dual_negates(self):
        assert ms("0,1/2,1").dual() == ms("-1,-1/2,0")
        assert EMPTY.dual() == EMPTY

    def test_scale(self):
        assert ms("1,3").scale(Fraction(1, 2)) == ms("1/2,3/2")
        assert ms("0,1/2,1/2,1").scale(2) == ms("0,1,1,2")

    def test_pow_oplus(self):
        # k-fold union, folded from the oplus identity
        s = ms("0,1")
        assert reduce(SlopeMultiset.oplus, [s] * 0, EMPTY) == EMPTY
        assert reduce(SlopeMultiset.oplus, [s] * 3, EMPTY) == ms("0,0,0,1,1,1")

    def test_pow_otimes(self):
        # k-fold pairwise sums, folded from the otimes identity
        s = ms("0,1")
        assert reduce(SlopeMultiset.otimes, [s] * 0, TENSOR_IDENTITY) == TENSOR_IDENTITY
        assert reduce(SlopeMultiset.otimes, [s] * 2, TENSOR_IDENTITY) == s.otimes(s)
        assert reduce(SlopeMultiset.otimes, [s] * 3, TENSOR_IDENTITY) == ms("0,1,1,1,2,2,2,3")

    def test_rank_and_integral(self):
        s = ms("0,1/2,1/2,1")
        assert s.rank == 4
        assert s.integral == 2
        assert EMPTY.rank == 0
        assert EMPTY.integral == 0


class TestNewtonPolygon:
    def test_cumulative_points(self):
        # the points (i, s_1 + ... + s_i); the vertices are those at run ends
        s = ms("0,1/2,1/2,1")
        pts = [(0, 0)]
        for i, a in enumerate(s.slopes, start=1):
            pts.append((i, pts[-1][1] + a))
        assert pts == [(0, 0), (1, 0), (2, Fraction(1, 2)), (3, 1), (4, 2)]
        assert set(s.vertices()) == set(pts) - {(2, Fraction(1, 2))}
        assert (s.rank, s.integral) == pts[-1]

    def test_vertices_merge_equal_slopes(self):
        assert ms("0,1/2,1/2,1").vertices() == ((0, 0), (1, 0), (3, 1), (4, 2))
        assert ms("1/3,1/3,1/3").vertices() == ((0, 0), (3, 1))
        assert EMPTY.vertices() == ((0, 0),)

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1/2,1/2", True),
            ("1/3,1/3,1/3", True),
            ("0,1", True),
            ("1/3", False),
            ("0,1/2", False),
            ("1/2,1/2,1/3", False),
        ],
    )
    def test_integral_breakpoints(self, text, expect):
        assert ms(text).has_integral_breakpoints() is expect

    def test_leq_means_lies_below(self):
        assert ms("0,1").leq(ms("1/2,1/2")) is True
        assert ms("1/2,1/2").leq(ms("0,1")) is False

    def test_leq_requires_equal_rank(self):
        assert ms("0,1").leq(ms("0,1,2")) is False
        assert EMPTY.leq(ms("0")) is False

    def test_leq_reflexive(self):
        s = ms("0,1/2,1")
        assert s.leq(s) is True

    def test_leq_strict_needs_equal_integrals(self):
        assert ms("0,1").leq_strict(ms("1/2,1/2")) is True
        assert ms("0,1").leq(ms("1,1")) is True
        assert ms("0,1").leq_strict(ms("1,1")) is False


class TestFrobeniusFamily:
    @pytest.mark.parametrize(
        "d,k,i,expect",
        [
            (1, 1, 0, "0,1"),
            (1, 1, 1, "1/2,1/2"),
            (1, 2, 1, "0,1/2,1/2,1"),
            (2, 1, 0, "0,1,1,2"),
            (2, 1, 1, "1,1,1,1"),
        ],
    )
    def test_weight_two_values(self, d, k, i, expect):
        assert frobenius_polygon(d, k, i) == ms(expect)

    @pytest.mark.parametrize(
        "d,k,i,expect",
        [
            (1, 1, 0, "0,2"),
            (1, 1, 1, "1,1"),
            (2, 1, 1, "2,2,2,2"),
        ],
    )
    def test_weight_three_values(self, d, k, i, expect):
        assert frobenius_polygon(d, k, i, weight=3) == ms(expect)

    def test_weight_three_is_vertical_stretch(self):
        for d in (1, 2, 3):
            for k in (1, 2):
                for i in range(k + 1):
                    assert frobenius_polygon(d, k, i, weight=3) == frobenius_polygon(
                        d, k, i
                    ).scale(2)

    def test_rank_and_integral_formulas(self):
        for d in (1, 2, 3):
            for k in (1, 2, 4):
                for i in (0, k):
                    for w in (2, 3):
                        s = frobenius_polygon(d, k, i, weight=w)
                        assert s.rank == k * 2**d
                        assert s.integral == k * d * 2 ** (d - 1) * (w - 1)

    def test_hodge_is_i_zero(self):
        assert hodge_polygon(2, 3) == frobenius_polygon(2, 3, 0)
        assert hodge_polygon(1, 2, weight=3) == frobenius_polygon(1, 2, 0, weight=3)

    def test_family_is_monotone_in_i(self):
        d, k = 2, 3
        chain = [frobenius_polygon(d, k, i) for i in range(k + 1)]
        for lo, hi in zip(chain, chain[1:]):
            assert lo.leq(hi)
            assert not hi.leq(lo)

    def test_integral_breakpoints_across_family(self):
        for d in (1, 2, 3):
            for k in (1, 3):
                for i in range(k + 1):
                    assert frobenius_polygon(d, k, i).has_integral_breakpoints()

    @pytest.mark.parametrize(
        "d,k,i,w",
        [(0, 1, 0, 2), (1, 0, 0, 2), (1, 1, -1, 2), (1, 1, 2, 2), (1, 1, 0, 4)],
    )
    def test_domain_errors(self, d, k, i, w):
        with pytest.raises(ValueError):
            frobenius_polygon(d, k, i, weight=w)

    def test_big_instance_stays_exact(self):
        # degree-4 base with a large Hecke field: y-coordinates must stay
        # exact integers at the endpoint, far beyond float comfort
        s = frobenius_polygon(4, 42, 0)
        assert s.rank == 42 * 16
        assert s.integral == 42 * 4 * 8
        assert s.has_integral_breakpoints()


def test_docstring_examples_run():
    result = doctest.testmod(polygon)
    assert result.attempted >= 3 and result.failed == 0
