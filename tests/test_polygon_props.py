"""Property-based tests for the multiset semiring and its order."""
from fractions import Fraction
from functools import reduce
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from heckeslopes.polygon import EMPTY, TENSOR_IDENTITY, SlopeMultiset, frobenius_polygon

slope_st = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=24
)
multiset_st = st.builds(SlopeMultiset, st.lists(slope_st, max_size=8))
small_multiset_st = st.builds(SlopeMultiset, st.lists(slope_st, max_size=5))
nonneg_slope_st = st.fractions(
    min_value=Fraction(0), max_value=Fraction(2), max_denominator=24
)


@st.composite
def dominated_pair(draw, moves=3, shrink_total=False):
    """A pair (lo, hi) with lo.leq(hi), built constructively.

    Starting from hi, repeatedly move mass from an earlier (smaller)
    sorted slope to a later one; each such transfer lowers every prefix
    sum of the sorted sequence without changing rank or total, so the
    result is dominated.  With ``shrink_total`` an extra slope decrease
    is applied, lowering the total as well.
    """
    base = draw(st.lists(slope_st, min_size=1, max_size=8))
    hi = SlopeMultiset(base)
    slopes = list(hi.slopes)
    n = len(slopes)
    for _ in range(draw(st.integers(0, moves))):
        if n < 2:
            break
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        delta = draw(nonneg_slope_st)
        slopes[i] -= delta
        slopes[j] += delta
        slopes.sort()
    if shrink_total:
        i = draw(st.integers(0, n - 1))
        slopes[i] -= draw(nonneg_slope_st)
    return SlopeMultiset(slopes), hi


class TestSemiringLaws:
    @given(multiset_st, multiset_st)
    def test_oplus_commutative(self, a, b):
        assert a.oplus(b) == b.oplus(a)

    @given(multiset_st, multiset_st, multiset_st)
    def test_oplus_associative(self, a, b, c):
        assert a.oplus(b).oplus(c) == a.oplus(b.oplus(c))

    @given(multiset_st, multiset_st)
    def test_otimes_commutative(self, a, b):
        assert a.otimes(b) == b.otimes(a)

    @settings(deadline=None)
    @given(small_multiset_st, small_multiset_st, small_multiset_st)
    def test_otimes_associative(self, a, b, c):
        assert a.otimes(b).otimes(c) == a.otimes(b.otimes(c))

    @settings(deadline=None)
    @given(small_multiset_st, small_multiset_st, small_multiset_st)
    def test_distributive(self, a, b, c):
        assert a.otimes(b.oplus(c)) == a.otimes(b).oplus(a.otimes(c))

    @given(multiset_st)
    def test_neutral_elements(self, a):
        assert a.oplus(EMPTY) == a
        assert a.otimes(TENSOR_IDENTITY) == a
        assert a.otimes(EMPTY) == EMPTY

    @given(multiset_st, multiset_st)
    def test_rank_homomorphism(self, a, b):
        assert a.oplus(b).rank == a.rank + b.rank
        assert a.otimes(b).rank == a.rank * b.rank

    @given(multiset_st, multiset_st)
    def test_integral_laws(self, a, b):
        assert a.oplus(b).integral == a.integral + b.integral
        assert a.otimes(b).integral == b.rank * a.integral + a.rank * b.integral

    @given(multiset_st)
    def test_dual_involution(self, a):
        assert a.dual().dual() == a
        assert a.dual().integral == -a.integral
        assert a.dual().rank == a.rank

    @given(multiset_st, multiset_st)
    def test_dual_distributes(self, a, b):
        assert a.oplus(b).dual() == a.dual().oplus(b.dual())
        assert a.otimes(b).dual() == a.dual().otimes(b.dual())


class TestOrder:
    @given(dominated_pair())
    def test_constructed_pairs_are_ordered(self, pair):
        lo, hi = pair
        assert lo.leq(hi)
        assert lo.integral == hi.integral
        assert lo.leq_strict(hi)

    @given(dominated_pair(shrink_total=True))
    def test_leq_implies_integral_below(self, pair):
        lo, hi = pair
        assert lo.leq(hi)
        assert lo.integral <= hi.integral

    @given(dominated_pair(), st.lists(slope_st, max_size=5))
    def test_oplus_monotone(self, pair, extra):
        lo, hi = pair
        t = SlopeMultiset(extra)
        assert lo.oplus(t).leq(hi.oplus(t))

    @settings(deadline=None)
    @given(dominated_pair(), st.lists(slope_st, min_size=1, max_size=5))
    def test_otimes_monotone(self, pair, extra):
        lo, hi = pair
        t = SlopeMultiset(extra)
        assert lo.otimes(t).leq(hi.otimes(t))

    @given(dominated_pair())
    def test_dual_preserves_order_at_equal_integral(self, pair):
        lo, hi = pair
        assert lo.dual().leq(hi.dual())

    @given(multiset_st, multiset_st)
    def test_antisymmetry(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @given(dominated_pair(), st.integers(0, 2), st.integers(0, 4), st.data())
    def test_transitivity_on_chains(self, pair, moves, seed, data):
        mid, hi = pair
        # one more transfer below mid gives lo <= mid <= hi
        slopes = list(mid.slopes)
        n = len(slopes)
        if n >= 2:
            i = data.draw(st.integers(0, n - 2))
            j = data.draw(st.integers(i + 1, n - 1))
            delta = data.draw(nonneg_slope_st)
            slopes[i] -= delta
            slopes[j] += delta
        lo = SlopeMultiset(slopes)
        assert lo.leq(mid) and mid.leq(hi)
        assert lo.leq(hi)


class TestFamilyProperties:
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_monotone_in_defect(self, d, k, data):
        i = data.draw(st.integers(0, k))
        j = data.draw(st.integers(0, k))
        lo, hi = sorted((i, j))
        assert frobenius_polygon(d, k, lo).leq(frobenius_polygon(d, k, hi))
        if lo != hi:
            assert not frobenius_polygon(d, k, hi).leq(frobenius_polygon(d, k, lo))

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_weight_three_is_double(self, d, k, data):
        i = data.draw(st.integers(0, k))
        p2 = frobenius_polygon(d, k, i)
        p3 = frobenius_polygon(d, k, i, weight=3)
        assert p3 == p2.scale(2)
        assert p3.integral == 2 * p2.integral

    def test_block_decomposition(self):
        # P(d, k, i) is i tensor-powers of the half-slope block plus
        # (k - i) tensor-powers of the ordinary block; the closed form
        # must agree with that construction and with the expanded list
        for d, k, weight in product(range(1, 6), range(1, 5), (2, 3)):
            step = 1 if weight == 2 else 2
            ordinary = reduce(SlopeMultiset.otimes, [SlopeMultiset([0, step])] * d)
            half = reduce(SlopeMultiset.otimes, [SlopeMultiset([Fraction(step, 2)] * 2)] * d)
            ordinary_list = [sum(c) for c in product((0, step), repeat=d)]
            for i in range(k + 1):
                got = frobenius_polygon(d, k, i, weight)
                assert got == reduce(SlopeMultiset.oplus, [ordinary] * (k - i) + [half] * i)
                expanded = ordinary_list * (k - i) + [Fraction(d * step, 2)] * (i * 2**d)
                assert got.slopes == tuple(sorted(expanded))


# few distinct values, so that runs of equal slopes are common
run_slope_st = st.sampled_from(
    [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
)

# numerators over distinct large primes, so that the common denominator
# of two polygons is a product of several of them; mixed with the run
# slopes above, so that runs and ties still occur
coprime_slope_st = run_slope_st | st.builds(
    Fraction,
    st.integers(-3 * 10**6, 3 * 10**6),
    st.sampled_from([1000003, 1000033, 1000037, 1000039, 2**31 - 1, 2**61 - 1]),
)


def _leq_by_partial_sums(xs, ys):
    if len(xs) != len(ys):
        return False
    a = b = Fraction(0)
    for x, y in zip(sorted(xs), sorted(ys)):
        a += x
        b += y
        if b < a:
            return False
    return True


def _vertices_by_list(xs):
    xs = sorted(xs)
    pts = [(Fraction(0), Fraction(0))]
    y = Fraction(0)
    for i, x in enumerate(xs):
        y += x
        if i + 1 == len(xs) or xs[i + 1] != x:
            pts.append((Fraction(i + 1), y))
    return tuple(pts)


@st.composite
def equal_rank_lists(draw, slope_st):
    n = draw(st.integers(0, 10))
    return (
        draw(st.lists(slope_st, min_size=n, max_size=n)),
        draw(st.lists(slope_st, min_size=n, max_size=n)),
    )


class TestRunsMatchExpandedLists:
    @given(st.lists(run_slope_st, max_size=12))
    def test_slopes_str_vertices(self, xs):
        s = SlopeMultiset(xs)
        assert s.slopes == tuple(sorted(xs))
        assert list(s) == sorted(xs)
        assert str(s) == ",".join(str(x) for x in sorted(xs))
        assert s.vertices() == _vertices_by_list(xs)
        assert (s.rank, s.integral) == (len(xs), sum(xs, Fraction(0)))

    @given(equal_rank_lists(run_slope_st) | equal_rank_lists(coprime_slope_st))
    def test_leq_equal_rank(self, pair):
        xs, ys = pair
        a, b = SlopeMultiset(xs), SlopeMultiset(ys)
        assert a.leq(b) == _leq_by_partial_sums(xs, ys)
        assert a.leq_strict(b) == (
            sum(xs, Fraction(0)) == sum(ys, Fraction(0)) and _leq_by_partial_sums(xs, ys)
        )
        ends = a._walk_below(b)
        if ends is not None:  # the exact right endpoints, as Fractions
            assert ends == (sum(xs, Fraction(0)), sum(ys, Fraction(0)))
            assert all(type(y) is Fraction for y in ends)

    @given(
        st.lists(run_slope_st, max_size=8) | st.lists(coprime_slope_st, max_size=8),
        st.lists(run_slope_st, max_size=8) | st.lists(coprime_slope_st, max_size=8),
    )
    def test_leq_any_rank(self, xs, ys):
        assert SlopeMultiset(xs).leq(SlopeMultiset(ys)) == _leq_by_partial_sums(xs, ys)

    @given(dominated_pair())
    def test_leq_strict_on_dominated_pairs(self, pair):
        lo, hi = pair
        xs, ys = list(lo.slopes), list(hi.slopes)
        assert lo.leq_strict(hi) == _leq_by_partial_sums(xs, ys)
        assert hi.leq_strict(lo) == _leq_by_partial_sums(ys, xs)
