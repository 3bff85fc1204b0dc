"""Semicircle distribution and product-tail constants."""
import math

import mpmath
import numpy as np
import pytest

from conftest import (
    TAIL_TRUTH,
    mellin_residue,
    mellin_tail,
    monte_carlo_tail,
    semicircle_sample,
    semicircle_tail,
)
from heckeslopes import satotate
from heckeslopes.satotate import (
    METHOD_CLOSED,
    METHOD_SERIES,
    CEstimate,
    cdf,
    density,
    tail_constant,
    tail_constant_closed_form,
    tail_table,
)

# the closed-form single-factor column, k = 2..6, printed in reports
COLUMN = [0.315, 0.159, 0.0795, 0.0398, 0.0199]


class TestDistribution:
    def test_density_normalizes(self):
        total = mpmath.quad(density, [-2, 0, 2])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_density_shape(self):
        assert density(-2.0) == 0.0
        assert density(2.0) == 0.0
        assert density(0.0) == pytest.approx(1 / math.pi)
        assert density(1.3) == density(-1.3)
        assert density(3.0) == 0.0

    def test_cdf_endpoints_and_symmetry(self):
        assert cdf(-2.0) == 0.0
        assert cdf(2.0) == 1.0
        assert cdf(0.0) == pytest.approx(0.5)
        assert cdf(0.7) + cdf(-0.7) == pytest.approx(1.0)

    def test_cdf_matches_density(self):
        for y in (-1.5, -0.3, 0.0, 0.9, 1.9):
            h = 1e-6
            slope = (cdf(y + h) - cdf(y - h)) / (2 * h)
            assert slope == pytest.approx(density(y), abs=1e-6)

    def test_sampler_reproducible_and_in_range(self):
        # the sampler of the Monte Carlo oracle in conftest
        a = semicircle_sample(np.random.default_rng(7), 10_000)
        b = semicircle_sample(np.random.default_rng(7), 10_000)
        assert np.array_equal(a, b)
        assert a.min() >= -2 and a.max() <= 2
        assert semicircle_sample(np.random.default_rng(8), 100).shape == (100,)

    def test_sampler_moments(self):
        xs = semicircle_sample(np.random.default_rng(3), 200_000)
        assert abs(xs.mean()) < 0.01
        assert xs.var() == pytest.approx(1.0, abs=0.02)
        # and its distribution function, at a few points
        for y in (-1.5, -0.3, 0.9):
            assert np.mean(xs < y) == pytest.approx(cdf(y), abs=0.005)


class TestClosedForm:
    def test_matches_reported_column(self):
        for k, expect in zip(range(2, 7), COLUMN):
            assert tail_constant_closed_form(k) == pytest.approx(expect, abs=5e-4)

    def test_agrees_with_cdf(self):
        # P(|y| < 2^(1-k)) is just the symmetric cdf difference
        for k in range(2, 8):
            u = 2.0 ** (1 - k)
            assert tail_constant_closed_form(k) == pytest.approx(
                2 * cdf(u) - 1, abs=1e-12
            )

    def test_asymptotic_constant(self):
        assert 0.999 <= tail_constant_closed_form(20) * math.pi * 2**18 <= 1.001

    def test_rejects_k_below_two(self):
        # k = 1 would be the diagonal entry, which is not this formula
        with pytest.raises(ValueError):
            tail_constant_closed_form(1)
        with pytest.raises(ValueError):
            tail_constant_closed_form(0)


class TestOracleAgreement:
    """The grid-convolution oracle certifies the frozen truth table."""

    def test_oracle_matches_closed_form_at_t_one(self):
        for k in range(2, 7):
            assert semicircle_tail(k, 1) == pytest.approx(
                tail_constant_closed_form(k), abs=2e-4
            )

    def test_oracle_confirms_frozen_values(self):
        for (k, t), truth in TAIL_TRUTH.items():
            assert semicircle_tail(k, t) == pytest.approx(truth, abs=2e-4)


class TestTailConstant:
    def test_diagonal_is_exactly_one(self):
        for k in (1, 2, 5):
            est = tail_constant(k, k)
            assert est.value == 1.0
            assert est.abs_error == 0.0
            assert est.method == METHOD_CLOSED

    def test_closed_form_method(self):
        est = tail_constant(3, 1, method=METHOD_CLOSED)
        assert est.value == tail_constant_closed_form(3)
        assert est.abs_error <= 1e-12  # float roundoff bound only

    def test_series_t_one_matches_closed(self):
        for k in range(2, 61):
            est = tail_constant(k, 1, method=METHOD_SERIES)
            assert est.method == METHOD_SERIES
            assert est.value == pytest.approx(tail_constant_closed_form(k), rel=0, abs=1e-15)

    def test_series_t_two(self):
        est = tail_constant(4, 2)
        assert est.method == METHOD_SERIES
        assert est.value == pytest.approx(TAIL_TRUTH[(4, 2)], abs=1e-5)
        assert est.samples_or_nodes > 0 and est.seed is None

    def test_monte_carlo_hits_truth(self):
        # the sampling oracle shares nothing with the series, the Mellin
        # residues or the FFT law; 10^6 samples put three sigma near 1.5e-3
        samples = 10**6
        for k, t in TAIL_TRUTH:
            value = tail_constant(k, t).value
            three_sigma = 3 * math.sqrt(value * (1 - value) / samples)
            assert monte_carlo_tail(k, t, samples, seed=0) == pytest.approx(value, abs=three_sigma)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0, t=1),
            dict(k=3, t=0),
            dict(k=3, t=4),
            dict(k=3, t=2, method=METHOD_CLOSED),
            dict(k=4, t=5, method=METHOD_SERIES),
            dict(k=3, t=2, method="dartboard"),
            dict(k=3, t=2, method="monte_carlo"),  # nothing is sampled
            dict(k=3, t=3, method="monte_carlo"),  # checked before the exact diagonal
            dict(k=3, t=1, method="mc"),  # the old CLI spelling is no library method
            dict(k=1, t=2),
            dict(k=61, t=2, method=METHOD_SERIES),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            tail_constant(**kwargs)


# (k, t) pairs spread over the range tail_table covers, up to k = 60
SERIES_PAIRS = [
    (2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (7, 1), (8, 3), (9, 8), (10, 5),
    (12, 11), (15, 7), (20, 3), (20, 19), (25, 12), (30, 29), (40, 39),
    (45, 20), (60, 2), (60, 30), (60, 59),
]


class TestSeries:
    """The residue series against independent oracles."""

    @pytest.mark.parametrize("k, t", SERIES_PAIRS)
    def test_within_own_bound_of_mellin_oracle(self, k, t):
        est = tail_constant(k, t, method=METHOD_SERIES)
        assert (est.method, est.seed) == (METHOD_SERIES, None)
        assert est.samples_or_nodes >= 1
        assert 0.0 < est.abs_error <= 1e-12
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(est.value) - mellin_tail(k, t)) <= est.abs_error

    def test_matches_frozen_truth(self):
        for (k, t), truth in TAIL_TRUTH.items():
            assert tail_constant(k, t).value == pytest.approx(truth, abs=1e-5)

    def test_matches_fft_law(self):
        for k in range(2, 9):
            for t in range(1, k):
                assert tail_constant(k, t).value == pytest.approx(
                    semicircle_tail(k, t), abs=2e-4
                )

    @pytest.mark.parametrize("k, t", [(2, 1), (3, 2), (8, 7), (20, 19), (60, 59)])
    def test_tail_bound_covers_residues(self, k, t):
        # the bound on the residues from n on is at least residue n itself
        for n in (1, 2):
            assert abs(mellin_residue(k, t, n)) <= satotate._tail_bound(k, t, n)

    def test_zeta_to_forty_digits(self):
        with mpmath.workdps(50):
            for m in range(2, 61):
                exact = mpmath.zeta(m)
                assert abs(mpmath.mpf(str(satotate._zeta(m))) - exact) <= 1e-37 * exact


class TestEstimateRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            CEstimate(k=3, t=1, value=0.0, abs_error=0.0, method=METHOD_CLOSED,
                      samples_or_nodes=1)
        with pytest.raises(ValueError):
            CEstimate(k=3, t=1, value=0.5, abs_error=-1.0, method=METHOD_CLOSED,
                      samples_or_nodes=1)

    def test_frozen(self):
        est = tail_constant(2, 1, method=METHOD_CLOSED)
        with pytest.raises(AttributeError):
            est.value = 0.5


class TestTable:
    def test_shape_and_methods(self):
        table = tail_table(4)
        assert [len(row) for row in table] == [1, 2, 3, 4]
        for k0, row in enumerate(table):
            k = k0 + 1
            assert row[-1].value == 1.0 and row[-1].method == METHOD_CLOSED
            if k > 1:
                assert row[0].method == METHOD_CLOSED
                for cell in row[1:-1]:
                    assert cell.method == METHOD_SERIES

    def test_row_values_increase_in_t(self):
        table = tail_table(4)
        for row in table[1:]:
            values = [cell.value for cell in row]
            assert values == sorted(values)

    def test_max_k_limit(self):
        with pytest.raises(ValueError, match="need 1 <= max_k <= 60"):
            tail_table(61)
