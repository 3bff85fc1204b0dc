"""Property-based tests: the gcd forms of the defect and of the split
test agree with the factorization they replace, their refusals agree
with the per-prime gcd(f, f') test, and the root finder agrees with
numpy's companion-matrix roots and, bit for bit, with its exact-Fraction
reference."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fraction_embeddings, repeated_factor_mod_p
from heckeslopes.numberfield import (
    _horner,
    _scaled_value,
    RamifiedPrimeError,
    discriminant,
    element_in_prime,
    embeddings,
    factor_mod_p,
    is_prime,
    k_of_p,
    splits_completely,
    splitting_type,
)

prime_st = st.sampled_from([p for p in range(2, 200) if is_prime(p)])
coeff_st = st.integers(-30, 30)


@st.composite
def monic_poly(draw, max_degree=8):
    """Random monic coefficients, or a product of linear factors x + r
    so that split and repeated-root cases are common too."""
    n = draw(st.integers(1, max_degree))
    if draw(st.booleans()):
        return draw(st.lists(coeff_st, min_size=n, max_size=n)) + [1]
    f = [1]
    for r in draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)):
        f = [a + r * b for a, b in zip([0] + f, f + [0])]
    return f


@st.composite
def poly_and_element(draw):
    """A monic f and an element: random coordinates, or x + r, which
    lies in a prime above p whenever x + r divides f mod p."""
    f = draw(monic_poly())
    n = len(f) - 1
    if n > 1 and draw(st.booleans()):
        return f, [draw(st.integers(-5, 5)), 1] + [0] * (n - 2)
    return f, draw(st.lists(coeff_st, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(poly_and_element(), prime_st)
def test_k_of_p_matches_factorization_oracle(fa, p):
    f, a = fa
    if splitting_type(f, p).ramified:
        with pytest.raises(RamifiedPrimeError):
            k_of_p(a, f, p)
        return
    defect = k_of_p(a, f, p)
    if not any(a):
        assert defect == (len(f) - 1, True)
        return
    expected = sum(len(g) - 1 for g, _ in factor_mod_p(f, p) if element_in_prime(a, g, p))
    assert defect == (expected, False)


@settings(max_examples=300, deadline=None)
@given(monic_poly(), prime_st)
def test_splits_completely_matches_splitting_shape(f, p):
    split = splitting_type(f, p)
    if split.ramified:
        with pytest.raises(RamifiedPrimeError):
            splits_completely(f, p)
        return
    expected = len(split.factors) == len(f) - 1 and all(
        deg == 1 for deg in split.residue_degrees
    )
    assert splits_completely(f, p) == expected


@settings(max_examples=400, deadline=None)
@given(monic_poly(), st.sampled_from([2, 3]) | prime_st)
def test_refused_exactly_at_a_repeated_factor(f, p):
    a = [1] + [0] * (len(f) - 2)
    assert repeated_factor_mod_p(f, p) == splitting_type(f, p).ramified
    if repeated_factor_mod_p(f, p):
        with pytest.raises(RamifiedPrimeError):
            k_of_p(a, f, p)
        with pytest.raises(RamifiedPrimeError):
            splits_completely(f, p)
    else:
        assert k_of_p(a, f, p) == (0, False)
        splits_completely(f, p)


def _eval(f, x):
    return sum(c * x**i for i, c in enumerate(f))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_embeddings_match_numpy_roots(low):
    f = low + [1]
    assume(discriminant(f) != 0)
    roots = embeddings(f)
    oracle = np.roots(f[::-1])
    assert len(roots) == len(oracle)

    def near(z, pool):
        return any(abs(z - w) <= 1e-9 * max(1.0, abs(w)) for w in pool)

    real = [z.real for z in roots if z.imag == 0.0]
    assert len(real) == sum(abs(w.imag) <= 1e-7 * max(1.0, abs(w)) for w in oracle)
    assert all(near(z, oracle) for z in roots)
    assert all(near(z.conjugate(), roots) for z in roots)
    # each real root is certified by an exact sign change (or zero)
    for x in real:
        h = 1e-9 * max(1.0, abs(x))
        assert _eval(f, Fraction(x - h)) * _eval(f, Fraction(x + h)) <= 0


@settings(max_examples=150, deadline=None)
@given(monic_poly(max_degree=14))
def test_embeddings_match_fraction_reference_bit_for_bit(f):
    def bits(roots):
        return [(z.real.hex(), z.imag.hex()) for z in roots]

    assert bits(embeddings(f)) == bits(fraction_embeddings(f))


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16), st.integers(-10**20, 10**20),
       st.integers(1, 10**20))
def test_scaled_value_is_the_exact_value_times_den_to_the_n(f, num, den):
    n = len(f) - 1
    assert _scaled_value(f, num, den) == den**n * _horner(f, Fraction(num, den))
