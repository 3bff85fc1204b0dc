"""Property-based tests: the gcd forms of the defect and of the split
test agree with the factorization they replace."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeslopes.numberfield import (
    RamifiedPrimeError,
    element_in_prime,
    factor_mod_p,
    is_prime,
    k_of_p,
    splits_completely,
    splitting_type,
)

prime_st = st.sampled_from([p for p in range(2, 200) if is_prime(p)])
coeff_st = st.integers(-30, 30)


@st.composite
def monic_poly(draw):
    """Random monic coefficients, or a product of linear factors x + r
    so that split and repeated-root cases are common too."""
    n = draw(st.integers(1, 8))
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
