"""Property-based tests: long division mod p gives f = q*g + r with
deg r < deg g, the monic gcd divides both and Euclid's last remainder
has the reference gcd degree, the modular power agrees with repeated
schoolbook products and remainders, the
discriminant agrees with a Sylvester determinant over Fraction, the
factorization mod p is a product of distinct
irreducibles (checked by trial division), the defect agrees with a
rank mod p and the split test with a count of roots, with refusals
exactly where p divides the Sylvester discriminant and where the
per-prime gcd(f, f') test finds a repeated factor, a list, a tuple and
one shared ``Field`` get the same answers in any order (the same
refusal and message too, whatever the modulus), and the root
finder agrees with numpy's companion-matrix roots and, bit for bit,
with its exact-Fraction reference."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    divides_mod_p,
    fraction_embeddings,
    gcd_degree_mod_p,
    poly_mul_mod,
    poly_rem_mod,
    rank_defect_mod_p,
    repeated_factor_mod_p,
    splits_by_roots,
    sylvester_discriminant,
)
from heckeslopes.numberfield import (
    Field,
    _divmod,
    _euclid,
    _gcd,
    _pow_mod,
    _horner,
    _scaled_value,
    RamifiedPrimeError,
    discriminant,
    embeddings,
    factor_mod_p,
    is_prime,
    k_of_p,
    splits_completely,
    splitting_type,
    weil_bound_check,
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


def _answer(question, f):
    """The answer to ``question`` about ``f``, or the type it raises."""
    try:
        return question(f)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(poly_and_element(), prime_st, st.randoms(use_true_random=False))
def test_k_of_p_matches_factorization_oracle(fa, p, rng):
    f, a = fa
    # a list, a tuple and one shared Field, asked repeatedly in any order
    questions = [
        lambda f: k_of_p(a, f, p),
        lambda f: splits_completely(f, p),
        lambda f: weil_bound_check(a, f, p),
    ]
    answers = [_answer(q, list(f)) for q in questions]
    assert [_answer(q, tuple(f)) for q in questions] == answers
    field = Field(f)
    order = list(range(len(questions))) * 3
    rng.shuffle(order)
    assert [_answer(questions[i], field) for i in order] == [answers[i] for i in order]

    if sylvester_discriminant(f) % p == 0:
        with pytest.raises(RamifiedPrimeError):
            k_of_p(a, f, p)
        return
    defect = k_of_p(a, f, p)
    if not any(a):
        assert defect == (len(f) - 1, True)
        return
    assert defect == (rank_defect_mod_p(a, f, p), False)


def _outcome(question, *args):
    """What ``question(*args)`` returns, or the type and message it raises."""
    try:
        return question(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def moduli(draw, f):
    """Primes, repeated, with the ramified ones of ``f``, composites and
    values equal to an int that are not one."""
    ramified = [p for p in (2, 3, 5, 7, 11, 13) if discriminant(f) % p == 0] or [2]
    one = st.one_of(
        prime_st,
        st.sampled_from(ramified),
        st.sampled_from([0, 1, 4, 15, -3, 3317044064679887385961981]),
        st.sampled_from([7.0, True, False, Fraction(7)]),
    )
    return draw(st.lists(one, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residue_records_keep_every_refusal(data):
    # one shared Field, asked in any order and again, answers as a fresh
    # Field does each time: the same value, or the same error and message
    f, a = data.draw(poly_and_element())
    asks = data.draw(st.lists(st.tuples(st.sampled_from(["k_of_p", "splits"]), moduli(f)), max_size=4))
    shared = Field(f)
    for name, ps in asks:
        for p in ps:
            if name == "k_of_p":
                assert _outcome(k_of_p, a, shared, p) == _outcome(k_of_p, a, list(f), p)
            else:
                assert _outcome(splits_completely, shared, p) == _outcome(splits_completely, list(f), p)


@settings(max_examples=300, deadline=None)
@given(monic_poly(), prime_st)
def test_splits_completely_matches_splitting_shape(f, p):
    if sylvester_discriminant(f) % p == 0:
        with pytest.raises(RamifiedPrimeError):
            splits_completely(f, p)
        return
    assert splits_completely(f, p) == splits_by_roots(f, p)


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


@st.composite
def division_mod_p(draw):
    """f, g, p for long division over GF(p): f may end in zero
    coefficients or be shorter than g, and g, possibly constant, has
    any nonzero leading coefficient."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    coeff = st.integers(0, p - 1)
    f = draw(st.lists(coeff, max_size=14)) + [0] * draw(st.integers(0, 3))
    g = draw(st.lists(coeff, max_size=6)) + [draw(st.integers(1, p - 1))]
    return f, g, p


@settings(max_examples=400, deadline=None)
@given(division_mod_p(), st.lists(st.integers(0, 1000), max_size=3))
def test_divmod_is_long_division(fgp, low):
    f, g, p = fgp
    q, r = _divmod(f, g, p)
    assert len(r) < len(g)  # deg r < deg g, the zero polynomial being []
    for h in (q, r):
        assert (not h or h[-1] != 0) and all(0 <= c < p for c in h)
    terms = itertools.zip_longest(poly_mul_mod(q, g, p), r, f, fillvalue=0)
    assert all((a + b - c) % p == 0 for a, b, c in terms)
    d = _gcd(f, g, p)
    assert d[-1] == 1 and all(0 <= c < p for c in d)
    assert divides_mod_p(d, f, p) and divides_mod_p(d, g, p)
    assert len(_euclid(f, g, p)) - 1 == gcd_degree_mod_p(f, g, p) == len(d) - 1
    # a planted common factor h: gcd(f h, g h) = gcd(f, g) h
    h = [c % p for c in low] + [1]
    assert _gcd(poly_mul_mod(f, h, p), poly_mul_mod(g, h, p), p) == poly_mul_mod(d, h, p)


@settings(max_examples=400, deadline=None)
@given(division_mod_p(), st.integers(0, 40))
@example(([0, 1], [1, 2, 1], 3), 0)  # e = 0
@example(([1, 1, 0, 1], [1, 1, 1], 2), 13)  # p = 2
@example(([], [4, 0, 1], 5), 7)  # a zero base
@example(([3, 1, 4, 1, 5, 2, 6], [2, 1, 3], 7), 9)  # deg base >= deg modulus
def test_pow_mod_is_repeated_multiplication(bgp, e):
    base, mod, p = bgp
    expected = poly_rem_mod([1], mod, p)
    for _ in range(e):
        expected = poly_rem_mod(poly_mul_mod(expected, base, p), mod, p)
    assert _pow_mod(base, e, mod, p) == expected


@st.composite
def integer_poly(draw):
    """Degree 1 to 14, leading coefficient +-1 .. +-5, perhaps followed
    by zero coefficients: random coefficients, or a random cofactor
    times the square of a monic factor, whose discriminant is 0."""
    n = draw(st.integers(1, 14))
    lead = draw(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
    if n >= 2 and draw(st.booleans()):
        dh = draw(st.integers(1, n // 2))
        h = draw(st.lists(st.integers(-3, 3), min_size=dh, max_size=dh)) + [1]
        f = draw(st.lists(coeff_st, min_size=n - 2 * dh, max_size=n - 2 * dh)) + [lead]
        for _ in range(2):
            f = [sum(f[i] * h[k - i] for i in range(len(f)) if 0 <= k - i < len(h)) for k in range(len(f) + dh)]
    else:
        f = draw(st.lists(coeff_st, min_size=n, max_size=n)) + [lead]
    return f + [0] * draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(integer_poly())
def test_discriminant_is_the_sylvester_determinant(f):
    assert discriminant(f) == sylvester_discriminant(f)


def _irreducible(g, p):
    """Trial division by every monic polynomial of degree 1 .. deg g // 2."""
    n = len(g) - 1
    return n >= 1 and not any(
        divides_mod_p(list(low) + [1], g, p)
        for k in range(1, n // 2 + 1)
        for low in itertools.product(range(p), repeat=k)
    )


@st.composite
def factored_mod_small_prime(draw):
    """A prime p <= 7 and a product of random monic factors, each raised
    to a multiplicity from 1 to p + 1, so some are p-th powers."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)) + [1]
        for _ in range(draw(st.integers(1, p + 1))):
            f = poly_mul_mod(f, g, p)
    return f, p


@settings(max_examples=300, deadline=None)
@given(factored_mod_small_prime())
def test_factor_mod_p_gives_distinct_sorted_irreducibles(fp):
    f, p = fp
    factors = factor_mod_p(f, p)
    product = [1]
    for g, m in factors:
        assert g[-1] == 1 and m >= 1 and _irreducible(g, p)
        for _ in range(m):
            product = poly_mul_mod(product, g, p)
    assert product == f
    assert len({g for g, _ in factors}) == len(factors)
    assert factors == sorted(factors, key=lambda gm: (len(gm[0]), gm[0]))


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
