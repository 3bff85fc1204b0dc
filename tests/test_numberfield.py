"""Finite-field factorization, prime splitting, and defect computations."""
import random
from fractions import Fraction

import pytest

from conftest import poly_mul_mod, primes_below, quadratic_defect
from heckeslopes.numberfield import (
    Defect,
    Field,
    IndexWarningError,
    RamifiedPrimeError,
    discriminant,
    element_in_prime,
    embeddings,
    factor_mod_p,
    half_bound_check,
    is_prime,
    k_of_p,
    splits_completely,
    splitting_type,
    weil_bound_check,
)

X = (0, 1)  # the rational field presented as Q[x]/(x)
SQRT2 = (-2, 0, 1)


class TestFactorModP:
    def test_split_quadratic(self):
        assert factor_mod_p(SQRT2, 7) == [((3, 1), 1), ((4, 1), 1)]

    def test_inert_quadratic(self):
        assert factor_mod_p((1, 0, 1), 3) == [((1, 0, 1), 1)]

    def test_ramified_quadratic(self):
        assert factor_mod_p(SQRT2, 2) == [((0, 1), 2)]

    def test_repeated_factor_with_pth_power_part(self):
        # (x+1)^3 (x+2) mod 3: the derivative kills the cube, so the
        # multiplicity 3 = p is counted by dividing x + 1 out three times
        f = (2, 1, 0, 2, 1)  # expanded product reduced mod 3
        assert factor_mod_p(f, 3) == [((1, 1), 3), ((2, 1), 1)]

    def test_full_split_cyclotomic_stress(self):
        # x^5 - x factors into all five linears mod 5
        assert factor_mod_p((0, -1, 0, 0, 0, 1), 5) == [
            ((0, 1), 1),
            ((1, 1), 1),
            ((2, 1), 1),
            ((3, 1), 1),
            ((4, 1), 1),
        ]

    def test_equal_degree_splitting_mod_two(self):
        # x^6 + x^5 + ... + 1 = (x^7 - 1)/(x - 1) is the product of the two
        # irreducible cubics mod 2; the p = 2 branch splits them by the
        # trace map
        assert factor_mod_p((1, 1, 1, 1, 1, 1, 1), 2) == [((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)]

    def test_output_sorted(self):
        factors = factor_mod_p((0, -1, 0, 0, 0, 1), 5)
        assert factors == sorted(factors, key=lambda fm: (len(fm[0]), fm[0]))

    def test_random_reassembly(self):
        rng = random.Random(1729)
        small_primes = primes_below(100)
        for _ in range(150):
            p = rng.choice(small_primes)
            deg = rng.randint(1, 8)
            f = [rng.randrange(-20, 21) for _ in range(deg)] + [1]
            factors = factor_mod_p(tuple(f), p)
            assert sum((len(g) - 1) * m for g, m in factors) == deg
            prod = [1]
            for g, m in factors:
                for _ in range(m):
                    prod = poly_mul_mod(prod, list(g), p)
            assert prod == [c % p for c in f]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factor_mod_p((1, 2), 4)  # not prime
        with pytest.raises(ValueError):
            factor_mod_p((), 5)
        with pytest.raises(ValueError):
            factor_mod_p((5, 10), 5)  # vanishes mod p


class TestSplittingType:
    def test_split(self):
        s = splitting_type(SQRT2, 7)
        assert s.residue_degrees == (1, 1)
        assert not s.ramified

    def test_inert(self):
        s = splitting_type((1, 0, 1), 3)
        assert s.residue_degrees == (2,)
        assert not s.ramified

    def test_ramified(self):
        s = splitting_type(SQRT2, 2)
        assert s.ramified
        assert s.residue_degrees == (1,)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            splitting_type((1, 2), 7)

    def test_ramified_iff_p_divides_discriminant(self):
        for f in [SQRT2, (1, 1, 1), (-1, -1, 0, 1), (2, 0, 0, 1)]:
            disc = discriminant(f)
            for p in primes_below(30):
                assert splitting_type(f, p).ramified is (disc % p == 0)


class TestDiscriminant:
    @pytest.mark.parametrize(
        "f,expect",
        [
            (SQRT2, 8),
            ((1, 1, 1), -3),
            ((-1, -1, 0, 1), -23),
            ((-2, 0, 0, 1), -108),
            ((5, 1), 1),
            ((1, 0, 0, 0, 1), 256),
            ((-1, -1, 0, 0, 0, 1), 2869),
            ((3, 0, 5), -60),
        ],
    )
    def test_known_values(self, f, expect):
        assert discriminant(f) == expect

    def test_trailing_zero_coefficients_are_ignored(self):
        assert discriminant([-2, 0, 1, 0]) == 8
        for f in ([1, 0], [0, 0], [5], []):
            with pytest.raises(ValueError, match="degree >= 1"):
                discriminant(f)


class TestElementInPrime:
    def test_reduction_detects_membership(self):
        # theta is a unit at the prime x + 4 of Q(sqrt 2) over 7, since
        # theta maps to 3 there; 3 + theta lands in the other prime
        assert element_in_prime((0, 1), (4, 1), 7) is False
        assert element_in_prime((3, 1), (3, 1), 7) is True

    def test_rational_prime_in_every_prime_above_it(self):
        for g, _m in factor_mod_p(SQRT2, 7):
            assert element_in_prime((7, 0), g, 7) is True

    def test_zero_in_everything(self):
        assert element_in_prime((0, 0), (3, 1), 7) is True

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            element_in_prime((Fraction(1, 2), 0), (3, 1), 7)

    @pytest.mark.parametrize("g", [(0,), (3,), ()])
    def test_residue_factor_vanishing_mod_p_rejected(self, g):
        # a divisor that vanishes mod p has no leading coefficient to invert
        with pytest.raises(ValueError, match="vanishes mod 3"):
            element_in_prime((1, 1), g, 3)

    def test_residue_factor_reduced_before_dividing(self):
        # 1 + 3x is the unit 1 mod 3, so the "prime" is the whole ring
        assert element_in_prime((1, 1), (1, 3), 3) is True
        assert element_in_prime((1, 1), (1,), 3) is True

    @pytest.mark.parametrize("a,g,n", [((3, 1), (3, 1), 9), ((2, 0), (1, 1), 4), ((0, 0), (0, 1), 1)])
    def test_composite_modulus_rejected(self, a, g, n):
        # Z/9, Z/4 and Z/1 are not fields, so (n, g) is no prime; k_of_p refuses them too
        with pytest.raises(ValueError, match="is not prime"):
            element_in_prime(a, g, n)


class TestDefect:
    def test_rational_field(self):
        assert k_of_p((5,), X, 5) == Defect(1, False)
        assert k_of_p((-1,), X, 3) == Defect(0, False)

    def test_quadratic_split_case(self):
        assert k_of_p((3, 1), SQRT2, 7).k == 1

    def test_inert_unit(self):
        assert k_of_p((1, 1), SQRT2, 3).k == 0

    def test_inert_full_defect(self):
        # 3 + 3*theta = 3(1 + theta) with 3 inert: lies in the inert prime
        assert k_of_p((3, 3), SQRT2, 3) == Defect(2, False)

    def test_zero_flags_all_primes(self):
        assert k_of_p((0, 0), SQRT2, 7) == Defect(2, True)
        assert k_of_p((0,), X, 7) == Defect(1, True)

    def test_ramified_prime_refused(self):
        with pytest.raises(RamifiedPrimeError):
            k_of_p((1, 1), SQRT2, 2)

    def test_errors_are_arithmetic_errors(self):
        assert issubclass(RamifiedPrimeError, ArithmeticError)
        assert issubclass(IndexWarningError, ArithmeticError)

    def test_exhaustive_against_divisibility_sample(self):
        for p in (3, 7, 31):
            for a in range(-40, 41):
                expected = Defect(1, True) if a == 0 else Defect(1 if a % p == 0 else 0, False)
                assert k_of_p((a,), X, p) == expected

    def test_quadratic_norm_oracle_sample(self):
        rng = random.Random(60902)
        odd_primes = [p for p in primes_below(200) if p > 2]
        for _ in range(120):
            d = rng.choice([2, 3, 5])
            p = rng.choice([q for q in odd_primes if d % q != 0])
            u, v = rng.randint(-50, 50), rng.randint(-50, 50)
            if (u, v) == (0, 0):
                continue
            assert k_of_p((u, v), (-d, 0, 1), p).k == quadratic_defect(u, v, d, p)


class TestCoordinateTypes:
    @pytest.mark.parametrize("bad", [0.5, 3.0, "3"], ids=["float", "integral-float", "str"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda a: k_of_p(a, SQRT2, 7),
            lambda a: weil_bound_check(a, SQRT2, 7),
            lambda a: element_in_prime(a, (3, 1), 7),
        ],
        ids=["k_of_p", "weil_bound_check", "element_in_prime"],
    )
    def test_other_types_refused(self, call, bad):
        with pytest.raises(TypeError) as info:
            call((1, bad))
        assert str(info.value) == f"coordinate {bad!r} ({type(bad).__name__}) is not an int or Fraction"

    def test_int_and_fraction_agree(self):
        whole = (Fraction(3), Fraction(1))
        assert k_of_p(whole, SQRT2, 7) == k_of_p((3, 1), SQRT2, 7)
        assert element_in_prime(whole, (3, 1), 7) is element_in_prime((3, 1), (3, 1), 7)
        assert weil_bound_check(whole, SQRT2, 7) is weil_bound_check((3, 1), SQRT2, 7)


class TestEmbeddings:
    def test_real_quadratic(self):
        roots = embeddings(SQRT2)
        assert len(roots) == 2
        vals = sorted(r.real for r in roots)
        assert abs(vals[0] + 2**0.5) < 1e-9
        assert abs(vals[1] - 2**0.5) < 1e-9
        assert all(r.imag == 0 for r in roots)

    def test_imaginary_quadratic(self):
        roots = embeddings((1, 0, 1))
        assert sorted(r.imag for r in roots) == pytest.approx([-1, 1])
        assert [r.real for r in roots] == pytest.approx([0, 0])

    def test_mixed_cubic(self):
        roots = embeddings((-2, 0, 0, 1))
        real = [r for r in roots if r.imag == 0]
        assert len(real) == 1
        assert abs(real[0].real - 2 ** (1 / 3)) < 1e-9

    def test_close_real_roots_separated(self):
        # (x^2 - 10000)(x^2 - 10001): two pairs of real roots only about
        # 5e-3 apart near +-100 must come back as four distinct reals
        f = (100010000, 0, -20001, 0, 1)
        reals = sorted(r.real for r in embeddings(f))
        assert len(reals) == 4
        assert abs(reals[2] - 10000**0.5) < 1e-7
        assert abs(reals[3] - 10001**0.5) < 1e-7

    def test_wilkinson_roots_exact(self):
        # prod (x - i) for i <= 20: floating-point evaluation of f is
        # noise near the larger roots, the exact Newton steps are not
        f = [1]
        for i in range(1, 21):
            f = [a - i * b for a, b in zip([0] + f, f + [0])]
        roots = embeddings(f)
        assert all(r.imag == 0.0 for r in roots)
        assert sorted(r.real for r in roots) == pytest.approx(range(1, 21), rel=0, abs=1e-12)


class TestWeilBound:
    def test_rational_weight_two(self):
        assert weil_bound_check((2,), X, 2) is True
        assert weil_bound_check((3,), X, 2) is False
        # 2 sqrt(167) is about 25.84: 25 passes, -26 does not
        assert weil_bound_check((25,), X, 167) is True
        assert weil_bound_check((-26,), X, 167) is False

    def test_rational_weight_three(self):
        assert weil_bound_check((4,), X, 2, weight=3) is True
        assert weil_bound_check((5,), X, 2, weight=3) is False

    def test_quadratic_field(self):
        assert weil_bound_check((1, 1), SQRT2, 2) is True  # |1+sqrt2| < 2 sqrt2
        assert weil_bound_check((3, 1), SQRT2, 7) is True
        assert weil_bound_check((4, 1), SQRT2, 7) is False  # 4+sqrt2 > 2 sqrt7

    def test_roots_found_once_per_polynomial(self, monkeypatch):
        from heckeslopes import numberfield

        calls = []
        monkeypatch.setattr(numberfield, "embeddings", lambda f: calls.append(f) or embeddings(f))
        # 4 + sqrt2 > 2 sqrt7; one Field finds its roots once
        field = Field(SQRT2)
        elements = [(1, 1), (3, 1), (4, 1), (0, 2)]
        assert [weil_bound_check(a, field, 7) for a in elements] == [True, True, False, True]
        assert calls == [SQRT2]
        # a bare polynomial gets a throwaway Field, and the roots are found again
        assert weil_bound_check((1, 1), list(SQRT2), 7) is True
        assert calls == [SQRT2, SQRT2]


class TestField:
    def test_is_its_coefficient_tuple(self):
        field = Field(SQRT2)
        assert Field(field) is field
        assert Field((0, 1)) == (0, 1) and hash(Field((0, 1))) == hash((0, 1))
        assert Field([0, 1]) == Field((0, 1)) and repr(Field([0, 1])) == "(0, 1)"

    @pytest.mark.parametrize(
        "ask",
        [
            lambda f: splitting_type(f, 7),
            lambda f: k_of_p((1, 1), f, 7),
            lambda f: splits_completely(f, 7),
            lambda f: weil_bound_check((1, 1), f, 7),
            Field,
        ],
        ids=["splitting_type", "k_of_p", "splits_completely", "weil_bound_check", "Field"],
    )
    @pytest.mark.parametrize("f", [(1, 2), (-2, 0, 2), (), [1, 0]])
    def test_non_monic_refused(self, ask, f):
        with pytest.raises(ValueError, match="defining polynomial must be monic"):
            ask(f)

    def test_split_verdict_per_prime_kept_on_the_field(self):
        field = Field(SQRT2)
        assert [splits_completely(field, p) for p in (7, 3, 7)] == [True, False, True]
        assert field.splits == {7: True, 3: False}
        with pytest.raises(RamifiedPrimeError):
            splits_completely(field, 2)
        assert 2 not in field.splits and field.disc == 8
        # an equal key that is not an int is refused as for a bare polynomial
        with pytest.raises(TypeError):
            splits_completely(field, 7.0)


class TestHalfBound:
    @pytest.mark.parametrize(
        "k_p,k_f,p,expect",
        [
            (0, 1, 5, "pass"),
            (1, 1, 5, "fail"),
            (1, 1, 3, "not_applicable"),  # 3 <= 2^2
            (1, 2, 17, "pass"),  # 2*1 <= 2 and 17 > 16
            (1, 2, 13, "not_applicable"),
            (2, 3, 67, "fail"),  # 4 > 3 and 67 > 64
        ],
    )
    def test_cases(self, k_p, k_f, p, expect):
        assert half_bound_check(k_p, k_f, p) == expect


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441


class TestIsPrime:
    def test_agrees_with_sieve_below_1e5(self):
        primes = set(primes_below(10**5))
        assert [n for n in range(-5, 10**5) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize(
        "n",
        # the least strong pseudoprimes to the first 4, 6, 8, 11 and 12 prime bases
        [3215031751, 3474749660383, 341550071728321, 3825123056546413051, PSI_12],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert is_prime(n) is False

    def test_large_prime(self):
        assert is_prime(2**61 - 1) is True

    def test_refuses_beyond_the_deterministic_range(self):
        # 2^89 - 1 is prime, but above psi_13 = 3317044064679887385961981
        # thirteen bases no longer prove it
        with pytest.raises(ValueError, match="too large"):
            is_prime(2**89 - 1)
