"""Finite-field factorization, prime splitting, defect computations, and
the field-interaction rules."""
import random
from collections import Counter
from fractions import Fraction

import pytest

import stdlib_contract
from conftest import poly_mul_mod, primes_below, quadratic_defect
from heckeslopes import numberfield
from heckeslopes.numberfield import (
    FACT_BISECTION_TRANSFERS,
    FACT_SLOPE_EQUALS_RATIONAL_BASE,
    FACT_SLOPE_ZERO_OVER_F,
    FACT_SLOPE_ZERO_OVER_F_TILDE,
    Defect,
    Field,
    FieldInteraction,
    IndexWarningError,
    RamifiedPrimeError,
    discriminant,
    embeddings,
    factor_mod_p,
    half_bound_check,
    interact_rules,
    is_prime,
    k_of_p,
    splits_completely,
    splitting_type,
    weil_bound_check,
)

X = (0, 1)  # the rational field presented as Q[x]/(x)
SQRT2 = (-2, 0, 1)


def _irreducible_count(p, e):
    """Gauss: the monic irreducibles of degree e over GF(p) number
    (1/e) * sum over k | e of mu(k) * p^(e/k)."""
    def mobius(k):
        sign = 1
        for q in range(2, k + 1):
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mobius(k) * p ** (e // k) for k in range(1, e + 1) if e % k == 0) // e


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

    def test_factoring_draws_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factor_mod_p drew from random")

        monkeypatch.setattr(random, "Random", refuse)
        for p, d in [(2, 4), (3, 3), (5, 2)]:
            # x^(p^d) - x: every monic irreducible of degree e | d, once
            f = [0, p - 1] + [0] * (p**d - 2) + [1]
            factors = factor_mod_p(f, p)
            prod = [1]
            for g, m in factors:
                assert m == 1
                prod = poly_mul_mod(prod, list(g), p)
            assert prod == f
            degrees = Counter(len(g) - 1 for g, _ in factors)
            assert degrees == {e: _irreducible_count(p, e) for e in range(1, d + 1) if d % e == 0}
        p = 10007
        roots = [(7 * r * r + 3) % p for r in range(25)]  # distinct: r*r is, for r < p/2
        f = [1]
        for r in roots:
            f = poly_mul_mod(f, [-r % p, 1], p)
        assert factor_mod_p(f, p) == sorted(((-r % p, 1), 1) for r in roots)

    def test_fresh_process_loads_no_random(self, tmp_path):
        probe = (
            "import sys; from heckeslopes.numberfield import factor_mod_p, splitting_type; "
            "splitting_type((1, 1, 1, 1, 1, 1, 1), 2); factor_mod_p((0, -1) + (0,) * 23 + (1,), 5); "
            "print('random' in sys.modules)"
        )
        proc = stdlib_contract.python(tmp_path, "-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

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

    def test_factored_once_per_prime_on_the_field(self, monkeypatch):
        calls = Counter()

        def counted(f, p):
            calls[p] += 1
            return factor_mod_p(f, p)

        monkeypatch.setattr(numberfield, "factor_mod_p", counted)
        field = Field((-1, -1, 0, 1))
        for _ in range(2):
            shapes = [splitting_type(field, p) for p in (2, 3, 5, 23)]
        assert calls == Counter({2: 1, 3: 1, 5: 1, 23: 1})
        assert [s.residue_degrees for s in shapes] == [(3,), (3,), (1, 2), (1, 1)]
        assert [s.ramified for s in shapes] == [False, False, False, True]


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
    """Which primes (p, g) above p hold an element a of Z[x]/(f), as
    the defect reads it: k_of_p sums the degrees of g over those that
    contain a.  Over 7, Q(sqrt 2) has the primes (7, x + 3) and
    (7, x + 4), each of degree 1."""

    def test_reduction_detects_membership(self):
        # theta maps to 4 and 3 in the two residue fields, so it is a
        # unit at both; 3 + theta and 4 + theta each land in one prime
        assert k_of_p((0, 1), SQRT2, 7) == Defect(0, False)
        assert k_of_p((3, 1), SQRT2, 7) == Defect(1, False)
        assert k_of_p((4, 1), SQRT2, 7) == Defect(1, False)
        # their product 14 + 7 theta is 7 times a unit: in both
        assert k_of_p((14, 7), SQRT2, 7) == Defect(2, False)

    def test_rational_prime_in_every_prime_above_it(self):
        for f in (X, SQRT2, (1, 1, 0, 1)):
            n = len(f) - 1
            assert k_of_p((7,) + (0,) * (n - 1), f, 7) == Defect(n, False)

    def test_zero_in_everything(self):
        for f in (X, SQRT2, (1, 1, 0, 1)):
            n = len(f) - 1
            assert k_of_p((0,) * n, f, 7) == Defect(n, True)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError, match="must be integers"):
            k_of_p((Fraction(1, 2), 0), SQRT2, 7)

    @pytest.mark.parametrize("a,g,n", [((3, 1), SQRT2, 9), ((2, 0), SQRT2, 4), ((0, 0), SQRT2, 1)])
    def test_composite_modulus_rejected(self, a, g, n):
        # Z/9, Z/4 and Z/1 are not fields: no prime of Z[x]/(g) lies over n
        with pytest.raises(ValueError, match="is not prime"):
            k_of_p(a, g, n)


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
        ],
        ids=["k_of_p", "weil_bound_check"],
    )
    def test_other_types_refused(self, call, bad):
        with pytest.raises(TypeError) as info:
            call((1, bad))
        assert str(info.value) == f"coordinate {bad!r} ({type(bad).__name__}) is not an int or Fraction"

    def test_int_and_fraction_agree(self):
        whole = (Fraction(3), Fraction(1))
        assert k_of_p(whole, SQRT2, 7) == k_of_p((3, 1), SQRT2, 7)
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
        assert field.at(7) is field.at(7) and (field.at(7).splits, field.at(3).splits) == (True, False)
        # a ramified prime keeps no verdict, and each call gets its own error
        errors = []
        for _ in range(2):
            with pytest.raises(RamifiedPrimeError, match="^p=2 ramifies in the field$") as caught:
                splits_completely(field, 2)
            errors.append(caught.value)
        assert errors[0] is not errors[1] and "splits" not in vars(field.at(2)) and field.disc == 8
        # an equal key that is not an int is refused as for a bare polynomial
        with pytest.raises(TypeError):
            splits_completely(field, 7.0)

    def test_ramified_record_keeps_f_mod_p_and_its_factors(self):
        res = Field(SQRT2).at(2)
        assert res.ramified is True and res.factors == (((0, 1), 2),)
        errors = []
        for _ in range(2):
            with pytest.raises(RamifiedPrimeError, match="^p=2 ramifies in the field$") as caught:
                res.fb
            errors.append(caught.value)
        assert errors[0] is not errors[1]
        assert Field(SQRT2).at(7).ramified is False and Field(SQRT2).at(7).fb == (5, 0, 1)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: k_of_p((1, 1, 1), SQRT2, 7), "element has 3 coordinates, field degree is 2"),
        (lambda: weil_bound_check((1, 1), SQRT2, 7, weight=4), "weight must be 2 or 3"),
        (lambda: half_bound_check(-1, 2, 5), "need k_p >= 0 and k_f >= 1"),
    ],
    ids=["k_of_p-length", "weil-weight-4", "half-bound-negative-k_p"],
)
def test_arguments_out_of_domain_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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

    @pytest.mark.parametrize("n", [7.0, 43.0, Fraction(7), "7"], ids=repr)
    def test_refuses_what_is_not_an_int(self, n):
        # 7.0 == Fraction(7) == 7: none may find the verdict cached for 7
        assert is_prime(7) and is_prime(43)
        with pytest.raises(TypeError) as err:
            is_prime(n)
        assert str(err.value) == f"is_prime needs an int, got {n!r} ({type(n).__name__})"

    def test_bool_is_an_int(self):
        assert is_prime(True) is False and is_prime(False) is False
        # 1.0 == True: an untyped cache would answer it from the bool's entry
        with pytest.raises(TypeError):
            is_prime(1.0)

    def test_moduli_that_are_not_ints_are_refused(self):
        with pytest.raises(TypeError, match="is_prime needs an int"):
            k_of_p((1, 1), SQRT2, 7.0)
        with pytest.raises(TypeError, match="is_prime needs an int"):
            factor_mod_p(SQRT2, 2.0)

    def test_refuses_beyond_the_deterministic_range(self):
        # 2^89 - 1 is prime, but above psi_13 = 3317044064679887385961981
        # thirteen bases no longer prove it
        with pytest.raises(ValueError, match="too large"):
            is_prime(2**89 - 1)


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

    def test_replace_and_make_validate(self):
        meta = FieldInteraction(deg_K=3)
        with pytest.raises(ValueError, match="deg_K must be positive"):
            meta._replace(deg_K=0)
        with pytest.raises(ValueError, match="unknown galois_group_kind"):
            meta._replace(galois_group_kind="sporadic")
        with pytest.raises(ValueError, match="disc_F must be an integer"):
            FieldInteraction._make([3, 1, 1, "other", 5, True])
        assert meta._replace(deg_F=2) == FieldInteraction(deg_K=3, deg_F=2)
        assert type(FieldInteraction._make(meta)) is FieldInteraction

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
