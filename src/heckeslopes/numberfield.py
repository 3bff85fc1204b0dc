"""Prime splitting and eigenvalue congruences in a number field.

The field K = Q[x]/(f) is always presented by a monic irreducible
integer polynomial ``f``; polynomials are coefficient sequences in
*ascending* degree order, and field elements are coordinate vectors in
the power basis 1, x, ..., x^(deg f - 1).

For an unramified rational prime ``p`` the primes of K above ``p``
correspond to the monic irreducible factors ``g_i`` of ``f`` mod ``p``
(residue degree = factor degree), and an algebraic integer ``a`` lies
in the prime (p, g_i) exactly when ``g_i`` divides ``a`` mod ``p``.
The central quantity is::

    defect k(p) = sum of residue degrees of the primes above p
                  that contain a

(0 exactly when ``a`` is a unit at every prime above ``p``; ``a = 0``
lies in every prime and the full degree is returned with a flag).  So
``p`` is ordinary for ``a`` exactly when ``k_of_p`` returns
``Defect(0, False)``.  When p does not divide disc(f), f mod p is
squarefree, its factors are distinct, and k(p) = deg gcd(f mod p,
a mod p) (Cohen, *A Course in Computational Algebraic Number Theory*,
3.4): ``k_of_p`` reads the degree of the last nonzero remainder of one
Euclid, run in place and top down with no quotient and no monic; it
never factors.  ``splits_completely`` takes no gcd: f mod p divides
x^p - x, so splits, exactly when x^p ≡ x mod f (*Modern Computer
Algebra* ch. 14), x^p mod f taken left to right, each square and each
product by x reduced in one loop; a linear f needs no power.  disc(f)
comes from the n-square Bézout matrix of (f, f'), once per ``Field``.
Coordinates must be ``int`` or ``Fraction`` (``TypeError`` otherwise).

Both read the residue record ``Field.at(p)``, made once per field and
``int`` prime: it checks p once and keeps f mod p, the ramified verdict
p | disc(f), the split verdict and the one factorization of f mod p,
which only ``splitting_type`` asks for: one distinct-degree loop over
f mod p itself, counting multiplicities as it divides factors out, then
equal-degree splitting by the trials u whose coefficients are the
base-p digits of p, p + 1, ...: by CRT one of the nonconstant u of
degree < deg f splits (*Modern Computer Algebra* §14.3).

Every modulus ``p`` must be an ``int`` (``TypeError`` otherwise) and
prime (``ValueError`` otherwise), and ``is_prime`` refuses, also with
``ValueError``, to decide p >= 3.3e24.

``embeddings`` (behind ``weil_bound_check``) uses only the standard
library.  It certifies real roots to 1e-9 relative by an exact sign
change, evaluated in integers at the floats' exact ratios; complex
roots and the Weil comparison are floating point, and found once per
``Field``: a caller asking many questions of one field passes one Field.

``interact_rules`` turns a ``FieldInteraction`` (degrees, Galois group
shape and discriminants of two fields) into facts that bound slopes.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

__all__ = [
    "Field",
    "Residue",
    "RamifiedPrimeError",
    "IndexWarningError",
    "factor_mod_p",
    "PrimeSplitting",
    "splitting_type",
    "Defect",
    "k_of_p",
    "splits_completely",
    "weil_bound_check",
    "half_bound_check",
    "discriminant",
    "embeddings",
    "is_prime",
    "FieldInteraction",
    "interact_rules",
    "FACT_SLOPE_ZERO_OVER_F",
    "FACT_SLOPE_ZERO_OVER_F_TILDE",
    "FACT_SLOPE_EQUALS_RATIONAL_BASE",
    "FACT_BISECTION_TRANSFERS",
]

IntPoly = Sequence[int]
Coord = Union[int, Fraction]


class RamifiedPrimeError(ArithmeticError):
    """The prime ramifies in the field; residue computations are refused."""


class IndexWarningError(ArithmeticError):
    """p divides disc(f): the order Z[x]/(f) may not be maximal at p,
    so factor degrees need not match residue degrees."""


class Field(tuple):
    """Q[x]/(f) for monic integer ``f``, as the tuple of f's ascending
    coefficients (after PARI/GP's ``nfinit``, Cohen ch. 4).  ``disc``,
    ``roots`` and the residue record ``at(p)`` of each prime are
    computed on first use and kept as long as the Field lives."""

    def __new__(cls, f: IntPoly) -> Field:
        if isinstance(f, Field):
            return f
        if not f or f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        field = super().__new__(cls, f)
        field._residues = {}
        return field

    @functools.cached_property
    def disc(self) -> int:
        return discriminant(self)

    @functools.cached_property
    def roots(self) -> tuple[complex, ...]:
        return embeddings(self)  # by name, so a wrapper on it counts calls

    def at(self, p: int) -> Residue:
        """The residue record of the prime ``p``, kept per ``int`` p; any
        other p (7.0 == 7, True == 1) gets a fresh one, and its refusals."""
        if type(p) is not int:
            return Residue(self, p)
        return self._residues.get(p) or self._residues.setdefault(p, Residue(self, p))


class Residue:
    """f mod p for a ``Field`` f and a prime p, checked once, with
    ``ramified`` (p | disc(f)) and, on first use, the split verdict and
    ``factors``, the one factorization of f mod p.  Reading ``fb`` raises
    a new ``RamifiedPrimeError`` each time when ``ramified``."""

    def __init__(self, f: Field, p: int):
        self.p, self._fb = p, tuple(_reduce_mod_prime(f, p))
        # the Dedekind criterion will tell index divisors (IndexWarningError) apart here
        self.ramified = len(f) > 1 and f.disc % p == 0

    @property
    def fb(self) -> tuple[int, ...]:
        if self.ramified:
            raise RamifiedPrimeError(f"p={self.p} ramifies in the field")
        return self._fb

    @functools.cached_property
    def factors(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(factor_mod_p(self._fb, self.p))  # by name, so a wrapper on it counts calls

    @functools.cached_property
    def splits(self) -> bool:
        """x^p ≡ x mod f mod p (f mod p divides x^p - x), at once for a linear f."""
        fb, p, x = self.fb, self.p, [0, 1]
        return len(fb) <= 2 or _pow_mod(x, p, fb, p) == x


# ---------------------------------------------------------------------
# primality

# The first 13 primes: trial divisors, then strong-probable-prime bases.
# Together they decide primality for every n below psi_13 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).  The first 12 alone are fooled by
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@functools.lru_cache(maxsize=1024, typed=True)  # typed: 1.0 must not find True
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981
    (about 3.3e24); larger n raise ``ValueError`` instead of a guess,
    and an ``n`` that is not an ``int`` raises ``TypeError``.  Cached,
    since every record of a file and every residue record ask again
    for the same few primes."""
    if not isinstance(n, int):
        raise TypeError(f"is_prime needs an int, got {n!r} ({type(n).__name__})")
    if n >= _PSI_13:
        raise ValueError(f"{n} is too large to test for primality (the limit is {_PSI_13})")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------
# dense polynomial arithmetic over GF(p) (ascending coefficient lists)

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _reduce(f: IntPoly, p: int) -> list[int]:
    return _trim([c % p for c in f])


def _reduce_mod_prime(f: IntPoly, p: int) -> list[int]:
    """``f`` mod ``p``, refusing a ``p`` that is not prime: modulo a
    composite there is no field."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _reduce(f, p)


def _deg(f) -> int:
    return len(f) - 1


def _sub(f, g, p):
    n = max(len(f), len(g))
    return _trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
                  for i in range(n)])


def _monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    # one pass, top down: the terms that cancel, f[dg:], are cut at the end
    f = list(f)
    dg = _deg(g)
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    for shift in range(len(f) - 1 - dg, -1, -1):
        coef = f[shift + dg] * inv % p
        if coef:
            q[shift] = coef
            for i in range(dg):
                f[shift + i] = (f[shift + i] - coef * g[i]) % p
    del f[dg:]
    return _trim(q), _trim(f)


def _euclid(f, g, p):
    """The last nonzero remainder of Euclid on ``f`` and ``g`` over GF(p),
    coefficients in [0, p), ``g`` trimmed and ``f`` too if ``g`` is zero: a
    gcd, not monic.  Each division runs in place, top down, with no
    quotient; a constant remainder ends it."""
    f, g = list(f), list(g)
    while len(g) > 1:
        dg, neg_inv = len(g) - 1, p - pow(g[-1], p - 2, p)
        while len(f) > dg:
            coef = f.pop() * neg_inv % p
            if coef:
                shift = len(f) - dg
                for i in range(dg):
                    f[shift + i] = (f[shift + i] + coef * g[i]) % p
        f, g = g, _trim(f)
    return g or f


def _gcd(f, g, p):
    return _monic(_euclid(f, g, p), p)


def _pow_mod(base, e, mod, p):
    """base^e mod ``mod`` over GF(p) for a base of any degree, left to right:
    square, then for a 1 bit multiply by base, each reduced in the same loop."""
    n, low, neg_inv = _deg(mod), mod[:-1], p - pow(mod[-1], p - 2, p)
    result = [1]
    for bit in bin(e)[2:]:
        for other in (result, base) if bit == "1" else (result,):
            prod = [0] * (len(result) + len(other) - 1)
            for i, a in enumerate(result):
                if a:
                    for j, b in enumerate(other, i):
                        prod[j] += a * b
            while len(prod) > n:
                coef = prod.pop() * neg_inv % p
                if coef:
                    for i, b in enumerate(low, len(prod) - n):
                        prod[i] += coef * b
            result = _reduce(prod, p)
    return result


# ---------------------------------------------------------------------
# factorization mod p

def _equal_degree(f, d, p, first):
    """Split squarefree monic ``f``, a product of irreducibles all of
    degree ``d``, into those irreducibles (Cantor-Zassenhaus), from the
    trial with digits ``first`` on: no earlier trial splits ``f``."""
    n = _deg(f)
    if n == d:
        return [f]
    for i in range(first, p**n):
        u, j = [], i
        while j:
            j, c = divmod(j, p)
            u.append(c)
        if p == 2:
            # trace map u + u^2 + u^4 + ... splits over GF(2), where
            # adding is subtracting
            t = u[:]
            acc = u[:]
            for _ in range(d - 1):
                acc = _pow_mod(acc, 2, f, p)
                t = _sub(t, acc, p)
            g = _gcd(f, t, p)
        else:
            v = _pow_mod(u, (p**d - 1) // 2, f, p)
            g = _gcd(f, _sub(v, [1], p), p)
        if 0 < _deg(g) < n:
            return _equal_degree(g, d, p, i + 1) + _equal_degree(_divmod(f, g, p)[0], d, p, i + 1)


def factor_mod_p(f: IntPoly, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Complete factorization of ``f`` mod ``p`` into monic irreducibles.

    Returns ``[(g, multiplicity), ...]`` with each ``g`` a tuple of
    ascending coefficients, sorted by (degree, coefficients) so output
    is canonical whichever trial splits each equal-degree product.
    A unit leading coefficient is normalized away, so the product of
    the factors is the monic normalization of ``f`` mod ``p``.

    One distinct-degree loop over f mod p itself: once the factors of
    degree < d are divided out of ``rest``, gcd(x^(p^d) - x, rest) is
    the product g of its distinct irreducible factors of degree d, each
    once, since x^(p^d) - x is squarefree.  Dividing g out of ``rest``
    counts the multiplicities: after the m-th division gcd(rest, g)
    keeps the factors of multiplicity > m, and ``_equal_degree`` splits
    the quotient, those of multiplicity m.  Once deg rest < 2(d + 1),
    rest is irreducible or 1.
    """
    fb = _reduce_mod_prime(f, p)
    if not fb:
        raise ValueError("polynomial vanishes mod p")
    rest = _monic(fb, p)
    factors = []
    x = h = [0, 1]
    d = 0
    while _deg(rest) >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, rest, p)  # x^(p^d) mod rest
        g = _gcd(rest, _sub(h, x, p), p)
        m = 0
        while _deg(g) > 0:
            rest, m = _divmod(rest, g, p)[0], m + 1
            more = _gcd(rest, g, p)  # the factors of multiplicity > m
            once = _divmod(g, more, p)[0]
            if _deg(once) > 0:
                factors += [(tuple(q), m) for q in _equal_degree(once, d, p, p)]
            g = more
    if _deg(rest) > 0:
        factors.append((tuple(rest), 1))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return factors


# ---------------------------------------------------------------------
# splitting data and congruences

class PrimeSplitting(NamedTuple):
    """Shape of ``p`` in K from the residue record: the factors of f mod
    p with multiplicities (the ramification indices when Z[x] is maximal
    at p) and their residue degrees.  ``ramified`` is p | disc(f), for
    monic f exactly a repeated factor; whether p ramifies in K itself or
    only divides the index needs the Dedekind criterion."""

    p: int
    factors: tuple[tuple[tuple[int, ...], int], ...]
    residue_degrees: tuple[int, ...]
    ramified: bool


def splitting_type(f: IntPoly, p: int) -> PrimeSplitting:
    """Package the shape of ``p`` kept on the residue record ``Field(f).at(p)``.

    ``f`` must be monic and ``p`` prime; irreducibility over Q is the
    caller's claim.  The degree identity sum(e_i * f_i) = deg f always
    holds.
    """
    res = Field(f).at(p)
    return PrimeSplitting(
        p=p,
        factors=res.factors,
        residue_degrees=tuple(len(g) - 1 for g, _ in res.factors),
        ramified=res.ramified,
    )


def _require_length(a: Sequence[Coord], n: int) -> None:
    if len(a) != n:
        raise ValueError(f"element has {len(a)} coordinates, field degree is {n}")


def _fractions(a: Sequence[Coord]) -> list[tuple[int, int]]:
    """(numerator, denominator) of each coordinate, an ``int`` or a ``Fraction``."""
    try:
        return [(c.numerator, c.denominator) for c in a]
    except AttributeError:
        bad = next(c for c in a if not isinstance(c, (int, Fraction)))
        raise TypeError(f"coordinate {bad!r} ({type(bad).__name__}) is not an int or Fraction") from None


def _integral_reduction(a: Sequence[Coord], p: int) -> list[int]:
    """``a`` mod ``p``, refusing coordinates that are not integers."""
    if not all(type(c) is int for c in a):
        pairs = _fractions(a)
        # Z[x] can be smaller than the ring of integers: (1 + x)/2 over
        # x^2 - 5 is integral but has denominators here
        if any(d != 1 for _, d in pairs):
            raise ValueError("coordinates must be integers in the power basis of the defining polynomial"
                             " (elements of the maximal order outside Z[x] are not supported yet)")
        a = [n for n, _ in pairs]
    return _reduce(a, p)


class Defect(NamedTuple):
    """Total residue degree of the primes above p containing the
    element; ``all_primes`` marks the degenerate zero element."""

    k: int
    all_primes: bool


def k_of_p(a: Sequence[Coord], f: IntPoly, p: int) -> Defect:
    """Ordinariness defect of ``a`` at ``p``: sum of residue degrees f_i
    over the primes (p, g_i) that contain ``a``.

    Refuses primes dividing disc(f), computed once per ``Field`` (the
    residue correspondence is unreliable there).  Otherwise f mod p is
    squarefree and the defect is deg gcd(f mod p, a mod p), the degree of
    one in-place Euclid's last nonzero remainder, so nothing is factored.
    The zero element lies in every prime: the full field degree is
    returned with ``all_primes=True`` rather than silently.
    """
    fb = Field(f).at(p).fb
    n = _deg(fb)
    _require_length(a, n)
    apoly = _integral_reduction(a, p)
    if not any(a):
        return Defect(n, True)
    # a = 0 mod p gives gcd(fb, 0) = fb: every prime above p
    return Defect(_deg(_euclid(fb, apoly, p)), False)


def splits_completely(f: IntPoly, p: int) -> bool:
    """Whether monic ``f`` splits into distinct linear factors mod
    ``p``, kept on the residue record ``Field(f).at(p)``.  Refuses
    ``p`` | disc(f) like ``k_of_p``: f mod p has a repeated factor."""
    return Field(f).at(p).splits


# ---------------------------------------------------------------------
# archimedean bounds

def discriminant(f: IntPoly) -> int:
    """Exact discriminant of an integer polynomial, trailing zero
    coefficients ignored: the determinant of the n-square Bézout matrix
    of (f, f'), computed fraction-free (Bareiss), is lc(f)^2 disc(f)."""
    f = _trim(list(f))
    if len(f) < 2:
        raise ValueError("discriminant needs degree >= 1")
    n = _deg(f)
    df = [i * c for i, c in enumerate(f)][1:] + [0]
    # (f(x) f'(y) - f(y) f'(x)) / (x - y) = sum of b_ij x^i y^j, where
    # b_ij = b_(i-1)(j+1) + f_(j+1) f'_i - f_i f'_(j+1), and 0 off the matrix
    rows, above = [], [0] * (n + 1)
    for i in range(n):
        above = [above[j + 1] + f[j + 1] * df[i] - f[i] * df[j + 1] for j in range(n)] + [0]
        rows.append(above[:n])
    return _bareiss_det(rows) // f[-1] ** 2


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _horner(f: Sequence, z):
    """``f(z)`` for ascending coefficients ``f``, in the arithmetic of z."""
    acc = 0 * z
    for c in reversed(f):
        acc = acc * z + c
    return acc


def _scaled_value(f: Sequence[int], num: int, den: int) -> int:
    """den^n * f(num/den) for integer ``f`` of length n + 1: exact, in
    integers, and of the sign of f(num/den) when den > 0."""
    acc, scale = 0, 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return acc


def embeddings(f: IntPoly) -> tuple[complex, ...]:
    """All complex roots of ``f`` (the archimedean embeddings of the
    field element x), by Aberth-Ehrlich (Aberth, Math. Comp. 27, 1973)
    in ``complex``.  A root whose conjugate is nearer to it than to any
    other root gets exact Newton steps, and is returned as
    ``complex(x, 0.0)``, certified, only if f vanishes or changes sign
    exactly on x +- 1e-9*max(1, |x|).  Both evaluate f in integers at
    each float's exact ratio num/den.  Other roots are not certified."""
    f = _trim(list(f))
    n = _deg(f)
    if n < 1:
        return ()
    df = [i * c for i, c in enumerate(f)][1:]
    # start off the real axis on a circle of Fujiwara's radius, which bounds every root
    radius = 2 * max(abs(f[n - j] / f[n] / (1 + (j == n))) ** (1 / j) for j in range(1, n + 1))
    z = [cmath.rect(radius, 2 * cmath.pi * k / n + 0.4) for k in range(n)]
    prev = cmath.inf
    for _ in range(200):  # random degree-80 f need about 100 rounds
        largest = 0.0
        for i, zi in enumerate(z):
            fz = _horner(f, zi)
            if fz:
                w = fz / (_horner(df, zi) - fz * sum(1 / (zi - zj) for zj in z if zj != zi))
                z[i] = zi - w
                largest = max(largest, abs(w) / max(1.0, abs(z[i])))
        # corrections that stop shrinking below 1e-6 are rounding noise
        if largest < 1e-15 or (largest < 1e-6 and largest >= prev):
            break
        prev = largest
    for i, zi in enumerate(z):
        if all(2 * abs(zi.imag) < abs(zi.conjugate() - zj) for j, zj in enumerate(z) if j != i):
            x = zi.real
            for _ in range(3):
                # q - f(q)/f'(q) = (num*D - F)/(D*den), F = den^n f(q), D =
                # den^(n-1) f'(q); int / int rounds as float(Fraction) does,
                # and with the sign on top, as in a Fraction, 0 gives +0.0
                num, den = x.as_integer_ratio()
                d = _scaled_value(df, num, den)
                if d:
                    top = num * d - _scaled_value(f, num, den)
                    x = (top if d > 0 else -top) / (abs(d) * den)
            h = 1e-9 * max(1.0, abs(x))
            below, above = (x - h).as_integer_ratio(), (x + h).as_integer_ratio()
            if _scaled_value(f, *below) * _scaled_value(f, *above) <= 0:
                z[i] = complex(x, 0.0)
    return tuple(z)


def weil_bound_check(a: Sequence[Coord], f: IntPoly, p: int, weight: int = 2) -> bool:
    """Check |sigma(a)| <= 2*sqrt(p) (weight 2) or <= 2*p (weight 3)
    for every archimedean embedding sigma, with a 1e-9 relative slack
    for the floating-point root finding.  ``f`` must be monic, and its
    roots are found once per ``Field``."""
    if weight not in (2, 3):
        raise ValueError("weight must be 2 or 3")
    field = Field(f)
    _require_length(a, _deg(field))
    coeffs = [n / d for n, d in _fractions(a)]
    bound = 2 * (p**0.5) if weight == 2 else 2.0 * p
    bound *= 1 + 1e-9
    return all(abs(_horner(coeffs, root)) <= bound for root in field.roots)


def half_bound_check(k_p: int, k_f: int, p: int) -> str:
    """Defect vs half the field degree, valid only once p > 2^(2*k_f)
    (below that the archimedean box is too small for the argument):

    returns ``"not_applicable"`` for small p, else ``"pass"`` when
    2*k_p <= k_f and ``"fail"`` otherwise.
    """
    if k_p < 0 or k_f < 1:
        raise ValueError("need k_p >= 0 and k_f >= 1")
    if p <= 2 ** (2 * k_f):
        return "not_applicable"
    return "pass" if 2 * k_p <= k_f else "fail"


# ---------------------------------------------------------------------
# field interaction facts

FACT_SLOPE_ZERO_OVER_F = "slope_zero_over_F"
FACT_SLOPE_ZERO_OVER_F_TILDE = "slope_zero_over_F_tilde"
FACT_SLOPE_EQUALS_RATIONAL_BASE = "slope_equals_rational_base"
FACT_BISECTION_TRANSFERS = "bisection_transfers"

GROUP_KINDS = ("symmetric", "alternating", "cyclic", "klein", "dihedral", "other")


class _FieldInteractionFields(NamedTuple):
    deg_K: Optional[int] = None
    deg_F: Optional[int] = None
    deg_F_tilde: Optional[int] = None
    galois_group_kind: Optional[str] = None
    disc_K: Optional[int] = None
    disc_F: Optional[int] = None


class FieldInteraction(_FieldInteractionFields):
    """Coarse invariants of a coefficient field K over a base field F.

    ``deg_K``/``deg_F`` are the absolute degrees, ``deg_F_tilde`` the
    degree of the Galois closure of F, ``galois_group_kind`` (one of
    ``GROUP_KINDS``) the shape of Gal of the closure of K, and the
    discriminants are of K and F.  Degrees and discriminants are
    integers (not bools), degrees positive; anything else raises
    ``ValueError``, also from ``_make`` and ``_replace``.  Unknown
    entries stay ``None`` and simply disable the rules that need them.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.galois_group_kind is not None and self.galois_group_kind not in GROUP_KINDS:
            raise ValueError(f"unknown galois_group_kind: {self.galois_group_kind!r}")
        for name in ("deg_K", "deg_F", "deg_F_tilde", "disc_K", "disc_F"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name.startswith("deg_") and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        return self


def interact_rules(meta: FieldInteraction) -> frozenset[str]:
    """Derive slope/bisection facts from field invariants.

    Three independent rules fire:

    1. ``deg_K`` a prime not dividing ``deg_F``: the full cycle survives
       restriction, so the slope over F is zero.
    2. Galois group of K symmetric and ``deg_F_tilde`` odd: the slope
       over the Galois closure of F is zero.
    3. ``|disc_K|`` and ``|disc_F|`` coprime: the fields are linearly
       disjoint, so the slope over F equals the slope over the
       rationals and bisecting elements transfer.
    """
    facts = set()
    if (
        meta.deg_K is not None
        and meta.deg_F is not None
        and is_prime(meta.deg_K)
        and meta.deg_F % meta.deg_K != 0
    ):
        facts.add(FACT_SLOPE_ZERO_OVER_F)
    if (
        meta.galois_group_kind == "symmetric"
        and meta.deg_F_tilde is not None
        and meta.deg_F_tilde % 2 == 1
    ):
        facts.add(FACT_SLOPE_ZERO_OVER_F_TILDE)
    if (
        meta.disc_K is not None
        and meta.disc_F is not None
        and gcd(abs(meta.disc_K), abs(meta.disc_F)) == 1
    ):
        facts.add(FACT_SLOPE_EQUALS_RATIONAL_BASE)
        facts.add(FACT_BISECTION_TRANSFERS)
    return frozenset(facts)
