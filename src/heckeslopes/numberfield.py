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
3.4): ``k_of_p`` takes one gcd and never factors.  In the same way
``splits_completely`` counts the roots of ``f`` mod ``p`` as
deg gcd(x^p - x, f mod p).  Euclid's remainders build no quotient.
disc(f) comes from the n-square Bézout matrix of (f, f') for f of
degree n, once per ``Field``.  Coordinates must be ``int`` or
``Fraction`` (``TypeError`` otherwise).

Factorization mod p, used only by ``splitting_type`` (and so by
callers that want the shape of ``p`` itself), is one distinct-degree
loop over f mod p itself, which counts multiplicities as it divides
factors out, with randomized equal-degree splitting.  The draws come
from a fixed ``random.Random(0)`` stream, and the sorted factor list
does not depend on them anyway.

Every modulus ``p`` must be prime (``ValueError`` otherwise), and
``is_prime`` refuses, also with ``ValueError``, to decide p >= 3.3e24.

``embeddings`` (behind ``weil_bound_check``) uses only the standard
library.  It certifies real roots to 1e-9 relative by an exact sign
change, evaluated in integers at the floats' exact ratios; complex
roots and the Weil comparison are floating point, and found once per
``Field``: a caller asking many questions of one field passes one Field.
"""

from __future__ import annotations

import cmath
import functools
import random
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from ._arith import is_prime

__all__ = [
    "Field",
    "RamifiedPrimeError",
    "IndexWarningError",
    "factor_mod_p",
    "PrimeSplitting",
    "splitting_type",
    "element_in_prime",
    "Defect",
    "k_of_p",
    "splits_completely",
    "weil_bound_check",
    "half_bound_check",
    "discriminant",
    "embeddings",
    "is_prime",
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
    ``roots`` and ``splits`` (``splits_completely`` verdicts by prime)
    are computed on first use and kept as long as the Field lives."""

    def __new__(cls, f: IntPoly) -> Field:
        if isinstance(f, Field):
            return f
        if not f or f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        return super().__new__(cls, f)

    @functools.cached_property
    def disc(self) -> int:
        return discriminant(self)

    @functools.cached_property
    def roots(self) -> tuple[complex, ...]:
        return embeddings(self)  # by name, so a wrapper on it counts calls

    @functools.cached_property
    def splits(self) -> dict[int, bool]:
        return {}


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


def _mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


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


def _mod(f, g, p):
    """``f`` mod ``g`` over GF(p), without the quotient; only each step's
    leading entry is reduced mod p on the way, the rest once at the end."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = _deg(g)
    inv = pow(g[-1], p - 2, p)
    for top in range(len(f) - 1, dg - 1, -1):
        coef = f[top] * inv % p
        if coef:
            shift = top - dg
            for i in range(dg):
                f[shift + i] -= coef * g[i]
    del f[dg:]
    return _reduce(f, p)


def _gcd(f, g, p):
    while g:
        f, g = g, _mod(f, g, p)
    return _monic(f, p)


def _pow_mod(base, e, mod, p):
    result = [1]
    base = _mod(base, mod, p)
    while e:
        if e & 1:
            result = _mod(_mul(result, base, p), mod, p)
        base = _mod(_mul(base, base, p), mod, p)
        e >>= 1
    return result


# ---------------------------------------------------------------------
# factorization mod p

def _equal_degree(f, d, p, rng):
    """Split squarefree monic ``f``, a product of irreducibles all of
    degree ``d``, into those irreducibles (Cantor-Zassenhaus)."""
    n = _deg(f)
    if n == d:
        return [f]
    while True:
        u = [rng.randrange(p) for _ in range(n)]
        u = _trim(u)
        if _deg(u) < 1:
            continue
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
            return _equal_degree(g, d, p, rng) + _equal_degree(
                _divmod(f, g, p)[0], d, p, rng
            )


def factor_mod_p(f: IntPoly, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Complete factorization of ``f`` mod ``p`` into monic irreducibles.

    Returns ``[(g, multiplicity), ...]`` with each ``g`` a tuple of
    ascending coefficients, sorted by (degree, coefficients) so output
    is canonical whatever the randomized equal-degree stage draws.
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
    rng = random.Random(0)
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
                factors += [(tuple(q), m) for q in _equal_degree(once, d, p, rng)]
            g = more
    if _deg(rest) > 0:
        factors.append((tuple(rest), 1))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return factors


# ---------------------------------------------------------------------
# splitting data and congruences

class PrimeSplitting(NamedTuple):
    """Shape of ``p`` in K: the factors of f mod p with multiplicities
    (the ramification indices when Z[x] is maximal at p) and their
    residue degrees.  ``ramified`` marks a repeated factor, which for
    monic f happens exactly when p | disc(f); whether p ramifies in K
    itself or only divides the index needs the Dedekind criterion."""

    p: int
    factors: tuple[tuple[tuple[int, ...], int], ...]
    residue_degrees: tuple[int, ...]
    ramified: bool


def splitting_type(f: IntPoly, p: int) -> PrimeSplitting:
    """Factor the defining polynomial mod ``p`` and package the shape.

    ``f`` must be monic and ``p`` prime; irreducibility over Q is the
    caller's claim.  The degree identity sum(e_i * f_i) = deg f always
    holds.
    """
    factors = tuple(factor_mod_p(Field(f), p))
    return PrimeSplitting(
        p=p,
        factors=factors,
        residue_degrees=tuple(len(g) - 1 for g, _ in factors),
        ramified=any(e > 1 for _, e in factors),
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
    pairs = _fractions(a)
    # Z[x] can be smaller than the ring of integers: (1 + x)/2 over
    # x^2 - 5 is integral but has denominators here
    if any(d != 1 for _, d in pairs):
        raise ValueError("coordinates must be integers in the power basis of the defining polynomial"
                         " (elements of the maximal order outside Z[x] are not supported yet)")
    return _reduce([n for n, _ in pairs], p)


def element_in_prime(a: Sequence[Coord], g: IntPoly, p: int) -> bool:
    """Whether the integral element with power-basis coordinates ``a``
    lies in the prime (p, g(x)) — i.e. its reduction mod p is divisible
    by the residue factor ``g``, which must not vanish mod p.  ``p`` must
    be prime, as in ``k_of_p``."""
    gbar = _reduce_mod_prime(g, p)
    if not gbar:
        raise ValueError(f"residue factor {list(g)} vanishes mod {p}")
    return not _mod(_integral_reduction(a, p), gbar, p)


class Defect(NamedTuple):
    """Total residue degree of the primes above p containing the
    element; ``all_primes`` marks the degenerate zero element."""

    k: int
    all_primes: bool


def _squarefree_reduction(field: Field, p: int) -> list[int]:
    """``field`` mod ``p``, refusing ``p`` (with ``RamifiedPrimeError``)
    when it has a repeated factor, which for monic f of degree >= 1
    happens exactly when p | disc(f)."""
    fb = _reduce_mod_prime(field, p)
    if len(field) > 1 and field.disc % p == 0:
        # the Dedekind criterion will separate genuine ramification
        # from index divisors (IndexWarningError) here
        raise RamifiedPrimeError(f"p={p} ramifies in the field")
    return fb


def k_of_p(a: Sequence[Coord], f: IntPoly, p: int) -> Defect:
    """Ordinariness defect of ``a`` at ``p``: sum of residue degrees f_i
    over the primes (p, g_i) that contain ``a``.

    Refuses primes dividing disc(f), computed once per ``Field`` (the
    residue correspondence is unreliable there).  Otherwise f mod p is
    squarefree and the defect is deg gcd(f mod p, a mod p), so nothing
    is factored.  The zero element lies in every prime: the full field
    degree is returned with ``all_primes=True`` rather than silently.
    """
    fb = _squarefree_reduction(Field(f), p)
    n = _deg(fb)
    _require_length(a, n)
    apoly = _integral_reduction(a, p)
    if not any(a):
        return Defect(n, True)
    # a = 0 mod p gives gcd(fb, 0) = fb: every prime above p
    return Defect(_deg(_gcd(fb, apoly, p)), False)


def splits_completely(f: IntPoly, p: int) -> bool:
    """Whether monic ``f`` splits into distinct linear factors mod
    ``p``: deg gcd(x^p - x, f mod p) = deg f, kept in ``Field(f).splits``.
    Refuses ``p`` | disc(f) like ``k_of_p``: f mod p has a repeated factor."""
    field = Field(f)
    if type(p) is not int or p not in field.splits:  # 7.0 == 7 would skip the checks
        fb = _squarefree_reduction(field, p)
        x = [0, 1]
        roots = _gcd(fb, _sub(_pow_mod(x, p, fb, p), x, p), p)
        field.splits[p] = _deg(roots) == _deg(fb)
    return field.splits[p]


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
