"""Shared oracles for the test suite.

Everything here is computed independently of the library under test, so
frozen expected values in the tests do not circle back through the code
they are meant to check.
"""
from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath
import numpy as np

# Approximate tail probabilities established by the grid-convolution
# oracle below (n_grid = 2**20) and cross-checked by Monte Carlo; the
# suite treats these as ground truth for t >= 2.
TAIL_TRUTH = {
    (3, 2): 0.50093,
    (4, 2): 0.32024,
    (4, 3): 0.62308,
    (5, 2): 0.19517,
    (5, 3): 0.45471,
    (5, 4): 0.70900,
    (6, 2): 0.11513,
    (6, 3): 0.31438,
    (6, 4): 0.56225,
    (6, 5): 0.77201,
}


def poly_mul_mod(f, g, p: int) -> list[int]:
    """Product of coefficient lists (ascending) over GF(p), trimmed."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def primes_below(n: int) -> list[int]:
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def elliptic_ap(p: int) -> int:
    """Trace of Frobenius at p for y^2 + y = x^3 - x^2 - 10x - 20.

    Counts affine points over F_p directly (one pass over x against a
    table of y^2 + y values), then a_p = p + 1 - #E(F_p) with the point
    at infinity included.  The curve has conductor 11, so p = 11 is the
    one prime this must not be asked about.
    """
    ys = np.arange(p, dtype=np.int64)
    lhs_counts = np.bincount((ys * ys + ys) % p, minlength=p)
    xs = np.arange(p, dtype=np.int64)
    rhs = ((xs * xs) % p * xs - xs * xs - 10 * xs - 20) % p
    affine = int(lhs_counts[rhs].sum())
    return p + 1 - (affine + 1)


def quadratic_defect(u: int, v: int, d: int, p: int) -> int:
    """Defect of u + v*sqrt(d) in Q(sqrt(d)) at an odd prime p not
    dividing d, via the norm form alone.

    For unramified p the element lies in every prime over p exactly when
    p divides both coordinates (residue degree total 2 whether p is
    split or inert), and in at least one exactly when p divides the
    norm u^2 - d v^2.  Requires (u, v) != (0, 0).
    """
    if u % p == 0 and v % p == 0:
        return 2
    if (u * u - d * v * v) % p == 0:
        return 1
    return 0


def _trim(g):
    while g and g[-1] == 0:
        g.pop()
    return g


def poly_rem_mod(f, g, p: int) -> list[int]:
    """Remainder of ``f`` by ``g`` over GF(p), trimmed, by schoolbook
    long division (coefficients ascending; ``g`` has a leading
    coefficient prime to p)."""
    f = _trim([c % p for c in f])
    g = _trim([c % p for c in g])
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        q, shift = f[-1] * inv % p, len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - q * c) % p
        _trim(f)
    return f


def gcd_degree_mod_p(f, g, p: int) -> int:
    """deg gcd(f, g) over GF(p), by Euclid on ``poly_rem_mod``; -1 when
    both vanish mod p."""
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, poly_rem_mod(f, g, p)
    return len(f) - 1


def repeated_factor_mod_p(f, p: int) -> bool:
    """Whether monic ``f`` has a repeated factor mod the prime ``p``:
    gcd(f mod p, f' mod p) is nonconstant.  The library's per-prime test
    before it read the same answer from p | disc(f); kept as its
    reference."""
    return gcd_degree_mod_p(f, [i * c for i, c in enumerate(f)][1:], p) > 0


def divides_mod_p(g, f, p: int) -> bool:
    """Whether ``g`` divides ``f`` over GF(p)."""
    return not poly_rem_mod(f, g, p)


def rank_defect_mod_p(a, f, p: int) -> int:
    """n - rank over GF(p) of multiplication by ``a`` on GF(p)[x]/(f), for
    monic ``f`` of degree n, by Gaussian elimination mod p.  When f mod p
    is squarefree the ring is the product of the residue fields of the
    primes above p, and the kernel is the product of those containing a,
    so this is the defect k(p) with no gcd and no factorization."""
    n = len(f) - 1
    rows = [poly_rem_mod(poly_mul_mod(a, [0] * j + [1], p), f, p) for j in range(n)]
    rows = [r + [0] * (n - len(r)) for r in rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(n):
            if r != rank and rows[r][col]:
                c = rows[r][col] * inv % p
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return n - rank


def splits_by_roots(f, p: int) -> bool:
    """Whether ``f`` has deg f distinct roots among 0 .. p - 1, each
    found by evaluating f there."""
    def value(r):
        acc = 0
        for c in reversed(f):
            acc = (acc * r + c) % p
        return acc

    return sum(value(r) == 0 for r in range(p)) == len(f) - 1


def sylvester_discriminant(f) -> int:
    """Reference for ``numberfield.discriminant``: (-1)^(n(n-1)/2)
    Res(f, f') / lc(f) for f of degree n >= 1 (trailing zero
    coefficients ignored), the resultant being the determinant of the
    (2n - 1)-square Sylvester matrix of (f, f'), by Gaussian
    elimination over ``Fraction``."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    size = 2 * n - 1
    # n - 1 shifts of f, n of f', coefficients in descending order
    rows = [[0] * i + f[::-1] + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + df[::-1] + [0] * (n - 1 - i) for i in range(n)]
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, size):
            factor = m[r][k] / m[k][k]
            if factor:
                for c in range(k, size):
                    m[r][c] -= factor * m[k][c]
    disc = (-1) ** (n * (n - 1) // 2) * det / f[-1]
    if disc.denominator != 1:
        raise ArithmeticError(f"Res(f, f') of {f} is not divisible by the leading coefficient")
    return int(disc)


def semicircle_tail(k: int, t: int, n_grid: int = 1 << 16) -> float:
    """P(|y_1 * ... * y_t| < 2^(t-k)) for i.i.d. semicircle samples.

    Deterministic: puts the density of log|y| on a uniform grid ending
    at log 2 and convolves it t times by FFT, then sums the mass below
    (t - k) log 2.  Accurate to about 1e-4 at the default grid, with no
    sampling anywhere.
    """
    width = 46.0  # mass of log|y| below log2 - 46 is ~ e^-46, negligible
    hi = np.log(2.0)
    ds = width / n_grid
    s = hi - ds * np.arange(n_grid, dtype=np.float64)[::-1]
    y = np.exp(s)
    dens = 2.0 * y * np.sqrt(np.maximum(4.0 - y * y, 0.0)) / (2.0 * np.pi)
    w = dens * ds
    w /= w.sum()
    n_out = t * (n_grid - 1) + 1
    n_fft = 1 << int(np.ceil(np.log2(n_out)))
    conv = np.fft.irfft(np.fft.rfft(w, n_fft) ** t, n_fft)[:n_out]
    grid = t * s[0] + ds * np.arange(n_out)
    return float(conv[grid < (t - k) * np.log(2.0)].sum())


def semicircle_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` semicircle variates on [-2, 2]: 4B - 2 with B ~ Beta(3/2, 3/2),
    whose density is proportional to sqrt(b (1 - b)) = sqrt(4 - y^2)/4."""
    return 4.0 * rng.beta(1.5, 1.5, size) - 2.0


def monte_carlo_tail(k: int, t: int, samples: int, seed: int) -> float:
    """The fraction of ``samples`` seeded draws of (y_1, ..., y_t) with
    |y_1 * ... * y_t| < 2^(t-k): a sampling oracle for c(k, t), with
    standard deviation sqrt(c (1 - c) / samples)."""
    rng = np.random.default_rng(seed)
    product = np.ones(samples)
    for _ in range(t):
        product *= np.abs(semicircle_sample(rng, samples))
    return np.count_nonzero(product < 2.0 ** (t - k)) / samples


def _mellin_semicircle(s):
    """E X^s for X = |y|/2, y semicircular: the Beta integral
    (4/pi) int_0^1 x^s sqrt(1 - x^2) dx in Gamma functions."""
    return mpmath.gamma((s + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(s / 2 + 2))


def exp_series_loop(a: list) -> list:
    """The first len(a) Taylor coefficients of exp(sum_{m>=1} a_m x^m)
    by m b_m = sum_{j=1..m} j a_j b_(m-j), each term formed and summed
    in order of j: ``satotate._exp_series`` must agree to the last bit."""
    b = [1]
    for m in range(1, len(a)):
        b.append(sum(j * a[j] * b[m - j] for j in range(1, m + 1)) / m)
    return b


@lru_cache(maxsize=None)
def _kappa(n: int) -> Fraction:
    """pi K_n of the satotate module docstring, straight from its
    definition: 2 for n = 0, (-1)^n / n! * prod_{0<j<n} (1/2 - j) after."""
    if n == 0:
        return Fraction(2)
    product = Fraction(1)
    for j in range(1, n):
        product *= Fraction(1, 2) - j
    return Fraction((-1) ** n, factorial(n)) * product


def residue_scale(k: int, t: int, n: int) -> Fraction:
    """The rational scale 2 kappa_n^t / 2^(k(2n+1)) of residue n of the
    series for c(k, t), in ``Fraction`` arithmetic."""
    return Fraction(2 * _kappa(n) ** t, 2 ** (k * (2 * n + 1)))


@lru_cache(maxsize=None)
def mellin_residue(k: int, t: int, n: int):
    """Res_{s=-(2n+1)} 2^(ks) E[X^s]^t / (-s), at 40 digits, as the
    Cauchy integral over the circle |s + 2n + 1| = 1/2 by the 256-point
    trapezoid rule (geometrically exact for a function analytic on an
    annulus around the circle; the nearest other singularity is at
    distance 1 or more)."""
    points = 256
    with mpmath.workdps(40):
        center = -(2 * n + 1)
        total = mpmath.mpc(0)
        for j in range(points):
            offset = mpmath.mpf(1) / 2 * mpmath.expj(2 * mpmath.pi * j / points)
            s = center + offset
            total += mpmath.power(2, k * s) * _mellin_semicircle(s) ** t / (-s) * offset
        return total.real / points


@lru_cache(maxsize=None)
def mellin_tail(k: int, t: int):
    """c(k, t) as the sum of the left residues of the Mellin inversion
    integral of P(X_1 ... X_t < 2^-k), at 40 digits.  The residues fall
    by about 2^(-2k) each, so the sum stops once one is below 1e-30 of
    the total."""
    with mpmath.workdps(40):
        total = mellin_residue(k, t, 0)
        n = 1
        while True:
            term = mellin_residue(k, t, n)
            total += term
            if abs(term) < mpmath.mpf("1e-30") * abs(total):
                return total
            n += 1


def bfs_closure(generators, degree: int, cap: int):
    """Reference closure for ``PermutationGroup.elements``: the elements
    generated by the ``generators`` on ``degree`` points, found breadth
    first as compositions g(a(x)), each kept as a ``Permutation``, and
    sorted as image tuples.  Raises ``ClosureCapExceeded`` with the
    library's message as soon as more than ``cap`` elements are found."""
    from heckeslopes.galois import ClosureCapExceeded, Permutation

    ident = Permutation(range(degree))
    found = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = Permutation([g[j] for j in a])
                if b not in found:
                    found.add(b)
                    if len(found) > cap:
                        raise ClosureCapExceeded(f"closure exceeds cap of {cap} elements")
                    fresh.append(b)
        frontier = fresh
    return tuple(sorted(found))


def _partitions(n: int, smallest: int = 1):
    """Partitions of ``n`` into parts >= ``smallest``, each as a
    nondecreasing tuple of cycle lengths."""
    for part in range(smallest, n // 2 + 1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest
    if n >= smallest:
        yield (n,)


def cycle_type_histogram(n: int, alternating: bool = False) -> dict:
    """Number of elements of S_n (or of A_n, the even cycle types) of
    each cycle type λ: n!/z_λ with z_λ = prod over lengths i of
    i^m_i * m_i!, m_i the number of cycles of length i.  One entry per
    partition of n, so only for small n."""
    histogram = {}
    for ct in _partitions(n):
        if alternating and (n - len(ct)) % 2:
            continue
        z = 1
        for length, mult in Counter(ct).items():
            z *= length**mult * factorial(mult)
        histogram[ct] = factorial(n) // z
    return histogram


def fraction_embeddings(f):
    """Reference for ``numberfield.embeddings``: the same Aberth-Ehrlich
    iteration in ``complex``, with the three Newton steps and the sign
    test on x +- 1e-9*max(1, |x|) done in ``Fraction`` arithmetic, each
    Newton step rounded by ``float(Fraction)``."""

    def horner(g, z):
        acc = 0 * z
        for c in reversed(g):
            acc = acc * z + c
        return acc

    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    n = len(f) - 1
    if n < 1:
        return ()
    df = [i * c for i, c in enumerate(f)][1:]
    radius = 2 * max(abs(f[n - j] / f[n] / (1 + (j == n))) ** (1 / j) for j in range(1, n + 1))
    z = [cmath.rect(radius, 2 * cmath.pi * k / n + 0.4) for k in range(n)]
    prev = cmath.inf
    for _ in range(200):
        largest = 0.0
        for i, zi in enumerate(z):
            fz = horner(f, zi)
            if fz:
                w = fz / (horner(df, zi) - fz * sum(1 / (zi - zj) for zj in z if zj != zi))
                z[i] = zi - w
                largest = max(largest, abs(w) / max(1.0, abs(z[i])))
        if largest < 1e-15 or (largest < 1e-6 and largest >= prev):
            break
        prev = largest
    for i, zi in enumerate(z):
        if all(2 * abs(zi.imag) < abs(zi.conjugate() - zj) for j, zj in enumerate(z) if j != i):
            x = zi.real
            for _ in range(3):
                q = Fraction(x)
                dq = horner(df, q)
                if dq:
                    x = float(q - horner(f, q) / dq)
            h = 1e-9 * max(1.0, abs(x))
            if horner(f, Fraction(x - h)) * horner(f, Fraction(x + h)) <= 0:
                z[i] = complex(x, 0.0)
    return tuple(z)
