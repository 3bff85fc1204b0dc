"""Shared oracles for the test suite.

Everything here is computed independently of the library under test, so
frozen expected values in the tests do not circle back through the code
they are meant to check.
"""
from __future__ import annotations

from functools import lru_cache

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
