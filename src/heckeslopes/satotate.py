"""Semicircle measure on [-2, 2] and its product tail constants.

The measure has density sqrt(4 - y^2)/(2*pi); its cdf has the closed
form

    F(y) = 1/2 + y*sqrt(4 - y^2)/(4*pi) + arcsin(y/2)/pi.

The tail constant ``c(k, t)`` is the probability, under the t-fold
product measure, that |y_1 * ... * y_t| < 2^(t-k); it lower-bounds the
density of primes with ordinariness defect < k when t coordinate
fields satisfy an equidistribution hypothesis.  For t = 1 there is a
closed form

    c(k, 1) = (2/pi) * (u*sqrt(1 - u^2) + arcsin(u)),  u = 2^(1-k),

asymptotically 1/(pi * 2^(k-2)).  For t = k the constraint is vacuous
(|y_i| < 2 always), so the diagonal is exactly 1 and is never
simulated.  Other entries are estimated by vectorized rejection-
sampling Monte Carlo over deterministic substreams, or for t <= 2 by
deterministic quadrature.

numpy is imported only when Monte Carlo runs and SciPy only when
quadrature does, so importing this module and the closed forms load
neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi, sqrt
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "density",
    "cdf",
    "sample",
    "CEstimate",
    "tail_constant_closed_form",
    "tail_constant",
    "tail_table",
]

METHOD_CLOSED = "closed_form"
METHOD_QUAD = "quadrature"
METHOD_MC = "monte_carlo"

_SUBSTREAMS = 16


def density(y: float) -> float:
    """Semicircle density sqrt(4 - y^2)/(2*pi), zero off [-2, 2]."""
    if y <= -2.0 or y >= 2.0:
        return 0.0
    return sqrt(4.0 - y * y) / (2.0 * pi)


def cdf(y: float) -> float:
    """Cumulative distribution of the semicircle measure."""
    if y <= -2.0:
        return 0.0
    if y >= 2.0:
        return 1.0
    return 0.5 + y * sqrt(4.0 - y * y) / (4.0 * pi) + asin(y / 2.0) / pi


def sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` semicircle variates by rejection from the uniform
    envelope on [-2, 2] (acceptance rate pi/4)."""
    import numpy as np

    out = np.empty(size)
    have = 0
    while have < size:
        need = size - have
        # the envelope accepts ~pi/4 of proposals; 1.35 overshoot keeps
        # the expected number of rounds very close to 1
        m = max(64, int(need * 1.35))
        y = rng.uniform(-2.0, 2.0, m)
        u = rng.uniform(0.0, 1.0, m)
        accepted = y[u * 2.0 < np.sqrt(4.0 - y * y)]
        take = min(need, accepted.size)
        out[have : have + take] = accepted[:take]
        have += take
    return out


@dataclass(frozen=True)
class CEstimate:
    """One tail-constant value with an explicit error bound.

    ``abs_error`` is three sample standard deviations for Monte Carlo,
    the integrator's error estimate (with safety factor) for
    quadrature, and a floating-point bound for closed forms.  ``seed``
    is None unless randomness was used.
    """

    k: int
    t: int
    value: float
    abs_error: float
    method: str
    samples_or_nodes: int
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"tail constant out of (0, 1]: {self.value}")
        if self.abs_error < 0.0:
            raise ValueError("abs_error must be >= 0")


def tail_constant_closed_form(k: int) -> float:
    """Closed form for c(k, 1), k >= 2: the semicircle mass of
    {|y| < 2^(1-k)}, which is (2/pi)*(u*sqrt(1-u^2) + arcsin(u)) at
    u = 2^-k (half the threshold, since the support has radius 2);
    asymptotically 1/(pi*2^(k-2))."""
    if k < 2:
        raise ValueError("closed form applies to k >= 2 (t=1 < k)")
    u = 2.0 ** (-k)
    return (2.0 / pi) * (u * sqrt(1.0 - u * u) + asin(u))


def _check_domain(k: int, t: int) -> None:
    if k < 1:
        raise ValueError("need k >= 1")
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")


def _mc_estimate(k, t, samples, seed, threads):
    import numpy as np

    substreams = min(_SUBSTREAMS, samples)
    sizes = [samples // substreams] * substreams
    for i in range(samples % substreams):
        sizes[i] += 1
    threshold = 2.0 ** (t - k)

    def run(stream_index: int) -> int:
        rng = np.random.default_rng([seed, stream_index])
        n = sizes[stream_index]
        prod = np.abs(sample(rng, n))
        for _ in range(t - 1):
            prod *= np.abs(sample(rng, n))
        return int(np.count_nonzero(prod < threshold))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, range(substreams)))
    else:
        hits = sum(run(i) for i in range(substreams))
    if hits == 0:
        raise ValueError(
            f"no Monte Carlo hits for (k={k}, t={t}) with {samples} samples; "
            "increase samples or use quadrature/closed form"
        )
    p = hits / samples
    err = 3.0 * sqrt(p * (1.0 - p) / samples)
    return p, err


def _quadrature_estimate(k: int, t: int):
    from scipy import integrate

    c = 2.0 ** (t - k)
    if t == 1:
        value, abserr, info = integrate.quad(density, -c, c, full_output=1)
        return value, 10.0 * abserr + 1e-14, int(info["neval"])
    # t == 2: integrate over y the chance that the second factor lands
    # below c/y; the inner mass is 1 until y exceeds c/2 (kink there)
    def inner(y: float) -> float:
        if y <= 0.0:
            return 1.0
        z = c / y
        if z >= 2.0:
            return 1.0
        return 2.0 * (cdf(z) - 0.5)

    def integrand(y: float) -> float:
        return density(y) * inner(y)

    value, abserr, info = integrate.quad(
        integrand, 0.0, 2.0, points=[min(2.0, c / 2.0)], limit=200, full_output=1
    )
    value *= 2.0
    return value, 10.0 * (2.0 * abserr) + 1e-13, int(info["neval"])


def tail_constant(
    k: int,
    t: int,
    method: str = METHOD_MC,
    samples: int = 10**7,
    seed: int = 0,
    threads: int = 1,
) -> CEstimate:
    """Estimate c(k, t) = product-measure probability of
    |y_1 * ... * y_t| < 2^(t-k).

    The diagonal t = k is exactly 1 and is returned as a closed form
    whatever ``method`` says.  ``closed_form`` needs t = 1;
    ``quadrature`` needs t <= 2.  Monte Carlo draws ``samples`` total
    variates per coordinate across up to 16 independently seeded
    substreams (generator seeded with (seed, stream_index)) on
    ``threads`` worker threads, so the result is reproducible and
    independent of ``threads``, which must be >= 1 for every method.
    """
    _check_domain(k, t)
    if method not in (METHOD_CLOSED, METHOD_QUAD, METHOD_MC):
        raise ValueError(f"unknown method: {method!r}")
    if threads < 1:
        raise ValueError("need threads >= 1")
    if t == k:
        return CEstimate(k, t, 1.0, 0.0, METHOD_CLOSED, 0, None)
    if method == METHOD_CLOSED:
        if t != 1:
            raise ValueError("closed form only covers t = 1")
        return CEstimate(k, t, tail_constant_closed_form(k), 1e-15, METHOD_CLOSED, 0, None)
    if method == METHOD_QUAD:
        if t > 2:
            raise ValueError("quadrature path only covers t <= 2")
        value, err, nodes = _quadrature_estimate(k, t)
        return CEstimate(k, t, value, err, METHOD_QUAD, nodes, None)
    if samples < 1:
        raise ValueError("need samples >= 1")
    value, err = _mc_estimate(k, t, samples, seed, threads)
    return CEstimate(k, t, value, err, METHOD_MC, samples, seed)


def tail_table(
    max_k: int,
    samples: int = 10**7,
    seed: int = 0,
    threads: int = 1,
) -> list[list[CEstimate]]:
    """Lower-triangular table of c(k, t) estimates for k <= max_k:
    row k lists t = 1 .. k.  Diagonal entries are exact, the t = 1
    column uses the closed form, everything else Monte Carlo.  Capped
    at max_k = 8; beyond that the t = 1 tail is too small for the
    default sample sizes to resolve."""
    if not 1 <= max_k <= 8:
        raise ValueError("need 1 <= max_k <= 8")
    return [
        [
            tail_constant(
                k,
                t,
                METHOD_CLOSED if t == 1 else METHOD_MC,
                samples=samples,
                seed=seed,
                threads=threads,
            )
            for t in range(1, k + 1)
        ]
        for k in range(1, max_k + 1)
    ]
