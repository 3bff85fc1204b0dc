"""Semicircle measure on [-2, 2] and its product tail constants.

The measure has density sqrt(4 - y^2)/(2*pi); its cdf has the closed
form

    F(y) = 1/2 + y*sqrt(4 - y^2)/(4*pi) + arcsin(y/2)/pi.

The tail constant ``c(k, t)`` is the probability, under the t-fold
product measure, that |y_1 * ... * y_t| < 2^(t-k); it lower-bounds the
density of primes with ordinariness defect < k when t coordinate
fields satisfy an equidistribution hypothesis.  For t = 1 there is a
closed form

    c(k, 1) = (2/pi) * (u*sqrt(1 - u^2) + arcsin(u)),  u = 2^-k,

(u is half the threshold 2^(1-k) on |y|, since the support has radius
2), asymptotically 1/(pi * 2^(k-2)).  For t = k the constraint is vacuous
(|y_i| < 2 always), so the diagonal is exactly 1.

Every entry is also the sum of a residue series (Flajolet, Gourdon and
Dumas, "Mellin transforms and asymptotics: harmonic sums", TCS 144,
1995).  X = |Y|/2 has Mellin transform

    E X^s = M(s) = Gamma((s+1)/2) / (sqrt(pi) * Gamma(s/2 + 2)),

and closing the Mellin inversion of P(X_1 ... X_t < 2^-k) to the left
gives

    c(k, t) = sum_{n>=0} Res_{s=-(2n+1)} 2^(ks) M(s)^t / (-s).

Write s = -(2n+1) + 2d.  The Laurent series of Gamma at -n and at the
half-integer 3/2 - n give M(s) = K_n d^-1 exp(G_n(d)) with
K_n = (-1)^n / (n! pi F_n(0)), where F_0(d) = 1/2 + d and
F_n(d) = prod_{0<j<n} (1/2 - j + d)^-1 for n >= 1, and

    G_n(d) = 2 log2 d + sum_{m>=2} (-1)^m zeta(m) (2 - 2^m)/m d^m
             + sum_{m>=1} H_n^(m) d^m/m - log(F_n(d)/F_n(0))

(Euler's constant cancels between the two Gamma factors; H_n^(m) is
the generalized harmonic number).  Residue n is therefore

    2 K_n^t 2^(-k(2n+1)) [d^(t-1)] exp(t G_n(d) + 2k log2 d) / ((2n+1) - 2d),

which needs only log 2, pi, zeta(2..t) and rationals.  It is summed in
40-digit decimal arithmetic; zeta(m) comes from Euler-Maclaurin
summation.  ``abs_error`` of a series value is the sum of three bounds:

- the truncated tail.  By the reflection formula
  M(s) = -cot(pi d) Gamma(n - 1/2 - d) / (sqrt(pi) Gamma(n + 1 - d)),
  so on the circle |d| = 1/4 and for n >= 1,
  |M| <= C_n = coth(pi/4) Gamma(n - 3/4) / (sqrt(pi) Gamma(n + 3/4))
  (|Gamma(z)/Gamma(z + 3/2)| <= Gamma(Re z)/Gamma(Re z + 3/2) from the
  Beta integral, and the right side decreases in Re z > 0).  The Cauchy estimate on that circle bounds residue n
  by C_n^t 2^(-k(2n + 1/2)) / (2(2n + 1/2)); C_n decreases in n, so
  the residues from N on sum to at most the N-th bound over
  1 - 2^(-2k), a geometric majorant in 2^(-2k).  Summation stops at
  the first N whose bound is below 2^-60 of the partial sum.
- the working precision.  Each summand of a coefficient of G_n
  (zeta(m), log 2 or a rational) carries a relative error below
  1e-37, and each decimal operation one below 5e-40.  To first order
  the error of residue n is then at most
  2e-37 |2 K_n^t 2^(-k(2n+1))| sum_i w_i ((B*P)_i + (t+2)^2 B_i),
  with w_i = 2^(t-1-i)/(2n+1)^(t-i) the weights of the last factor,
  B the Taylor coefficients of the exponential with every coefficient
  of t G_n + 2k log2 d replaced by its absolute value, P those
  coefficients' sums of absolute summands, and * the Cauchy product.
  It grows with t: 8e-32 at k = 60, t = 59.
- the rounding of the decimal sum to a float, 2^-52 of the value.

The closed form and the series are the only computations of c(k, t);
both need nothing outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import asin, exp, factorial, lgamma, log, pi, prod, sqrt, tanh
from typing import Optional

__all__ = [
    "density",
    "cdf",
    "CEstimate",
    "METHOD_CLOSED",
    "METHOD_SERIES",
    "tail_constant_closed_form",
    "tail_constant",
    "tail_table",
]

METHOD_CLOSED = "closed_form"
METHOD_SERIES = "series"

# largest k of the series and the table: the range the series' error
# bound is checked over against an independent oracle
_MAX_K = 60
# working precision of the series, in decimal digits
_DIGITS = 40
# relative error bound of zeta(m), log 2 and each summand at _DIGITS
_ETA = 1e-37
_ZETA_HEAD = 64
# B_2, B_4, ..., B_20, the Euler-Maclaurin corrections of _zeta
_BERNOULLI = "1/6 -1/30 1/42 -1/30 5/66 -691/2730 7/6 -3617/510 43867/798 -174611/330"


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


@dataclass(frozen=True)
class CEstimate:
    """One tail-constant value with an explicit error bound.

    ``abs_error`` is the tail, working-precision and rounding bounds of
    the module docstring for the series, and a floating-point bound for
    closed forms.  ``seed`` is always None: nothing is sampled.
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


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / q.denominator


@lru_cache(maxsize=None)
def _zeta(m: int) -> Decimal:
    """zeta(m) for m >= 2 to 40 digits: the terms below 64 summed
    directly, the rest by Euler-Maclaurin through B_20.  The remainder
    is below the first omitted term, |B_22| 64^-23 < 2e-38 at m = 2
    and smaller beyond."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        head = sum(Decimal(j) ** -m for j in range(1, _ZETA_HEAD))
        n = _ZETA_HEAD
        tail = Fraction(1, (m - 1) * n ** (m - 1)) + Fraction(1, 2 * n**m)
        rising, fact = m, 2  # m (m+1) ... (m+2i-2) and (2i)!
        for i, bernoulli in enumerate(map(Fraction, _BERNOULLI.split()), start=1):
            tail += bernoulli * rising / (fact * n ** (m + 2 * i - 1))
            rising *= (m + 2 * i - 1) * (m + 2 * i)
            fact *= (2 * i + 1) * (2 * i + 2)
        return head + _decimal(tail)


def _exp_series(a: list) -> list:
    """The first len(a) Taylor coefficients of exp(sum_{m>=1} a_m x^m)."""
    b = [1]
    for m in range(1, len(a)):
        b.append(sum(j * a[j] * b[m - j] for j in range(1, m + 1)) / m)
    return b


@lru_cache(maxsize=None)
def _log2() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return Decimal(2).ln()


@lru_cache(maxsize=None)
def _g_coefficient(n: int, m: int) -> tuple[Decimal, float]:
    """The coefficient of d^m in G_n(d), m >= 1, and the sum of the
    absolute values of its summands."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        rational = sum((Fraction(1, j**m) for j in range(1, n + 1)), Fraction(0))
        if n == 0:
            rational += (-2) ** m
        else:
            rational -= sum(Fraction(2, 2 * j - 1) ** m for j in range(1, n))
        irrational = 2 * _log2() if m == 1 else (-1) ** m * (2 - 2**m) * _zeta(m)
        return (
            (_decimal(rational) + irrational) / m,
            (abs(float(rational)) + abs(float(irrational))) / m,
        )


def _residue(k: int, t: int, n: int, pi_t: Decimal):
    """Residue n of the series for c(k, t) and a bound on its
    working-precision error (see the module docstring)."""
    q = 2 * n + 1
    a = [Decimal(0)] * t  # t G_n(d) + 2k log2 d, by powers of d
    parts = [0.0] * t  # the same with the absolute value of each summand
    for m in range(1, t):
        g, size = _g_coefficient(n, m)
        a[m] = t * g
        parts[m] = t * size
    if t > 1:
        a[1] += 2 * k * _log2()
        parts[1] += 2 * k * log(2)
    kappa = 2 if n == 0 else Fraction((-1) ** n, factorial(n)) * prod(
        Fraction(1, 2) - j for j in range(1, n)
    )
    scale = Fraction(2 * kappa**t, 2 ** (k * q))
    ratio = Decimal(2) / q
    acc = Decimal(0)
    for coefficient in _exp_series(a):
        acc = acc * ratio + coefficient
    residue = _decimal(scale) * acc / q / pi_t

    sizes = _exp_series([abs(float(x)) for x in a])
    majorant = sum(
        (2 / q) ** (t - 1 - i) / q
        * ((t + 2) ** 2 * sizes[i] + sum(parts[m] * sizes[i - m] for m in range(1, i + 1)))
        for i in range(t)
    )
    return residue, 2 * _ETA * abs(float(scale)) / float(pi_t) * majorant


def _tail_bound(k: int, t: int, n: int) -> float:
    """Bound on the sum of |residue m| over m >= n >= 1."""
    c_n = exp(lgamma(n - 0.75) - lgamma(n + 0.75)) / (tanh(pi / 4) * sqrt(pi))
    r = 2 * n + 0.5
    return exp(t * log(c_n) - k * r * log(2)) / (2 * r * (1 - 4.0**-k))


def _series_estimate(k: int, t: int):
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        pi_t = (6 * _zeta(2)).sqrt() ** t
        total, working, n = Decimal(0), 0.0, 0
        while True:
            residue, err = _residue(k, t, n, pi_t)
            total += residue
            working += err
            n += 1
            tail = _tail_bound(k, t, n)
            if tail <= 2.0**-60 * abs(float(total)):
                break
        value = float(total)
    return value, tail + working + 2.0**-52 * value, n


def tail_constant(k: int, t: int, method: str = METHOD_SERIES) -> CEstimate:
    """c(k, t), the product-measure probability of
    |y_1 * ... * y_t| < 2^(t-k).

    The diagonal t = k is exactly 1 and is returned as a closed form
    whatever ``method`` says.  ``closed_form`` needs t = 1.  ``series``
    sums the residue series of the module docstring, for k <= 60; its
    ``samples_or_nodes`` is the number of residues summed.
    """
    _check_domain(k, t)
    if method not in (METHOD_CLOSED, METHOD_SERIES):
        raise ValueError(f"unknown method: {method!r}")
    if t == k:
        return CEstimate(k, t, 1.0, 0.0, METHOD_CLOSED, 0, None)
    if method == METHOD_CLOSED:
        if t != 1:
            raise ValueError("closed form only covers t = 1")
        return CEstimate(k, t, tail_constant_closed_form(k), 1e-15, METHOD_CLOSED, 0, None)
    if k > _MAX_K:
        raise ValueError(f"series covers k <= {_MAX_K}")
    value, err, terms = _series_estimate(k, t)
    return CEstimate(k, t, value, err, METHOD_SERIES, terms, None)


def tail_table(max_k: int) -> list[list[CEstimate]]:
    """Lower-triangular table of c(k, t) for k <= max_k <= 60: row k
    lists t = 1 .. k.  Diagonal entries are exact, the t = 1 column uses
    the closed form and everything else the series."""
    if not 1 <= max_k <= _MAX_K:
        raise ValueError(f"need 1 <= max_k <= {_MAX_K}")
    return [
        [tail_constant(k, t, METHOD_CLOSED if t == 1 else METHOD_SERIES) for t in range(1, k + 1)]
        for k in range(1, max_k + 1)
    ]
