"""Small integer helpers shared across modules."""

from __future__ import annotations

from functools import lru_cache

# The first 13 primes: trial divisors, then strong-probable-prime bases.
# Together they decide primality for every n below psi_13 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).  The first 12 alone are fooled by
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981
    (about 3.3e24); larger n raise ``ValueError`` instead of a guess.
    Cached, since ``k_of_p`` and ``splits_completely`` ask again for the
    same few primes on every call."""
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
