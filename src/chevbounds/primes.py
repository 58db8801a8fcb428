"""Exact primality check for the characteristic p.

Small p is decided by trial division up to its integer square root, larger p
by Miller-Rabin on fixed bases, which is a proof below the accepted bound.
There is no floating point, so every integer gets an answer or an InputError
quickly.  The answers are memoized in a bounded cache, because every page
query checks the same few primes again.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import InputError, _shown

# Miller-Rabin on the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, 2015); larger inputs are refused.
PRIME_CERTIFIED_BELOW = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_DIVISION_BELOW = 1 << 20


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    if n < _TRIAL_DIVISION_BELOW:
        return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise InputError unless p is a prime int (not a float or bool); exact, with no floats."""
    if type(p) is not int:
        raise InputError(f"p must be prime, got {_shown(p)}")
    if p >= PRIME_CERTIFIED_BELOW:
        raise InputError(
            f"p must be below {PRIME_CERTIFIED_BELOW}, the bound up to which "
            "primality is decided exactly"
        )
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
