"""Small prime helpers shared by the Hecke machinery."""

from __future__ import annotations

from itertools import compress
from math import isqrt


def is_odd_prime(p: int) -> bool:
    """True iff p is a prime other than 2."""
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, isqrt(p) + 1, 2))


def odd_primes(bound: int) -> list[int]:
    """All odd primes <= bound, ascending."""
    if bound < 3:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for d in range(2, isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d :: d] = b"\x00" * len(sieve[d * d :: d])
    return list(compress(range(3, bound + 1, 2), sieve[3::2]))


def odd_prime_factors(m: int) -> list[int]:
    """Prime factorization of an odd integer m >= 1, with multiplicity."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"expected an odd positive integer, got {m}")
    out = []
    d = 3
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 2
    if m > 1:
        out.append(m)
    return out
