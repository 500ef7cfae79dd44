"""Integer plumbing: factorization, totients, squarefree subset enumeration.

A factorization is the plain tuple of its (prime, exponent) pairs, and
every Moebius sum in the package runs over squarefree_divisors.

Everything here is exact and sized for desk-scale moduli; nothing in this
package factors anything near cryptographic sizes.  factorize divides out
the primes up to 1000 by trial, which settles every number the verifiers
meet, and splits a composite cofactor past them by Brent's variant of
Pollard's rho.  Primality and prime-power tests do not factor: is_prime is
a deterministic Miller-Rabin test, so a large prime given on the command
line is accepted or rejected at once, and a number beyond the test's bound
is refused with a ValueError rather than factored.  So is a number whose
cofactor stays beyond that bound after trial division to _TRIAL_LIMIT.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod

# factorize trial-divides up to this bound before it tries Pollard-Brent
_TRIAL_BOUND = 1000
# and up to this limit while the cofactor is too large for is_prime, about
# 0.1 s of trial division; past it a cofactor that large is refused
_TRIAL_LIMIT = 10**6


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization as (prime, exponent) pairs, primes increasing; n = 1
    gives the empty tuple.  Trial division runs to _TRIAL_BOUND, and past
    it while the cofactor is too large for is_prime, up to _TRIAL_LIMIT: a
    cofactor still that large raises ValueError.  A cofactor left with no
    prime up to the bound is split by Pollard-Brent.

    >>> factorize(12)
    ((2, 2), (3, 1))
    >>> factorize(1)
    ()
    >>> factorize(1009 * 1013**2)
    ((1009, 1), (1013, 2))
    """
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m and (p <= _TRIAL_BOUND or m >= _MILLER_RABIN_BOUND):
        if p > _TRIAL_LIMIT:
            raise ValueError(f"cannot factor {n}: its cofactor {m} is at least {_MILLER_RABIN_BOUND} "
                             f"and has no prime factor <= {_TRIAL_LIMIT}")
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if p * p > m:  # m is 1 or prime
        if m > 1:
            factors.append((m, 1))
        return tuple(factors)
    # m has no prime below p, so a q | m with p * p > q is prime; below
    # that, q is below the Miller-Rabin bound and is_prime decides it
    cofactor = []
    while m > 1:
        q = m
        while p * p <= q and not is_prime(q):
            q = _brent_divisor(q)
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        cofactor.append((q, e))
    return tuple(factors + sorted(cofactor))


def _brent_divisor(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor up to
    _TRIAL_BOUND: Brent's cycle search on y -> y^2 + c mod n, one gcd per
    128 differences, for c = 1, 2, ... until one splits n (R. Brent,
    BIT 20 (1980) 176-184)."""
    for c in itertools.count(1):
        y, q, g, span = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(span):
                y = (y * y + c) % n
            done = 0
            while done < span and g == 1:
                ys = y
                for _ in range(min(128, span - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += 128
            span *= 2
        if g == n:  # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of n, increasing.

    >>> prime_factors(360)
    (2, 3, 5)
    """
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """
    >>> [euler_phi(n) for n in (1, 6, 12)]
    [1, 2, 4]
    """
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def squarefree_subsets(primes) -> list[tuple[tuple[int, ...], int]]:
    """All 2^len subsets of a list of distinct primes with sign (-1)^|subset|.

    Ordered by subset size, then lexicographically by index set; the empty
    subset comes first and carries sign +1.

    >>> squarefree_subsets([2, 3])
    [((), 1), ((2,), -1), ((3,), -1), ((2, 3), 1)]
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    out = []
    for size in range(len(primes) + 1):
        for combo in itertools.combinations(primes, size):
            out.append((combo, (-1) ** size))
    return out


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """The pairs (d, mu(d)) for the squarefree divisors d of n, in the
    order of squarefree_subsets on the primes of n.

    >>> squarefree_divisors(12)
    [(1, 1), (2, -1), (3, -1), (6, 1)]
    """
    return [(prod(subset), sign) for subset, sign in squarefree_subsets(prime_factors(n))]


# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the prime bases 2..41, exact for
    n < 3.3 * 10^24.  Above that bound only a prime factor <= 41 decides:
    any other n raises ValueError.

    >>> [n for n in range(20) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(10**18 + 3), is_prime(3215031751)  # 151 * 751 * 28351
    (True, False)
    """
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: it is at least "
                         f"{_MILLER_RABIN_BOUND} and has no prime factor <= 41")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
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


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 and e >= 1, by Newton's method on
    integers from a start above the root."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


# Cached like factorize: the finite-field verifiers revalidate the same q
# in every cell.  A ValueError is not cached.
@lru_cache(maxsize=None)
def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^e for a prime p, or raise ValueError.

    q is an exact e-th power with a prime root for at most one e.  Each
    e <= log2(q) is tried with an integer root, the largest first, so the
    primality test sees the root of a prime power, never the power itself.

    >>> prime_power_decomposition((10**18 + 3) ** 4)
    (1000000000000000003, 4)
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for e in reversed(range(1, q.bit_length())):
        p = _integer_root(q, e)
        if p**e == q and is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^x."""
    if n < 1 or gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    if n == 1:
        return 1
    order = euler_phi(n)
    for p in prime_factors(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def smallest_primitive_root(q: int) -> int:
    """Smallest generator of (Z/q)^x; q must be 1, 2, 4, p^e or 2p^e (p odd)."""
    if q in (1, 2):
        return 1
    target = euler_phi(q)
    for g in range(2, q):
        if gcd(g, q) == 1 and multiplicative_order(g, q) == target:
            return g
    raise ValueError(f"(Z/{q})^x is not cyclic")
