"""Integer plumbing: factorization, totients, squarefree subset enumeration.

Everything here is exact and sized for desk-scale moduli (trial division
is deliberate; nothing in this package factors anything near cryptographic
sizes).  Primality and prime-power tests do not factor: is_prime is a
deterministic Miller-Rabin test, so a large prime given on the command line
is accepted or rejected at once, and a number beyond the test's bound is
refused with a ValueError rather than factored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = p_1^e_1 ... p_k^e_k with primes increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"positive integer required, got {self.n}")
        if prod(p**e for p, e in self.factors) != self.n:
            raise ValueError("factor list does not multiply to n")
        ps = [p for p, _ in self.factors]
        if ps != sorted(set(ps)) or any(e < 1 for _, e in self.factors):
            raise ValueError("primes must be strictly increasing, exponents >= 1")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def num_distinct_primes(self) -> int:
        return len(self.factors)


# Factorization is frozen, so every caller may share the cached instance.
@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Trial-division factorization; n = 1 gives the empty factor list.

    >>> factorize(12).factors
    ((2, 2), (3, 1))
    >>> factorize(210).num_distinct_primes
    4
    >>> factorize(1).factors
    ()
    """
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """
    >>> [euler_phi(n) for n in (1, 6, 12)]
    [1, 2, 4]
    """
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(n).factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing."""
    ds = [1]
    for p, e in factorize(n).factors:
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
    for p, _ in factorize(order).factors:
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
