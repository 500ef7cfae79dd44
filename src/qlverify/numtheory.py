"""Integer plumbing: factorization, totients, squarefree subset enumeration.

Everything here is exact and sized for desk-scale moduli (trial division
is deliberate; nothing in this package factors anything near cryptographic
sizes).
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factorize(n)
    return f.num_distinct_primes == 1 and f.factors[0][1] == 1


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^e for a prime p, or raise ValueError."""
    f = factorize(q)
    if q < 2 or f.num_distinct_primes != 1:
        raise ValueError(f"{q} is not a prime power")
    return f.factors[0]


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
