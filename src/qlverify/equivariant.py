"""Restriction-only Mackey data over a cyclic group and its Bredon cohomology.

Every datum in scope is cyclic: the value on the orbit C_m/C_d is the
finite cyclic group Z/orders[d], and the restriction from level big to a
level small | big is the subgroup inclusion, multiplication by
orders[small] // orders[big].  So a datum is its orders and nothing else.

For C_m with distinct prime factors p_1 < ... < p_l, the cellular cochain
complex of the equivariant Moore object for the standard cyclotomic
character occupies degrees -l..0.  The degree -s term is the direct sum,
over the size-s subsets S of the primes, of Z/orders[prod(S)]; the
differential drops one prime at a time through the restriction
multipliers with alternating Cech signs, so it is one integer matrix.

Transfers are deliberately absent from the data model: every computation
in scope needs restrictions only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Callable, Mapping

from .abelian import (
    BoundedComplex,
    FgAbelianGroup,
    IntMatrix,
    cohomology,
)
from .numtheory import divisors, multiplicative_order, prime_factors


@dataclass(frozen=True, eq=False)
class CyclicMackeyData:
    """Cyclic restriction data over C_m: value(d) = Z/orders[d], one order
    per divisor d of m, and restrictions the subgroup inclusions.

    Construction requires every order to be a positive integer and
    orders[a] to divide orders[a/p] on the one-prime steps a -> a/p.
    Divisibility is transitive, so then orders[big] divides orders[small]
    for every small | big, and each inclusion is well defined.  The
    multipliers telescope, orders[c]/orders[b] * orders[b]/orders[a] ==
    orders[c]/orders[a], so functoriality holds exactly, not only modulo
    relations.  The orders are copied into a read-only mapping: changing
    the caller's dict later does not change a validated datum.

    The K_1 groups of the subfields of F_64/F_2:

    >>> M = CyclicMackeyData(6, {d: 2 ** (6 // d) - 1 for d in (1, 2, 3, 6)})
    >>> M.multiplier(3, 1)
    21
    """

    m: int
    orders: Mapping[int, int]

    def __post_init__(self):
        orders = dict(self.orders)
        if sorted(orders) != divisors(self.m):
            raise ValueError("need exactly one order per divisor of m")
        for a, n in orders.items():
            if n < 1:
                raise ValueError(f"order {n} at level {a} is not positive")
            for p in prime_factors(a):
                if orders[a // p] % n:
                    raise ValueError(f"order {n} at level {a} does not divide "
                                     f"order {orders[a // p]} at level {a // p}")
        object.__setattr__(self, "orders", MappingProxyType(orders))

    def multiplier(self, big: int, small: int) -> int:
        """The restriction Z/orders[big] -> Z/orders[small], small | big,
        as multiplication by an integer."""
        return self.orders[small] // self.orders[big]


def _cech_complex(labels, order_of: Callable[[tuple], int]) -> BoundedComplex:
    """Cochain complex indexed by subsets of labels, degrees -len(labels)..0.

    order_of(S) gives the order of the cyclic group attached to the subset
    S (a sorted tuple); the degree -s term is the direct sum of those of
    the size-s subsets, so the complex is these orders and its integer
    differentials.  The map for dropping one label, S -> T, is the
    subgroup inclusion Z/order_of(S) -> Z/order_of(T), multiplication by
    order_of(T) // order_of(S), so order_of(S) must divide order_of(T).
    Its sign is (-1)^j, where j is the 1-based position of the dropped
    label in S.
    """
    labels = tuple(sorted(labels))
    n = len(labels)
    subsets_by_size = [list(itertools.combinations(labels, size)) for size in range(n, -1, -1)]
    orders = {S: order_of(S) for subsets in subsets_by_size for S in subsets}
    terms = tuple(tuple(orders[S] for S in subsets) for subsets in subsets_by_size)

    diffs = []
    for sources, targets in zip(subsets_by_size, subsets_by_size[1:]):
        row_of = {T: i for i, T in enumerate(targets)}
        rows = [[0] * len(sources) for _ in targets]
        for col, S in enumerate(sources):
            for j in range(len(S)):
                T = S[:j] + S[j + 1:]
                rows[row_of[T]][col] = (-1) ** (j + 1) * (orders[T] // orders[S])
        diffs.append(IntMatrix.from_rows(rows, len(sources)))
    return BoundedComplex(-n, terms, tuple(diffs))


@lru_cache(maxsize=1)
def moore_cochain_complex(M: CyclicMackeyData) -> BoundedComplex:
    """Cellular cochain complex of the Moore object, degrees -l..0.

    l is the number of distinct primes of m; the subset S of primes
    contributes Z/orders[prod(S)] in degree -|S|, and the differentials
    are alternating sums of restriction multipliers.

    The last complex is kept, so asking bredon_cohomology for every degree
    of one datum builds and validates it once.  Mackey data are frozen and
    compare by identity, so the cache key is the datum itself.
    """
    return _cech_complex(prime_factors(M.m), lambda S: M.orders[prod(S)])


def bredon_cohomology(M: CyclicMackeyData, s: int) -> FgAbelianGroup:
    """H^s of the Moore cochain complex; s must lie in [-l, 0], or
    ValueError is raised."""
    return cohomology(moore_cochain_complex(M), s)


def h0_fixed_point_oracle(M: CyclicMackeyData) -> FgAbelianGroup:
    """Closed form for H^0: value(1) modulo the images of all prime-level
    restrictions.  That is the cokernel of one 1 x k row, so it is cyclic
    of order the gcd of the row."""
    return FgAbelianGroup.cyclic(
        gcd(M.orders[1], *(M.multiplier(p, 1) for p in prime_factors(M.m))))


def cyclic_fixed_point_mackey(mod: int, u: int, m: int) -> CyclicMackeyData:
    """Kernel-filtration Mackey data on A = Z/mod for a unit u with u^m = 1.

    value(d) is the kernel of multiplication by u^(m/d) - 1 on A, i.e. the
    cyclic subgroup of order gcd(u^(m/d) - 1, mod); restrictions are the
    subgroup inclusions.
    """
    if mod < 1:
        raise ValueError("modulus must be positive")
    if gcd(u, mod) != 1:
        raise ValueError(f"{u} is not a unit mod {mod}")
    if pow(u, m, mod) != 1 % mod:
        raise ValueError(f"u^m != 1 (ord(u) = {multiplicative_order(u, mod)} does not divide {m})")
    return CyclicMackeyData(m, {d: gcd(pow(u, m // d, mod) - 1, mod) for d in divisors(m)})


def cyclic_cech_complex(mod: int, subgroup_gens) -> BoundedComplex:
    """Intersection cochain complex for a family of subgroups of Z/mod.

    Each subgroup is given by a generator g and equals (gcd(g, mod)) Z/mod;
    the subset S of indices contributes the intersection of the chosen
    subgroups (the empty subset contributes all of Z/mod), with inclusion
    differentials and the usual alternating signs.
    """
    if mod < 1:
        raise ValueError("modulus must be positive")
    ds = [gcd(int(g), mod) for g in subgroup_gens]
    # the intersection of the subgroups indexed by S is generated by the lcm
    return _cech_complex(range(len(ds)), lambda S: mod // lcm(*(ds[i] for i in S)))


def cech_h0_oracle(mod: int, subgroup_gens) -> FgAbelianGroup:
    """Z/mod modulo the join of the given subgroups: cyclic of order
    gcd(mod, g_1, ..., g_k)."""
    return FgAbelianGroup.cyclic(gcd(mod, *(int(x) for x in subgroup_gens)))
