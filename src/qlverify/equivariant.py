"""Restriction-only Mackey data over a cyclic group and its Bredon cohomology.

For C_m with distinct prime factors p_1 < ... < p_l, the cellular cochain
complex of the equivariant Moore object for the standard cyclotomic
character occupies degrees -l..0.  The degree -s term is the direct sum,
over the size-s subsets S of the primes, of the value at the orbit level
prod(S); the differential drops one prime at a time through the given
restriction homomorphisms with alternating Cech signs.

Transfers are deliberately absent from the data model: every computation
in scope needs restrictions only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Mapping

from .abelian import (
    BoundedComplex,
    FgAbelianGroup,
    IntMatrix,
    PresentedAbelianGroup,
    cohomology,
)
from .numtheory import divisors, factorize, multiplicative_order


@dataclass(frozen=True, eq=False)
class CyclicMackeyData:
    """Values on orbits C_m/C_d (one per divisor d of m) plus restrictions.

    ext[(d_big, d_small)] is an integer matrix on generators mapping
    value(d_big) into value(d_small), for every pair d_small | d_big.  The
    pair (d, d) may be omitted and defaults to the identity; an explicit
    one must induce the identity on value(d).

    Construction checks shapes on every pair, but well-definedness
    (relations go to relations) only on the one-prime steps a -> a/p, and
    functoriality ext(a, c) == ext(a/p, c) ext(a, a/p) only for c a proper
    divisor of a/p, where == means equal modulo the relations of value(c).
    Both properties then hold everywhere, by induction on the number of
    prime factors of a/c:

    - ext(a, c) with c != a is well defined: pick p with c | a/p.  It
      differs by a map into the relations of value(c) from the composite
      of ext(a, a/p) (checked) and ext(a/p, c) (induction).
    - ext(a, c) == ext(b, c) ext(a, b) for c | b | a: if b == a or c == b
      this is ext(d, d) == id.  Otherwise pick p with b | a/p; then
          ext(a, c) == ext(a/p, c) ext(a, a/p)
                    == ext(b, c) ext(a/p, b) ext(a, a/p)   (induction)
                    == ext(b, c) ext(a, b),
      the last step being the checked triple (a, a/p, b) pushed through the
      well-defined ext(b, c).  The triples (a, a/p, a/p) are instances of
      ext(d, d) == id, so they are not checked either.
    """

    m: int
    value: Mapping[int, PresentedAbelianGroup]
    ext: Mapping[tuple[int, int], IntMatrix]

    def __post_init__(self):
        divs = divisors(self.m)
        if sorted(self.value.keys()) != divs:
            raise ValueError("need exactly one value per divisor of m")
        full = dict(self.ext)
        for big in divs:
            src = self.value[big]
            identity = IntMatrix.identity(src.n_generators)
            for small in divisors(big):
                mat = full.setdefault((big, small), identity if small == big else None)
                if mat is None:
                    raise ValueError(f"missing restriction {big} -> {small}")
                if (mat.rows, mat.cols) != (self.value[small].n_generators, src.n_generators):
                    raise ValueError(f"restriction {big} -> {small} has wrong shape")
            if (big, big) in self.ext and not src.relations_contain(self.ext[(big, big)] + (-identity)):
                raise ValueError(f"restriction {big} -> {big} is not the identity")
        for a in divs:
            for p in factorize(a).primes:
                b = a // p
                step = full[(a, b)]
                if not self.value[b].relations_contain(step @ self.value[a].relations):
                    raise ValueError(f"restriction {a} -> {b} not well defined")
                for c in divisors(b)[:-1]:
                    if not self.value[c].relations_contain(full[(a, c)] + (-(full[(b, c)] @ step))):
                        raise ValueError(f"restrictions not functorial along {a} -> {b} -> {c}")
        object.__setattr__(self, "ext", full)

    def restriction(self, d_big: int, d_small: int) -> IntMatrix:
        return self.ext[(d_big, d_small)]


def cyclic_subgroup_mackey(m: int, orders: Mapping[int, int]) -> CyclicMackeyData:
    """Cyclic Mackey data: value(d) = Z/orders[d], restrictions inclusions.

    Every value is presented on one generator, and the restriction from big
    to small | big is multiplication by orders[small] // orders[big], the
    inclusion of Z/orders[big] into Z/orders[small]; so orders[big] must
    divide orders[small].  The K_1 groups of the subfields of F_64/F_2:

    >>> M = cyclic_subgroup_mackey(6, {d: 2 ** (6 // d) - 1 for d in (1, 2, 3, 6)})
    >>> M.restriction(3, 1).data
    ((21,),)
    """
    ext = {}
    for big in orders:
        for small in orders:
            if big % small == 0 and big != small:
                if orders[big] < 1 or orders[small] % orders[big]:
                    raise ValueError(f"order {orders[big]} at level {big} does not divide "
                                     f"order {orders[small]} at level {small}")
                ext[(big, small)] = IntMatrix.from_rows([[orders[small] // orders[big]]])
    return CyclicMackeyData(m, {d: PresentedAbelianGroup.cyclic(n) for d, n in orders.items()}, ext)


def _cech_complex(labels, term_of, map_between) -> BoundedComplex:
    """Cochain complex indexed by subsets of labels, degrees -len(labels)..0.

    term_of(S) gives the presented group attached to the subset S (a sorted
    tuple); map_between(S, T) the generator matrix for dropping one label,
    T = S minus one element.  The component sign is (-1)^j where j is the
    1-based position of the dropped label in sorted(S).
    """
    labels = tuple(sorted(labels))
    n = len(labels)
    subsets_by_size = [list(itertools.combinations(labels, size)) for size in range(n, -1, -1)]
    by_degree = [[term_of(S) for S in subsets] for subsets in subsets_by_size]
    terms = tuple(PresentedAbelianGroup.direct_sum(*groups) if len(groups) > 1 else groups[0]
                  for groups in by_degree)
    diffs = []
    for sources, targets in zip(subsets_by_size, subsets_by_size[1:]):
        grid = []
        for T in targets:
            row = []
            for S in sources:
                if set(T) <= set(S):
                    j = next(i for i, x in enumerate(S, 1) if x not in T)
                    block = map_between(S, T)
                    row.append(block if j % 2 == 0 else -block)
                else:
                    row.append(IntMatrix.zero(term_of(T).n_generators, term_of(S).n_generators))
            grid.append(row)
        diffs.append(IntMatrix.assemble(grid))
    return BoundedComplex(-n, terms, tuple(diffs))


@lru_cache(maxsize=1)
def moore_cochain_complex(M: CyclicMackeyData) -> BoundedComplex:
    """Cellular cochain complex of the Moore object, degrees -l..0.

    l is the number of distinct primes of m; the subset S of primes
    contributes value(prod(S)) in degree -|S|, and the differentials are
    alternating sums of restrictions.

    The last complex is kept, so asking bredon_cohomology for every degree
    of one datum builds and validates it once.  Mackey data are frozen and
    compare by identity, so the cache key is the datum itself.
    """
    primes = factorize(M.m).primes
    return _cech_complex(
        primes,
        lambda S: M.value[prod(S)],
        lambda S, T: M.restriction(prod(S), prod(T)),
    )


def bredon_cohomology(M: CyclicMackeyData, s: int) -> FgAbelianGroup:
    """H^s of the Moore cochain complex; s must lie in [-l, 0]."""
    l = factorize(M.m).num_distinct_primes
    if not -l <= s <= 0:
        raise ValueError(f"degree {s} outside [-{l}, 0]")
    return cohomology(moore_cochain_complex(M), s)


def h0_fixed_point_oracle(M: CyclicMackeyData) -> FgAbelianGroup:
    """Closed form for H^0: value(1) modulo the images of all prime-level
    restrictions, computed as a single cokernel."""
    bottom = M.value[1]
    stacked = bottom.relations
    for p in factorize(M.m).primes:
        stacked = stacked.hstack(M.restriction(p, 1))
    return PresentedAbelianGroup(bottom.n_generators, stacked).normal_form()


def cyclic_fixed_point_mackey(mod: int, u: int, m: int) -> CyclicMackeyData:
    """Kernel-filtration Mackey data on A = Z/mod for a unit u with u^m = 1.

    value(d) is the kernel of multiplication by u^(m/d) - 1 on A, i.e. the
    cyclic subgroup of order gcd(u^(m/d) - 1, mod), presented on its natural
    generator; restrictions are the subgroup inclusions.
    """
    if mod < 1:
        raise ValueError("modulus must be positive")
    if gcd(u, mod) != 1:
        raise ValueError(f"{u} is not a unit mod {mod}")
    if pow(u, m, mod) != 1:
        raise ValueError(f"u^m != 1 (ord(u) = {multiplicative_order(u, mod)} does not divide {m})")
    return cyclic_subgroup_mackey(
        m, {d: gcd(pow(u, m // d, mod) - 1, mod) if mod > 1 else 1 for d in divisors(m)}
    )


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

    def gen_of(S) -> int:
        # intersection of the subgroups indexed by S is generated by the lcm
        return lcm(*(ds[i] for i in S))

    def term_of(S):
        return PresentedAbelianGroup.cyclic(mod // gen_of(S))

    def map_between(S, T):
        return IntMatrix.from_rows([[gen_of(S) // gen_of(T)]])

    return _cech_complex(range(len(ds)), term_of, map_between)


def cech_h0_oracle(mod: int, subgroup_gens) -> FgAbelianGroup:
    """Z/mod modulo the join of the given subgroups: cyclic of order
    gcd(mod, g_1, ..., g_k)."""
    return FgAbelianGroup.cyclic(gcd(mod, *(int(x) for x in subgroup_gens)))
