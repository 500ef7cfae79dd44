"""Naive subgroup oracles for the number-field layer: every subgroup of
(Z/N)^x by closing generator tuples under multiplication, and cyclicity of
the quotient by element orders.  They list units but evaluate no
character, so they are independent of the package's kernel-based answers
(qlverify.dirichlet.real_cyclic_fields and the kernel filters of the
verifiers), which they are checked against."""

from __future__ import annotations

import itertools
from math import gcd

from qlverify.dirichlet import unit_group, units
from qlverify.numtheory import euler_phi


def subgroup_generated(N: int, gens) -> frozenset[int]:
    """The closure of {1} under multiplication by gens, breadth first."""
    out = {1 % N}
    frontier = [1 % N]
    gens = [g % N for g in gens]
    if any(gcd(g, N) != 1 for g in gens):
        raise ValueError("generators must be units")
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = (a * g) % N
            if b not in out:
                out.add(b)
                frontier.append(b)
    return frozenset(out)


def all_subgroups(N: int) -> tuple[frozenset[int], ...]:
    """Every subgroup of (Z/N)^x, ordered by (size, sorted residues).

    A subgroup of a finite abelian group needs no more generators than the
    group, so generator tuples up to the length of unit_group(N) reach
    every one."""
    us = units(N)
    rank = max(len(unit_group(N)), 1)
    found = {subgroup_generated(N, [])}
    for size in range(1, rank + 1):
        for combo in itertools.combinations_with_replacement(us, size):
            found.add(subgroup_generated(N, combo))
    return tuple(sorted(found, key=lambda H: (len(H), sorted(H))))


def quotient_is_cyclic(N: int, H) -> bool:
    """Some unit has order [(Z/N)^x : H] in the quotient by H."""
    index = euler_phi(N) // len(H)
    for a in units(N):
        t, x = 1, a
        while x not in H:
            x, t = (x * a) % N, t + 1
        if t == index:
            return True
    return False
