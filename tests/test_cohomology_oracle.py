"""Element-level oracle for cohomology of small finite complexes.

Each term is realized as an explicit finite abelian group of tuples, the
differentials act on elements, and H = ker/im is computed by enumerating
elements and coset orders.  The multiset of element orders determines a
finite abelian group up to isomorphism, so comparing it against the
invariant-factor answer checks the structure, not just the order.
"""

import itertools
import random
from collections import Counter
from math import lcm, prod

from genrandom import mat_vec, random_finite_complex
from qlverify.abelian import FgAbelianGroup, cohomology


class ExplicitTerm:
    """The direct sum of the Z/d for the term orders d, as tuples."""

    def __init__(self, orders):
        assert all(d > 0 for d in orders), "finite terms only"
        self.mods = orders

    def project(self, x):
        """Generator-coordinate vector -> element tuple."""
        return tuple(v % d for v, d in zip(x, self.mods))

    def lift(self, elem):
        """Element tuple -> one generator-coordinate representative."""
        return elem

    def elements(self):
        return itertools.product(*[range(d) for d in self.mods])

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.mods))

    def zero(self):
        return tuple(0 for _ in self.mods)


def element_order_multiset(rank0_group: FgAbelianGroup) -> Counter:
    counts = Counter()
    for combo in itertools.product(*[range(d) for d in rank0_group.invariant_factors]):
        counts[lcm(1, *(d // __import__("math").gcd(x, d)
                        for x, d in zip(combo, rank0_group.invariant_factors)))] += 1
    return counts


def brute_force_cohomology_orders(C, i):
    """Multiset of element orders of H^i(C), computed on explicit elements."""
    src = ExplicitTerm(C.term(i))
    kernel = []
    if i < C.hi:
        tgt = ExplicitTerm(C.term(i + 1))
        d = C.differentials[i - C.lo]
        for elem in src.elements():
            if tgt.project(mat_vec(d, src.lift(elem))) == tgt.zero():
                kernel.append(elem)
    else:
        kernel = list(src.elements())
    image = {src.zero()}
    if i > C.lo:
        prev = ExplicitTerm(C.term(i - 1))
        d_prev = C.differentials[i - 1 - C.lo]
        image = {src.project(mat_vec(d_prev, prev.lift(e))) for e in prev.elements()}
    counts = Counter()
    for k in kernel:
        acc = k
        order = 1
        while acc not in image:
            acc = src.add(acc, k)
            order += 1
        counts[order] += 1
    assert counts.total() % len(image) == 0
    # each coset of the image is hit |image| times
    return Counter({o: c // len(image) for o, c in counts.items()})


def test_cohomology_matches_element_level_oracle():
    rng = random.Random(2718281828)
    checked = 0
    while checked < 60:
        C = random_finite_complex(rng)
        sizes = [prod(C.term(i)) for i in C.degrees]
        if any(s > 150 for s in sizes):
            continue
        for i in C.degrees:
            h = cohomology(C, i)
            assert brute_force_cohomology_orders(C, i) == element_order_multiset(h), (
                C, i, str(h),
            )
        checked += 1
