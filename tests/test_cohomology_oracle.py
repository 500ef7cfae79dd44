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
from fractions import Fraction
from math import lcm

from genrandom import mat_vec, random_finite_complex
from qlverify.abelian import FgAbelianGroup, cohomology, smith_normal_form


def unimodular_inverse(U):
    """Exact inverse of a unimodular integer matrix via Fraction elimination."""
    n = U.rows
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(U.data)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    out = [[a[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


class ExplicitTerm:
    """Z^n / relations as tuples in prod(Z/d_i), via a Smith-normal iso."""

    def __init__(self, presented):
        self.n = presented.n_generators
        U, D, _ = smith_normal_form(presented.relations)
        diag = [abs(D.data[i][i]) for i in range(min(D.rows, D.cols))]
        diag += [0] * (self.n - len(diag))
        assert all(d > 0 for d in diag), "finite terms only"
        self.mods = diag
        self.U = U
        self.Uinv = unimodular_inverse(U)

    def project(self, x):
        """Generator-coordinate vector -> element tuple."""
        ux = mat_vec(self.U, x)
        return tuple(v % d for v, d in zip(ux, self.mods))

    def lift(self, elem):
        """Element tuple -> one generator-coordinate representative."""
        return tuple(
            sum(self.Uinv[i][j] * elem[j] for j in range(self.n)) for i in range(self.n)
        )

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
        sizes = [C.term(i).normal_form().order() for i in C.degrees]
        if any(s > 150 for s in sizes):
            continue
        for i in C.degrees:
            h = cohomology(C, i)
            assert brute_force_cohomology_orders(C, i) == element_order_multiset(h), (
                C, i, str(h),
            )
        checked += 1
