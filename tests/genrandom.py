"""Seeded random generators for property tests: valid bounded complexes of
direct sums of cyclic groups with dense differentials, and random Mackey
instances.  Also mat_vec, the matrix-vector product the tests share, and
diagonal, the relation matrix of a direct sum of cyclic groups."""

from __future__ import annotations

import random
from math import gcd

from qlverify.abelian import BoundedComplex, IntMatrix


def mat_vec(M: IntMatrix, vec) -> tuple[int, ...]:
    """M times the column vector vec, as a matrix product."""
    vec = tuple(vec)
    return (M @ IntMatrix(len(vec), 1, tuple((int(x),) for x in vec))).col(0)


def diagonal(orders) -> IntMatrix:
    """The relation columns orders[i] e_i of the direct sum of the cyclic
    groups Z/orders[i], one row per summand; an order of 0 gives Z and no
    column."""
    cols = [j for j, n in enumerate(orders) if n]
    return IntMatrix(len(orders), len(cols), tuple(
        tuple(n if i == j else 0 for j in cols) for i, n in enumerate(orders)))


def random_lattice_automorphism(rng: random.Random, orders, steps: int = 6):
    """(Q, Q_inverse): a product of elementary row operations
    row_i += c * (o_i / gcd(o_i, o_j)) * row_j, o = orders, each of which
    maps o_j e_j into the lattice of the o_k e_k, and so does its inverse.
    An operation with o_i = 0 != o_j would not, and is skipped."""
    n = len(orders)
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    qinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        oi, oj = orders[i], orders[j]
        if oi == 0 and oj != 0:
            continue
        c = rng.randint(-2, 2) * (oi // gcd(oi, oj) if oi else 1)
        # row_i += c * row_j on Q; the inverse op accumulates on the right of Q^-1
        for t in range(n):
            q[i][t] += c * q[j][t]
        for t in range(n):
            qinv[t][j] -= c * qinv[t][i]
    return IntMatrix.from_rows(q, n), IntMatrix.from_rows(qinv, n)


def _chain_multipliers(rng: random.Random, orders):
    """Valid chain maps t_i: Z/orders[i] -> Z/orders[i+1] with t_(i+1) t_i = 0,
    where Z/0 is Z."""
    ts = []
    prev_t = 0  # the zero map composes with anything
    for a, b in zip(orders, orders[1:]):
        # t a (well-definedness) and t prev_t (d^2 = 0) must vanish in Z/b,
        # so t must kill g = gcd(a, prev_t)
        g = gcd(a, prev_t)
        must = b // gcd(b, g) if b else int(g == 0)
        t = must * rng.randint(0, 3)
        ts.append(t)
        prev_t = t
    return ts


def random_finite_complex(rng: random.Random) -> BoundedComplex:
    """A disguised random_complex whose cyclic summands have orders 1..24."""
    return random_complex(rng, lambda: rng.randint(1, 24))


def random_complex(rng: random.Random, draw_order, disguise: bool = True) -> BoundedComplex:
    """Direct sums of valid cyclic chains, each summand Z/draw_order() (an
    order of 0 gives Z), padded to a common degree range, then, unless
    disguise is false, disguised by automorphisms of each term, so that the
    terms stay diagonal and the differentials become dense."""
    lo = rng.randint(-3, 0)
    length = rng.randint(1, 4)
    n_chains = rng.randint(1, 3)
    chains = []
    for _ in range(n_chains):
        start = rng.randint(0, length - 1)
        span = rng.randint(1, length - start)
        orders = [draw_order() for _ in range(span)]
        chains.append((start, orders, _chain_multipliers(rng, orders)))
    # assemble blockwise per degree
    terms = []
    diffs = []
    for pos in range(length):
        terms.append(tuple(
            orders[pos - start] for start, orders, _ in chains if start <= pos < start + len(orders)))
    for pos in range(length - 1):
        src_idx = [c for c in range(n_chains)
                   if chains[c][0] <= pos < chains[c][0] + len(chains[c][1])]
        tgt_idx = [c for c in range(n_chains)
                   if chains[c][0] <= pos + 1 < chains[c][0] + len(chains[c][1])]
        rows = []
        for tc in tgt_idx:
            row = []
            for sc in src_idx:
                if sc == tc:
                    start, orders, ts = chains[sc]
                    row.append(ts[pos - start])
                else:
                    row.append(0)
            rows.append(row)
        diffs.append(IntMatrix.from_rows(rows, len(src_idx)))
    complex_ = BoundedComplex(lo, tuple(terms), tuple(diffs))
    return _disguise(rng, complex_) if disguise else complex_


def _disguise(rng: random.Random, C: BoundedComplex) -> BoundedComplex:
    """The same complex up to isomorphism: d^i becomes Q_(i+1) d^i Q_i^-1
    for random automorphisms Q_i of the terms."""
    qs = [random_lattice_automorphism(rng, C.term(i)) for i in C.degrees]
    new_diffs = [qs[i + 1][0] @ d @ qs[i][1] for i, d in enumerate(C.differentials)]
    return BoundedComplex(C.lo, C.orders, tuple(new_diffs))
