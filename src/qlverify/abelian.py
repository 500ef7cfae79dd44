"""Finitely generated abelian groups through integer matrices.

A group is kept in invariant-factor form (FgAbelianGroup).  Every group the
package builds from a presentation, a direct sum, a cyclotomic quotient or
a cohomology group, goes through one function: `cokernel(rows)` is Z^n
modulo the column span of an integer matrix with n rows, one per
generator, read off the diagonal of its Smith normal form.

One elimination routine, `_smith`, does every reduction, and it carries
only the transforms its caller reads: a cokernel reads the diagonal alone
and carries neither transform, integer_kernel carries only the column
transform V, and solve_integer carries both U and V for its one target.
`smith_normal_form` is the public wrapper that returns all three as
(U, D, V).

A bounded complex is its term orders and its differentials: every term is
a direct sum of cyclic groups, so validating one is divisibility of
integers, and building one makes no Smith reduction.  cohomology makes no
kernel or solve reduction at all: one pass of column operations over the
rows of the differential cuts Z^n down to its kernel while rewriting the
image in the kernel basis, and the cokernel of that image is the answer.
In the top degree the kernel is everything and the pass is empty.

All arithmetic is exact on Python integers.  Matrices are small (the
complexes in this package have at most 2^4 blocks), so Smith reduction by
elementary row/column operations with least-absolute-value pivoting is
entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape (rows or cols may be 0)."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data does not match declared shape")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(map(tuple, _identity_rows(n))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(self.data[i] + other.data[i] for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return IntMatrix(self.rows, other.cols, _product(self.data, other.data, other.cols))


def _coerce(M) -> IntMatrix:
    return M if isinstance(M, IntMatrix) else IntMatrix.from_rows(M)


def _product(X, Y, cols: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the product X Y, for X and Y given as sequences of rows and Y
    with `cols` columns (Y may have no rows)."""
    Yt = list(zip(*Y)) if Y else [()] * cols
    return tuple(tuple(sum(map(mul, row, col)) for col in Yt) for row in X)


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith(A: list[list[int]], U: list[list[int]] | None = None, V: list[list[int]] | None = None) -> None:
    """Reduce the integer rows A in place to Smith normal form.

    Every row operation is also applied to U and every column operation to
    V, each only when given, so a caller that reads only the diagonal (or
    only V) carries no transform it does not read.  Started from identities,
    U A0 V = A on return.

    Pivoting always picks a least-absolute-value nonzero entry of the
    remaining block, the first one in row-major order, which keeps entry
    growth tame at these sizes.  Rows above the block are zero from column
    t on, so column operations touch only rows t and below of A.
    """
    n = len(A)
    m = len(A[0]) if A else 0
    for t in range(min(n, m)):
        while True:
            pivot, least = None, 0
            for i in range(t, n):
                row = A[i]
                for j in range(t, m):
                    a = row[j]
                    if a and (pivot is None or abs(a) < least):
                        pivot, least = (i, j), abs(a)
                if least == 1:  # nothing later can be smaller
                    break
            if pivot is None:
                return
            i, j = pivot
            if i != t:
                A[t], A[i] = A[i], A[t]
                if U is not None:
                    U[t], U[i] = U[i], U[t]
            if j != t:
                for r in A[t:]:
                    r[t], r[j] = r[j], r[t]
                if V is not None:
                    for r in V:
                        r[t], r[j] = r[j], r[t]
            if A[t][t] < 0:
                A[t] = [-a for a in A[t]]
                if U is not None:
                    U[t] = [-a for a in U[t]]
            p = A[t][t]
            pivot_row = A[t]
            dirty = False
            for i in range(t + 1, n):  # row_i -= q * row_t
                q = A[i][t] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], pivot_row)]
                    if U is not None:
                        U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, m):  # col_j -= q * col_t
                q = pivot_row[j] // p
                if q:
                    for r in A[t:]:
                        r[j] -= q * r[t]
                    if V is not None:
                        for r in V:
                            r[j] -= q * r[t]
                    dirty = dirty or pivot_row[j] != 0
            if dirty:
                continue
            if p == 1:  # every entry is divisible by the pivot
                break
            # force divisibility of the remaining block by the pivot
            culprit = next((i for i in range(t + 1, n) if any(a % p for a in A[i][t + 1:])), None)
            if culprit is None:
                break
            # add the offending row to the pivot row
            A[t] = [a + b for a, b in zip(A[t], A[culprit])]
            if U is not None:
                U[t] = [a + b for a, b in zip(U[t], U[culprit])]


def smith_normal_form(M) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U @ M @ V = D, D diagonal, d1 | d2 | ...

    >>> _, D, _ = smith_normal_form([[2, 0], [0, 3]])
    >>> D.data
    ((1, 0), (0, 6))
    >>> _, D, _ = smith_normal_form([[4, 6]])
    >>> D.data
    ((2, 0),)
    """
    M = _coerce(M)
    n, m = M.rows, M.cols
    A, U, V = [list(r) for r in M.data], _identity_rows(n), _identity_rows(m)
    _smith(A, U, V)
    return (
        IntMatrix(n, n, tuple(map(tuple, U))),
        IntMatrix(n, m, tuple(map(tuple, A))),
        IntMatrix(m, m, tuple(map(tuple, V))),
    )


class NoIntegerSolution(Exception):
    """Raised when an integer linear system A x = b has no solution."""


def _rank(A: list[list[int]]) -> int:
    """The number of nonzero diagonal entries of rows A in Smith normal
    form; they come first."""
    return sum(1 for i in range(min(len(A), len(A[0]) if A else 0)) if A[i][i])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b), by Euclid on |a| and |b|."""
    r0, r1, u0, u1, v0, v1 = abs(a), abs(b), 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, u0, u1, v0, v1 = r1, r0 - q * r1, u1, u0 - q * u1, v1, v0 - q * v1
    return r0, u0 if a >= 0 else -u0, v0 if b >= 0 else -v0


def solve_integer(M, target) -> tuple[int, ...]:
    """One integer solution x of M x = target, or raise NoIntegerSolution."""
    M = _coerce(M)
    b = [int(x) for x in target]
    if len(b) != M.rows:
        raise ValueError(f"target of length {len(b)} for a matrix with {M.rows} rows")
    A, U, V = [list(r) for r in M.data], _identity_rows(M.rows), _identity_rows(M.cols)
    _smith(A, U, V)
    rank = _rank(A)
    c = [sum(map(mul, row, b)) for row in U]
    if any(c[rank:]) or any(c[i] % A[i][i] for i in range(rank)):
        raise NoIntegerSolution
    y = [c[i] // A[i][i] for i in range(rank)] + [0] * (M.cols - rank)
    return tuple(sum(map(mul, row, y)) for row in V)


def in_column_span(M, target) -> bool:
    try:
        solve_integer(M, target)
        return True
    except NoIntegerSolution:
        return False


def integer_kernel(M) -> IntMatrix:
    """Basis of the lattice ker(M: Z^cols -> Z^rows), as matrix columns."""
    M = _coerce(M)
    A, V = [list(r) for r in M.data], _identity_rows(M.cols)
    _smith(A, V=V)
    rank = _rank(A)
    return IntMatrix(M.cols, M.cols - rank, tuple(tuple(row[rank:]) for row in V))


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True, order=True)
class FgAbelianGroup:
    """Z^rank + Z/d1 + ... + Z/dk with d1 | d2 | ... and every di >= 2."""

    rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise ValueError(f"divisibility chain violated: {fs}")

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    def order(self) -> int:
        if self.rank != 0:
            raise ValueError("infinite group has no order")
        return prod(self.invariant_factors)

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        """Z/n for n >= 1 (n = 1 gives the trivial group), Z for n = 0."""
        if n < 0:
            raise ValueError("nonnegative order required")
        if n == 0:
            return cls(1, ())
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        groups = (self, *others)
        orders = [0] * sum(g.rank for g in groups)
        for g in groups:
            orders.extend(g.invariant_factors)
        return cokernel([[n if i == j else 0 for j in range(len(orders))] for i, n in enumerate(orders)])

    def __str__(self):
        pieces = ["Z"] * self.rank + [f"Z/{d}" for d in self.invariant_factors]
        return " x ".join(pieces) if pieces else "0"


def cokernel(rows) -> FgAbelianGroup:
    """Z^len(rows) modulo the column span of the matrix with these rows, one
    row per generator, in invariant factors.

    >>> print(cokernel([[4, 0], [0, 0], [0, 6]]))
    Z x Z/2 x Z/12
    >>> str(cokernel([])), str(cokernel([(), ()]))
    ('0', 'Z x Z')
    """
    A = [list(r) for r in rows]
    _smith(A)
    rank = _rank(A)
    return FgAbelianGroup(len(A) - rank, tuple(A[i][i] for i in range(rank) if A[i][i] > 1))


# ---------------------------------------------------------------------------
# bounded cochain complexes


@dataclass(frozen=True)
class BoundedComplex:
    """Cochain complex of direct sums of cyclic groups in degrees
    lo..lo+len(orders)-1.

    orders[k] lists the cyclic orders of the degree lo+k term, the direct
    sum of the Z/orders[k][c], where an order of 0 gives Z.
    differentials[k] maps that term to the next one and is expressed on
    the generators.  Construction checks integers only: an entry x from
    Z/a to Z/b is well defined when b divides x a, and consecutive
    differentials compose to zero when each entry of d^(k+1) d^k is
    divisible by the target order of its row.

    >>> C = BoundedComplex(0, ((3,), (15,)), (IntMatrix.from_rows([[5]]),))
    >>> C.term(1), str(cohomology(C, 1))
    ((15,), 'Z/5')
    """

    lo: int
    orders: tuple[tuple[int, ...], ...]
    differentials: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.orders) - 1, 0):
            raise ValueError("need exactly one differential between consecutive terms")
        if any(n < 0 for term in self.orders for n in term):
            raise ValueError("nonnegative orders required")
        for i, d in enumerate(self.differentials):
            src, tgt = self.orders[i], self.orders[i + 1]
            if (d.rows, d.cols) != (len(tgt), len(src)):
                raise ValueError(f"differential {i} has wrong shape")
            # x a is 0 in Z/b, where Z/0 is Z
            if any(x * a % b if b else x * a for b, row in zip(tgt, d.data) for a, x in zip(src, row)):
                raise ValueError(f"differential {i} not well defined on the cyclic summands")
        for i, (d, e) in enumerate(zip(self.differentials, self.differentials[1:])):
            if any(x % b if b else x for b, row in zip(self.orders[i + 2], _product(e.data, d.data, d.cols))
                   for x in row):
                raise ValueError(f"d^2 != 0 between degrees {self.lo + i} and {self.lo + i + 2}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.orders) - 1

    @property
    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def term(self, i: int) -> tuple[int, ...]:
        """The cyclic orders of the degree-i term."""
        if not self.lo <= i <= self.hi:
            raise ValueError(f"degree {i} outside [{self.lo}, {self.hi}]")
        return self.orders[i - self.lo]


def cohomology(C: BoundedComplex, i: int) -> FgAbelianGroup:
    """H^i(C) = ker(d^i) / im(d^(i-1)), computed in the quotient groups.

    The image is spanned by the source relations, s_c e_c for the source
    orders s = C.term(i), and the columns of d^(i-1).  With the target
    orders t = C.term(i + 1), the kernel of d = d^i is
    L = {x : t_j divides (d x)_j for every row j}, and one pass over the
    rows cuts Z^n down to it by column operations (H. Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4).  In the top degree
    d^i = 0, the pass is empty and H^i is the cokernel of the image.

    Invariant: after row j the basis vectors b_c span
    L_j = {x : t_k divides (d x)_k for every k <= j}, each carried as the
    pair (w_c, y_c) with w_c = d b_c and y_c its row of image
    coordinates, so that the image is Y = sum_c b_c y_c.  At row j,
    unimodular merges leave one b_p whose residue r = (w_p)_j is not 0
    mod t_j; a vector sum_c a_c b_c then lies in L_j exactly when
    s = t_j / gcd(r, t_j) divides a_p, so b_p becomes s b_p, or is dropped
    when t_j = 0.  Every column operation is applied inversely to the rows
    y_c, and the image lies in L_j, so its coordinates on the new basis
    are integers: a division of y_p by s that is not exact (or a nonzero
    y_p on a dropped b_p) means some image column has left the kernel, and
    raises NoIntegerSolution.  H^i is the cokernel of the final Y.
    """
    src = C.term(i)
    k = i - C.lo
    prev = C.differentials[k - 1].data if k else ((),) * len(src)
    relators = [c for c, n in enumerate(src) if n]
    # one row per source generator: its relation column, then its row of d^(i-1)
    ys = [[n if c == r else 0 for r in relators] + list(row) for c, (n, row) in enumerate(zip(src, prev))]
    d, orders = (C.differentials[k].data, C.term(i + 1)) if i < C.hi else ((), ())
    ws = [[row[c] for row in d] for c in range(len(src))]
    for j, t in enumerate(orders):
        if t == 1:
            continue
        live = [c for c, w in enumerate(ws) if (w[j] % t if t else w[j])]
        if not live:
            continue
        p = live[0]
        for c in live[1:]:
            wp, wc, yp, yc = ws[p], ws[c], ys[p], ys[c]
            g, u, v = _xgcd(wp[j], wc[j])
            a, b = wp[j] // g, wc[j] // g
            # b_p, b_c -> u b_p + v b_c, a b_c - b b_p (determinant 1)
            ws[p] = [u * x + v * z for x, z in zip(wp, wc)]
            ws[c] = [a * z - b * x for x, z in zip(wp, wc)]
            ys[p] = [a * x + b * z for x, z in zip(yp, yc)]
            ys[c] = [u * z - v * x for x, z in zip(yp, yc)]
        if t:
            s = t // gcd(ws[p][j], t)
            ws[p] = [s * x for x in ws[p]]
            if any(x % s for x in ys[p]):
                raise NoIntegerSolution
            ys[p] = [x // s for x in ys[p]]
        elif any(ys[p]):
            raise NoIntegerSolution
        else:
            del ws[p], ys[p]
    return cokernel(ys)


def euler_number(C: BoundedComplex) -> Fraction:
    """Alternating product of term orders, prod_i #(term_i)^(-1)^i.

    The exponent uses the literal degree label, so a term in degree -1
    contributes its order inverted.  Every term must be finite.
    """
    result = Fraction(1)
    for i in C.degrees:
        order = prod(C.term(i))
        if not order:
            raise ValueError(f"term in degree {i} is infinite")
        result *= order if i % 2 == 0 else Fraction(1, order)
    return result


def euler_number_of_cohomology(C: BoundedComplex) -> Fraction:
    """Alternating product of the orders of H^i(C) over all degrees."""
    result = Fraction(1)
    for i in C.degrees:
        h = cohomology(C, i)
        if not h.is_finite:
            raise ValueError(f"H^{i} is infinite")
        result *= Fraction(h.order()) if i % 2 == 0 else Fraction(1, h.order())
    return result
