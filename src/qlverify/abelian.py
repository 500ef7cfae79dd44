"""Finitely generated abelian groups through integer matrices.

A group is given either in invariant-factor form (FgAbelianGroup) or by a
presentation (generators plus an integer relation matrix whose columns are
the relators).  Smith normal form over Z does all the work: normal forms,
kernels, cokernels, and the cohomology of bounded cochain complexes of
presented groups.

One elimination routine, `_smith`, does every reduction, and it carries
only the transforms its caller reads: a normal form reads the diagonal
alone and carries neither transform, a kernel carries only the column
transform V, and a solve carries both U and V.  `smith_normal_form` is the
public wrapper that returns all three as (U, D, V).

One Smith reduction per lattice: `_solve` reduces a matrix once and reads
off both an integer solution for a whole block of target columns and a
basis of the kernel.  solve_integer, integer_kernel, relations_contain and
cohomology all go through it, so no lattice is reduced once per column.
Two shortcuts skip reductions.  In the top degree of a complex the kernel
is everything, so cohomology there is the one normal form.  And when
every relation column has at most one nonzero entry (a diagonal
presentation, such as every term of a Moore or Cech complex, with its
columns in any order or repeated), membership is divisibility of each row
by the gcd of its relation row, so building those complexes makes no Smith
reduction.

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


def _solve(M: IntMatrix, B: IntMatrix) -> tuple[IntMatrix | None, IntMatrix]:
    """One Smith reduction of M, two answers: an integer X with M X = B
    (None when some column of B has no integer preimage) and a basis of
    ker(M: Z^cols -> Z^rows) as matrix columns."""
    n, m = M.rows, M.cols
    # U only when there is a right-hand side to carry through it
    A, U, V = [list(r) for r in M.data], _identity_rows(n) if B.cols else None, _identity_rows(m)
    _smith(A, U, V)
    # the nonzero diagonal entries come first
    diag = [A[i][i] for i in range(min(n, m))]
    rank = sum(1 for d in diag if d)
    kernel = IntMatrix(m, m - rank, tuple(tuple(row[rank:]) for row in V))
    if U is None:
        return IntMatrix.zero(m, 0), kernel
    C = _product(U, B.data, B.cols)
    if any(any(row) for row in C[rank:]) or any(x % diag[i] for i in range(rank) for x in C[i]):
        return None, kernel
    Y = [tuple(x // diag[i] for x in C[i]) for i in range(rank)]
    Y += [(0,) * B.cols] * (m - rank)
    return IntMatrix(m, B.cols, _product(V, Y, B.cols)), kernel


def solve_integer(M, target) -> tuple[int, ...]:
    """One integer solution x of M x = target, or raise NoIntegerSolution."""
    M = _coerce(M)
    # a target of the wrong length fails the shape check of IntMatrix
    X, _ = _solve(M, IntMatrix(M.rows, 1, tuple((int(x),) for x in target)))
    if X is None:
        raise NoIntegerSolution
    return X.col(0)


def in_column_span(M, target) -> bool:
    try:
        solve_integer(M, target)
        return True
    except NoIntegerSolution:
        return False


def integer_kernel(M) -> IntMatrix:
    """Basis of the lattice ker(M: Z^cols -> Z^rows), as matrix columns."""
    M = _coerce(M)
    return _solve(M, IntMatrix.zero(M.rows, 0))[1]


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
        return PresentedAbelianGroup.diagonal(orders).normal_form()

    def __str__(self):
        pieces = ["Z"] * self.rank + [f"Z/{d}" for d in self.invariant_factors]
        return " x ".join(pieces) if pieces else "0"

    def as_json(self) -> dict:
        return {"rank": self.rank, "invariant_factors": list(self.invariant_factors)}


@dataclass(frozen=True)
class PresentedAbelianGroup:
    """Z^n modulo the column span of the relation matrix, one row per
    generator, so n is relations.rows."""

    relations: IntMatrix

    @property
    def n_generators(self) -> int:
        return self.relations.rows

    @classmethod
    def diagonal(cls, orders) -> "PresentedAbelianGroup":
        """Z^len(orders) modulo orders[i] e_i: the direct sum of the cyclic
        groups Z/orders[i], where an order of 0 gives Z and no relation.

        >>> G = PresentedAbelianGroup.diagonal([4, 0, 6])
        >>> G.relations.data
        ((4, 0), (0, 0), (0, 6))
        >>> print(G.normal_form())
        Z x Z/2 x Z/12
        """
        orders = [int(n) for n in orders]
        if any(n < 0 for n in orders):
            raise ValueError("nonnegative orders required")
        cols = [j for j, n in enumerate(orders) if n]
        return cls(IntMatrix(len(orders), len(cols), tuple(
            tuple(n if i == j else 0 for j in cols) for i, n in enumerate(orders))))

    def normal_form(self) -> FgAbelianGroup:
        A = [list(r) for r in self.relations.data]
        _smith(A)
        nonzero = [abs(A[i][i]) for i in range(min(self.relations.rows, self.relations.cols)) if A[i][i]]
        return FgAbelianGroup(
            self.n_generators - len(nonzero),
            tuple(sorted(d for d in nonzero if d >= 2)),
        )

    def relations_contain(self, mat: IntMatrix) -> bool:
        """Whether every column of mat lies in the relation lattice."""
        rel = self.relations.data
        if all(sum(map(bool, col)) <= 1 for col in zip(*rel)):
            # each relator lies on one axis: the lattice is the sum of the
            # gcd(row i) e_i, so membership is divisibility row by row
            gcds = [gcd(*row) for row in rel]
            return all(x % g == 0 if g else x == 0 for g, targets in zip(gcds, mat.data) for x in targets)
        return _solve(self.relations, mat)[0] is not None


# ---------------------------------------------------------------------------
# bounded cochain complexes


@dataclass(frozen=True)
class BoundedComplex:
    """Cochain complex of presented groups in degrees lo..lo+len(terms)-1.

    differentials[i] maps terms[i] to terms[i+1] and is expressed on
    generators.  Construction checks that each differential carries source
    relations into target relations and that consecutive differentials
    compose to zero in the quotient.
    """

    lo: int
    terms: tuple[PresentedAbelianGroup, ...]
    differentials: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.terms) - 1, 0):
            raise ValueError("need exactly one differential between consecutive terms")
        for i, d in enumerate(self.differentials):
            src, tgt = self.terms[i], self.terms[i + 1]
            if (d.rows, d.cols) != (tgt.n_generators, src.n_generators):
                raise ValueError(f"differential {i} has wrong shape")
            if not tgt.relations_contain(d @ src.relations):
                raise ValueError(f"differential {i} not well defined on presentations")
        for i in range(len(self.differentials) - 1):
            if not self.terms[i + 2].relations_contain(self.differentials[i + 1] @ self.differentials[i]):
                raise ValueError(f"d^2 != 0 between degrees {self.lo + i} and {self.lo + i + 2}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    @property
    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def term(self, i: int) -> PresentedAbelianGroup:
        if not self.lo <= i <= self.hi:
            raise ValueError(f"degree {i} outside [{self.lo}, {self.hi}]")
        return self.terms[i - self.lo]


def cohomology(C: BoundedComplex, i: int) -> FgAbelianGroup:
    """H^i(C) = ker(d^i) / im(d^{i-1}), computed in the quotient groups."""
    src = C.term(i)
    # image of d^{i-1} plus source relations
    image = src.relations
    if i > C.lo:
        image = image.hstack(C.differentials[i - 1 - C.lo])
    if i == C.hi:
        # d^i = 0: the kernel is all of Z^n, so the image is already
        # expressed in the kernel generators
        return PresentedAbelianGroup(image).normal_form()
    # kernel of the induced map: x with d^i(x) in the relation span of the target
    d = C.differentials[i - C.lo]
    ker = integer_kernel(d.hstack(C.term(i + 1).relations))
    gens = IntMatrix(src.n_generators, ker.cols, ker.data[:src.n_generators])
    # the image in terms of the kernel generators
    X, gens_kernel = _solve(gens, image)
    if X is None:
        raise NoIntegerSolution
    return PresentedAbelianGroup(gens_kernel.hstack(X)).normal_form()


def euler_number(C: BoundedComplex) -> Fraction:
    """Alternating product of term orders, prod_i #(term_i)^(-1)^i.

    The exponent uses the literal degree label, so a term in degree -1
    contributes its order inverted.  Every term must be finite.
    """
    result = Fraction(1)
    for i in C.degrees:
        g = C.term(i).normal_form()
        if not g.is_finite:
            raise ValueError(f"term in degree {i} is infinite")
        result *= Fraction(g.order()) if i % 2 == 0 else Fraction(1, g.order())
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
