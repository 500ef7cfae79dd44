"""Smith normal form and column-span membership on small integer matrices,
by hypothesis."""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from genrandom import mat_vec  # noqa: E402
from qlverify.abelian import (  # noqa: E402
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    in_column_span,
    integer_kernel,
    smith_normal_form,
    solve_integer,
)

ENTRY = st.integers(-30, 30)
PROPERTY = settings(max_examples=80, deadline=None)


@st.composite
def matrices(draw, max_dim=5):
    """A rows x cols integer matrix with 0 <= rows, cols <= max_dim; half of
    them are products through a narrower inner dimension, so rank drops."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))

    def block(r, c):
        entries = draw(st.lists(st.lists(ENTRY, min_size=c, max_size=c), min_size=r, max_size=r))
        return IntMatrix.from_rows(entries, c)

    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        return block(rows, inner) @ block(inner, cols)
    return block(rows, cols)


def det(M: IntMatrix) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in M.data]
    out = Fraction(1)
    for k in range(M.rows):
        piv = next((i for i in range(k, M.rows) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, M.rows):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


@PROPERTY
@given(matrices())
def test_snf_transforms_m_into_d(M):
    U, D, V = smith_normal_form(M)
    assert (U @ M @ V).data == D.data


@PROPERTY
@given(matrices())
def test_snf_transforms_are_unimodular(M):
    U, _, V = smith_normal_form(M)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


@PROPERTY
@given(matrices())
def test_snf_diagonal_is_a_divisibility_chain(M):
    _, D, _ = smith_normal_form(M)
    assert all(D.data[i][j] == 0 for i in range(D.rows) for j in range(D.cols) if i != j)
    diag = [D.data[i][i] for i in range(min(D.rows, D.cols))]
    assert all(d >= 0 for d in diag)
    # d_1 | d_2 | ... with the zeros last, since 0 divides only 0
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


@PROPERTY
@given(matrices(), st.data())
def test_images_are_in_the_column_span(M, data):
    y = mat_vec(M, data.draw(st.lists(ENTRY, min_size=M.cols, max_size=M.cols)))
    assert in_column_span(M, y)
    assert mat_vec(M, solve_integer(M, y)) == y


def minors(M: IntMatrix, k: int):
    """Every k x k minor of M, by the Leibniz formula; the 0 x 0 minor is 1."""
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            yield sum(
                (-1) ** sum(p[a] > p[b] for a, b in combinations(range(k), 2))
                * prod(M.data[r][cols[p[i]]] for i, r in enumerate(rows))
                for p in permutations(range(k))
            )


def determinantal_divisors(M: IntMatrix) -> list[int]:
    """d_0 = 1, d_1, ..., d_min(rows, cols): d_k is the gcd of the k x k minors."""
    return [gcd(*minors(M, k)) for k in range(min(M.rows, M.cols) + 1)]


def rank(M: IntMatrix) -> int:
    return max(k for k, d in enumerate(determinantal_divisors(M)) if d)


@PROPERTY
@given(matrices(max_dim=4))
def test_normal_form_matches_determinantal_divisors(M):
    # the invariant factors of Z^rows / (column span) are d_k / d_(k-1)
    d = determinantal_divisors(M)
    r = rank(M)
    factors = tuple(d[k] // d[k - 1] for k in range(1, r + 1))
    expected = FgAbelianGroup(M.rows - r, tuple(f for f in factors if f > 1))
    assert cokernel(M.data) == expected


@PROPERTY
@given(matrices(max_dim=4))
def test_integer_kernel_is_a_saturated_basis(M):
    K = integer_kernel(M)
    assert (K.rows, K.cols) == (M.cols, M.cols - rank(M))
    assert all(sum(M.data[i][t] * K.data[t][j] for t in range(M.cols)) == 0
               for i in range(M.rows) for j in range(K.cols))
    # the maximal minors of a basis of a saturated lattice are coprime
    assert gcd(*minors(K, K.cols)) == 1
