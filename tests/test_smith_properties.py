"""Smith normal form and column-span membership on small integer matrices,
by hypothesis."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from genrandom import mat_vec  # noqa: E402
from qlverify.abelian import IntMatrix, in_column_span, smith_normal_form, solve_integer  # noqa: E402

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
