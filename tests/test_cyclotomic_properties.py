"""Field-axiom properties of Q(zeta_m) for levels 1..40, by hypothesis."""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qlverify.cyclotomic import CyclotomicNumber  # noqa: E402
from qlverify.numtheory import euler_phi  # noqa: E402

COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=4)
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def elements(draw, count):
    """A level 1..40 and count elements of Q(zeta_level)."""
    m = draw(st.integers(1, 40))
    phi = euler_phi(m)
    vectors = st.lists(COEFF, min_size=phi, max_size=phi)
    return m, [CyclotomicNumber(m, draw(vectors)) for _ in range(count)]


def canonical(z):
    return z.den > 0 and gcd(*z.num, z.den) == 1 and len(z.num) == euler_phi(z.level)


@PROPERTY
@given(elements(3))
def test_multiplication_associative(case):
    _, (a, b, c) = case
    lhs = (a * b) * c
    assert lhs == a * (b * c)
    assert canonical(lhs)


@PROPERTY
@given(elements(3))
def test_multiplication_distributes_over_addition(case):
    _, (a, b, c) = case
    lhs = a * (b + c)
    assert lhs == a * b + a * c
    assert canonical(lhs)


@PROPERTY
@given(elements(1), st.integers(-10**6, 10**6))
def test_integer_sums_and_differences_match_the_rational_element(case, n):
    m, (x,) = case
    r = CyclotomicNumber.rational(m, n)
    for got, want in ((x + n, x + r), (n + x, r + x), (x - n, x - r), (n - x, r - x)):
        assert got == want
        assert canonical(got)


@PROPERTY
@given(elements(1))
def test_inverse_is_two_sided(case):
    m, (z,) = case
    assume(not z.is_zero)
    inv = z.inverse()
    assert z * inv == CyclotomicNumber.rational(m, 1)
    assert canonical(inv)


@PROPERTY
@given(elements(2), st.data())
def test_galois_conjugation_multiplicative(case, data):
    m, (a, b) = case
    j = data.draw(st.sampled_from([j for j in range(1, m + 1) if gcd(j, m) == 1]))
    assert (a * b).galois_conjugate(j) == a.galois_conjugate(j) * b.galois_conjugate(j)
