"""Truncated L-series for levels 1..12, by hypothesis: the exp/log round
trip, and exp, product and inverse against the naive one-operation-at-a-
time oracles of naive_series, on non-integral coefficients, zero
coefficients and order 0."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from naive_series import naive_from_log_sums, naive_inverse, naive_mul  # noqa: E402
from qlverify.curves import TruncatedLSeries  # noqa: E402
from qlverify.cyclotomic import CyclotomicNumber  # noqa: E402
from qlverify.numtheory import euler_phi  # noqa: E402

COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def elements(m: int):
    """Elements of Q(zeta_m), zero one time in four."""
    phi = euler_phi(m)
    vectors = st.lists(COEFF, min_size=phi, max_size=phi)
    return st.one_of(vectors, vectors, vectors, st.just([0] * phi)).map(lambda v: CyclotomicNumber(m, v))


@st.composite
def log_sums(draw, min_size=1):
    """A level 1..12 and min_size..8 elements of Q(zeta_level)."""
    m = draw(st.integers(1, 12))
    return m, draw(st.lists(elements(m), min_size=min_size, max_size=8))


@st.composite
def series_pairs(draw):
    """Two series of one level 1..12 and one order 0..7."""
    m = draw(st.integers(1, 12))
    order = draw(st.integers(0, 7))
    coeffs = st.lists(elements(m), min_size=order + 1, max_size=order + 1).map(tuple)
    return TruncatedLSeries(m, order, draw(coeffs)), TruncatedLSeries(m, order, draw(coeffs))


@settings(max_examples=60, deadline=None)
@given(log_sums())
def test_log_sums_inverts_from_log_sums(case):
    m, sums = case
    series = TruncatedLSeries.from_log_sums(m, sums)
    assert series.order == len(sums)
    assert series.log_sums() == sums


@settings(max_examples=60, deadline=None)
@given(log_sums(min_size=0), st.data())
def test_from_log_sums_matches_the_naive_recurrence(case, data):
    m, sums = case
    # some sums as plain integers, which from_log_sums coerces
    sums = [data.draw(st.sampled_from([s, s.num[0]])) if s.is_rational and s.den == 1 else s for s in sums]
    series = TruncatedLSeries.from_log_sums(m, sums)
    assert series.coeffs == naive_from_log_sums(m, sums)


@settings(max_examples=60, deadline=None)
@given(series_pairs())
def test_product_and_inverse_match_the_naive_ones(pair):
    a, b = pair
    assert (a * b).coeffs == naive_mul(a.coeffs, b.coeffs)
    if a.coeffs[0].is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a.inverse().coeffs == naive_inverse(a.coeffs)
