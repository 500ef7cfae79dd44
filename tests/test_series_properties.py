"""The exp/log round trip of truncated L-series for levels 1..12, by
hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qlverify.curves import TruncatedLSeries  # noqa: E402
from qlverify.cyclotomic import CyclotomicNumber  # noqa: E402
from qlverify.numtheory import euler_phi  # noqa: E402

COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def log_sums(draw):
    """A level 1..12 and 1..8 elements of Q(zeta_level)."""
    m = draw(st.integers(1, 12))
    phi = euler_phi(m)
    vectors = st.lists(COEFF, min_size=phi, max_size=phi)
    return m, [CyclotomicNumber(m, v) for v in draw(st.lists(vectors, min_size=1, max_size=8))]


@settings(max_examples=60, deadline=None)
@given(log_sums())
def test_log_sums_inverts_from_log_sums(case):
    m, sums = case
    series = TruncatedLSeries.from_log_sums(m, sums)
    assert series.order == len(sums)
    assert series.log_sums() == sums
