"""Naive truncated-series oracles: exp, product and inverse one
CyclotomicNumber operation at a time, each canonicalizing its result.
They return coefficient tuples and share no code with TruncatedLSeries,
which sums each coefficient on integer numerators."""

from __future__ import annotations

from fractions import Fraction

from qlverify.cyclotomic import CyclotomicNumber


def naive_from_log_sums(level: int, sums) -> tuple[CyclotomicNumber, ...]:
    """exp(sum_r sums[r-1] t^r / r) from n c_n = sum_r S_r c_(n-r)."""
    sums = [s if isinstance(s, CyclotomicNumber) else CyclotomicNumber.rational(level, s) for s in sums]
    coeffs = [CyclotomicNumber.rational(level, 1)]
    for n in range(1, len(sums) + 1):
        acc = CyclotomicNumber.rational(level, 0)
        for r in range(1, n + 1):
            acc = acc + sums[r - 1] * coeffs[n - r]
        coeffs.append(acc * Fraction(1, n))
    return tuple(coeffs)


def naive_mul(a, b) -> tuple[CyclotomicNumber, ...]:
    """The truncated product of two coefficient tuples of equal length."""
    zero = CyclotomicNumber.rational(a[0].level, 0)
    out = [zero] * len(a)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j in range(len(a) - i):
            if not b[j].is_zero:
                out[i + j] = out[i + j] + x * b[j]
    return tuple(out)


def naive_inverse(a) -> tuple[CyclotomicNumber, ...]:
    """The truncated inverse of a coefficient tuple with a[0] != 0."""
    if a[0].is_zero:
        raise ZeroDivisionError("series with zero constant term")
    inv0 = a[0].inverse()
    out = [inv0]
    for n in range(1, len(a)):
        acc = CyclotomicNumber.rational(a[0].level, 0)
        for r in range(1, n + 1):
            acc = acc + a[r] * out[n - r]
        out.append(-(inv0 * acc))
    return tuple(out)
