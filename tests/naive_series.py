"""Naive truncated-series oracles: exp, product and inverse one
CyclotomicNumber operation at a time, each canonicalizing its result.
They return coefficient tuples and share no code with TruncatedLSeries,
which sums each coefficient on integer numerators.

naive_reconstruction fits a series the way the package once did: for each
denominator degree k = 0..max_deg in turn, a Gauss-Jordan solve over
Q(zeta_level) of the linear recurrence the coefficients past max_deg must
satisfy.  curves.rational_reconstruction runs the extended Euclidean
algorithm instead, so the two share no code."""

from __future__ import annotations

from fractions import Fraction

from qlverify.curves import InsufficientOrder
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


def naive_reconstruction(coeffs, max_deg: int):
    """Minimal-order linear recurrence fit of the coefficients c_0..c_B over
    Q(zeta_level), by exact Gaussian elimination.  Returns (num, den)
    coefficient tuples with den(0) = 1 reproducing every coefficient, or
    raises InsufficientOrder."""
    B = len(coeffs) - 1
    if B < 2 * max_deg + 2:
        raise ValueError(f"order {B} too small for degree bound {max_deg}")
    c = coeffs
    level = c[0].level
    zero = CyclotomicNumber.rational(level, 0)
    for k in range(max_deg + 1):
        # unknowns d_1..d_k; equations sum_j d_j c_(n-j) = -c_n, max_deg < n <= B
        rows = []
        rhs = []
        for n in range(max_deg + 1, B + 1):
            rows.append([c[n - j] if n - j >= 0 else zero for j in range(1, k + 1)])
            rhs.append(-c[n])
        sol = _solve_field(rows, rhs, level)
        if sol is None:
            continue
        den = [CyclotomicNumber.rational(level, 1)] + sol
        num = []
        for n in range(max_deg + 1):
            acc = zero
            for j, dj in enumerate(den):
                if n - j >= 0:
                    acc = acc + dj * c[n - j]
            num.append(acc)
        while len(num) > 1 and num[-1].is_zero:
            num.pop()
        while len(den) > 1 and den[-1].is_zero:
            den.pop()
        return tuple(num), tuple(den)
    raise InsufficientOrder(f"no recurrence of order <= {max_deg} fits")


def _solve_field(rows, rhs, level):
    """Solve a linear system over Q(zeta_level); None if inconsistent.
    Deterministic Gaussian elimination; free variables are set to zero."""
    m = len(rows)
    k = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_row_of: dict[int, int] = {}
    rank = 0
    for col in range(k):
        piv = next((i for i in range(rank, m) if not aug[i][col].is_zero), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = aug[rank][col].inverse()
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(m):
            if i != rank and not aug[i][col].is_zero:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivot_row_of[col] = rank
        rank += 1
    for i in range(rank, m):
        if not aug[i][k].is_zero:
            return None
    zero = CyclotomicNumber.rational(level, 0)
    return [aug[pivot_row_of[c]][k] if c in pivot_row_of else zero for c in range(k)]
