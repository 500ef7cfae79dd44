"""Kummer covers of punctured affine lines and their L-series.

The base is X = A^1 minus the zero locus of a polynomial f over F_p; the
total space of the cover with exponent d | p - 1 is

    Y = {(x, y) : y^d = f(x), f(x) != 0},

an honest C_d-Galois cover of X (etale because f never vanishes on X).
Quotients by subgroups are again Kummer covers z^(d/s) = f(x), and X
itself is the quotient with d = 1, so KummerCover is the only scheme type.

Zeta functions are exponentials of point-count sums, and the L-series of
the character with exponent a is the exponential character sum

    exp( sum_r t^r / r * sum_{x in X(F_(p^r))} zeta_d^(a * class(x)) ),

where class(x) is the d-th power residue class of f(x), i.e. the discrete
logarithm of f(x)^((p^r - 1)/d) in mu_d with respect to g_p^((p-1)/d), g_p
the smallest primitive root mod p.  All series coefficients are exact
cyclotomic numbers.

Point enumeration is exhaustive but works on discrete logarithms.  For
each degree r, tables of F_(p^r) are built once for the generator g = x
of F_p[x]/m, with m = gf.primitive_polynomial(p, r) the first monic
polynomial in which x has order p^r - 1 and norm g_p: enc_pow (g^i ->
encoding), dlog (encoding -> i) and the Zech array zech[i] = dlog(1 + g^i).
Since g^((p^r - 1)/(p - 1)) = g_p, class(x) is dlog(f(x)) mod d.
Encodings use window coordinates: g^i is the base-p number with digits
(u_i, ..., u_(i+r-1)), where u is the impulse response of m, the minimal
polynomial of g.  This is an F_p-linear coordinate system in which the
constant c encodes as c, so adding 1 only bumps digit 0.  The power walk
extends u by doubling steps over numpy slices, O(p^r * r) work.  The
tables are int32 whenever p^r < 2^31.

f is then evaluated at every x = g^i by Horner's rule on logs:
multiplying by x adds i, and adding a nonzero constant costs one gather
from the Zech array.  Numpy holds only integers, all below 2^63: walk
terms are sums of r products of residues (< r p^2), encodings are < p^r,
and Horner logs stay below (deg f + 2) n with n = p^r - 1.  So every
count is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .cyclotomic import CyclotomicNumber
from .gf import primitive_polynomial
from .numtheory import divisors, factorize, is_prime, squarefree_subsets
from .report import SKIP, VerificationReport, fmt_rational

# Largest field size enumerated exhaustively; beyond this the required
# per-element work (p^B elements for series order B) cannot fit any sane
# time or memory budget, so callers receive a budget error or SKIP records.
DEFAULT_MAX_FIELD_SIZE = 30_000_000

# elements per numpy pass when building tables and histograms
_CHUNK = 1 << 20


class EnumerationBudgetExceeded(Exception):
    """Raised when a point count would require enumerating a field larger
    than the configured budget."""


class InsufficientOrder(Exception):
    """Raised when no rational function within the degree bound reproduces
    a truncated series."""


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its
    denominator."""


# ---------------------------------------------------------------------------
# scheme specs


@dataclass(frozen=True)
class KummerCover:
    """Total space y^d = f(x) over the punctured affine line, d | p - 1.

    The group mu_d is identified with Z/d through g_p^((p-1)/d), where g_p
    is the smallest primitive root mod p: the norm of the table generator
    fixed by gf.primitive_polynomial.
    """

    p: int
    d: int
    f: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.d < 1 or (self.p - 1) % self.d != 0:
            raise ValueError(f"d = {self.d} must divide p - 1 = {self.p - 1}")
        if all(c % self.p == 0 for c in self.f):
            raise ValueError("f must be nonzero")

    def quotient(self, subgroup_order: int) -> "KummerCover":
        """Quotient by the subgroup of order s: the cover z^(d/s) = f(x)."""
        if subgroup_order < 1 or self.d % subgroup_order != 0:
            raise ValueError(f"subgroup order {subgroup_order} is not a positive divisor of {self.d}")
        return KummerCover(self.p, self.d // subgroup_order, self.f)

    def f_degree(self) -> int:
        return max(i for i, c in enumerate(self.f) if c % self.p != 0)

    def default_order(self) -> int:
        return 2 * (self.f_degree() + 3)


# ---------------------------------------------------------------------------
# discrete-log tables per (p, r)


class _FieldTables:
    """Discrete-log tables of F_(p^r) for the generator g = x modulo
    minpoly = gf.primitive_polynomial(p, r), the minimal polynomial of g.

    Elements are encoded in window coordinates: with u the impulse response
    of minpoly (u_0 = 1, u_1..u_(r-1) = 0), g^i encodes as the base-p
    number with digits (u_i, ..., u_(i+r-1)).  This is an F_p-linear
    isomorphism F_(p^r) -> F_p^r that sends the constant c to c, so the
    logs of constants (dlog[c]) and "add 1 = bump digit 0" read the same
    as in the coefficient basis.  The norm of g is g_p, so
    dlog[g_p] = n/(p-1) and a log mod p - 1 is a log to the base g_p.

    enc_pow[i] = encoding of g^i; dlog[enc] = i, and -1 at enc = 0 only;
    zech[i] = dlog(1 + g^i), the Zech logarithm, -1 where 1 + g^i = 0.
    The three arrays are int32 when p^r < 2^31, else int64.
    """

    def __init__(self, p: int, r: int):
        self.p, self.r = p, r
        self.minpoly = primitive_polynomial(p, r)
        size = p**r
        n = self.n = size - 1
        u = _impulse_response(self.minpoly, p, n + r - 1)
        index = np.int32 if size < 2**31 else np.int64
        enc_pow = np.empty(n, dtype=index)
        dlog = np.full(size, -1, dtype=index)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            enc = np.zeros(stop - start, dtype=index)
            for j in reversed(range(r)):
                enc *= p
                enc += u[start + j : stop + j]
            enc_pow[start:stop] = enc
            dlog[enc] = np.arange(start, stop, dtype=index)
        if dlog[1] != 0 or dlog[0] != -1 or np.count_nonzero(dlog < 0) != 1:
            raise AssertionError("power walk does not hit every nonzero element once")
        zech = np.empty(n, dtype=index)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            # adding 1 bumps digit 0 (which is u_i) only, wrapping p - 1 to
            # 0 without a carry
            plus_one = enc_pow[start:stop] + 1 - p * (u[start:stop] == p - 1).astype(index)
            zech[start:stop] = np.take(dlog, plus_one)
        self.enc_pow, self.dlog, self.zech = enc_pow, dlog, zech


def _impulse_response(minpoly: tuple[int, ...], p: int, length: int) -> np.ndarray:
    """u_0..u_(length-1) of the recurrence with characteristic polynomial
    minpoly (monic, degree r) from u_0 = 1, u_1..u_(r-1) = 0, mod p.

    The companion matrix T moves windows, W_(i+1) = W_i T with
    W_i = (u_i..u_(i+r-1)), so column 0 of T^K gives
    u_(i+K) = sum_j (T^K)_(j,0) u_(i+j) for every i.  A step with
    K = J + r - 1 appends J terms, each a sum of r products of earlier
    terms; J doubles (T^J squared) until it reaches _CHUNK.  The walk costs
    O(length * r) in numpy and about log2(length) + length/_CHUNK steps.
    Terms are stored in the smallest dtype that holds p - 1, and summed in
    the smallest that holds r (p - 1)^2.
    """
    r = len(minpoly) - 1
    u = np.zeros(length, dtype=np.min_scalar_type(p - 1))
    u[0] = 1
    companion = np.zeros((r, r), dtype=np.int64)
    companion[1:, :-1] = np.eye(r - 1, dtype=np.int64)
    companion[:, -1] = [(-c) % p for c in minpoly[:-1]]
    lag = np.eye(r, dtype=np.int64)  # T^(r-1)
    for _ in range(r - 1):
        lag = lag @ companion % p
    wide = np.min_scalar_type(r * (p - 1) ** 2)
    step_pow, step, have = companion, 1, r  # T^J, J, terms known
    while have < length:
        take = min(step, length - have)
        base = have - step - r + 1  # have - K
        acc = np.zeros(take, dtype=wide)
        for j, a in enumerate((lag @ step_pow[:, 0] % p).astype(wide)):
            if a:
                acc += a * u[base + j : base + j + take]
        u[have : have + take] = acc % p
        have += take
        if step < _CHUNK:
            step_pow, step = step_pow @ step_pow % p, 2 * step
    return u


@lru_cache(maxsize=64)
def _tables(p: int, r: int) -> _FieldTables:
    return _FieldTables(p, r)


def _check_budget(cover: KummerCover, r: int, max_field_size: int) -> None:
    """Refuse to enumerate F_(p^r) beyond the budget.  Every public entry
    point checks once, before any table or histogram is looked up, so the
    caches are keyed on the field alone."""
    p = cover.p
    if p**r > max_field_size:
        raise EnumerationBudgetExceeded(
            f"F_({p}^{r}) has {p**r} elements, budget is {max_field_size}"
        )


@lru_cache(maxsize=256)
def _value_log_histogram(p: int, r: int, f: tuple[int, ...]) -> tuple[int, ...]:
    """Histogram over c in Z/(p-1) of #{x in F_(p^r) : dlog(f(x)) = c mod p-1}.
    Exhaustive over all p^r elements; the zeros of f are not counted.  f is
    reduced mod p with a nonzero last coefficient.

    f is evaluated at every x = g^i by Horner's rule on logs: multiplying
    by x adds i, and adding a nonzero constant c (log l) maps a nonzero
    log a to l + zech[a - l mod n].  Logs are reduced mod n only to index
    zech, so they stay below (deg f + 2) n; a mask marks the x where the
    partial value is 0.  Since p - 1 divides n, the final bincount needs
    only the logs mod p - 1.
    """
    t = _tables(p, r)
    n = t.n
    logs_c = [np.int64(t.dlog[c]) if c else None for c in f]
    hist = np.zeros(p - 1 if p > 2 else 1, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        acc = np.full(i.size, logs_c[-1], dtype=np.int64)
        zero = None  # where the partial value is 0, if anywhere
        for lc in reversed(logs_c[:-1]):
            acc += i
            if lc is None:
                continue
            z = np.take(t.zech, (acc - lc) % n)
            acc = z + lc
            if zero is not None:
                acc[zero] = lc  # 0 * x + c = c
                z[zero] = 0
            zero = z < 0
            if not zero.any():
                zero = None
        if zero is not None:
            acc = acc[~zero]
        hist += np.bincount(acc % (p - 1), minlength=p - 1)
    # the element x = 0 contributes f(0) = constant term
    if f[0]:
        hist[int(t.dlog[f[0]]) % (p - 1)] += 1
    return tuple(int(x) for x in hist)


def _residue_histogram_mod(p, r, f, d) -> list[int]:
    """Fold the mod-(p-1) histogram down to Z/d (d divides p-1, or d = 1).
    f (nonzero mod p) is reduced and its trailing zeros dropped before the
    cache lookup, so f and f + 0 x^k share one histogram."""
    coeffs = [c % p for c in f]
    while not coeffs[-1]:
        coeffs.pop()
    hist = _value_log_histogram(p, r, tuple(coeffs))
    if d == 1:
        return [sum(hist)]
    out = [0] * d
    for c, count in enumerate(hist):
        out[c % d] += count
    return out


# ---------------------------------------------------------------------------
# point counting


def count_points(cover: KummerCover, r: int, max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> int:
    """#cover(F_(p^r)) by exhaustive enumeration (table-driven).  The base
    X itself is the cover with d = 1."""
    if r < 1:
        raise ValueError("degree must be >= 1")
    _check_budget(cover, r, max_field_size)
    return _count_points(cover, r)


def _count_points(cover: KummerCover, r: int) -> int:
    # y^d = u has d solutions when dlog(u) = 0 mod d, else none
    return cover.d * _residue_histogram_mod(cover.p, r, cover.f, cover.d)[0]


# ---------------------------------------------------------------------------
# truncated series with cyclotomic coefficients


@dataclass(frozen=True)
class TruncatedLSeries:
    """sum c_k t^k up to order B, coefficients in Q(zeta_level)."""

    level: int
    order: int
    coeffs: tuple[CyclotomicNumber, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need order + 1 coefficients")
        if any(c.level != self.level for c in self.coeffs):
            raise ValueError("coefficient level mismatch")

    @classmethod
    def one(cls, level: int, order: int) -> "TruncatedLSeries":
        coeffs = [CyclotomicNumber.rational(level, 1)] + [
            CyclotomicNumber.rational(level, 0) for _ in range(order)
        ]
        return cls(level, order, tuple(coeffs))

    @classmethod
    def from_log_sums(cls, level: int, sums) -> "TruncatedLSeries":
        """exp(sum_r sums[r-1] t^r / r): the exponential of a point-count or
        character-sum series.  Coefficients satisfy n c_n = sum S_r c_(n-r)."""
        sums = [s if isinstance(s, CyclotomicNumber) else CyclotomicNumber.rational(level, s) for s in sums]
        order = len(sums)
        coeffs = [CyclotomicNumber.rational(level, 1)]
        for n in range(1, order + 1):
            acc = CyclotomicNumber.rational(level, 0)
            for r in range(1, n + 1):
                acc = acc + sums[r - 1] * coeffs[n - r]
            coeffs.append(acc * Fraction(1, n))
        return cls(level, order, tuple(coeffs))

    def log_sums(self) -> list[CyclotomicNumber]:
        """Inverse of from_log_sums: recover S_1..S_B."""
        sums: list[CyclotomicNumber] = []
        for n in range(1, self.order + 1):
            acc = self.coeffs[n] * n
            for r in range(1, n):
                acc = acc - sums[r - 1] * self.coeffs[n - r]
            sums.append(acc)
        return sums

    def _check(self, other):
        if self.level != other.level or self.order != other.order:
            raise ValueError("series level/order mismatch")

    def __mul__(self, other: "TruncatedLSeries") -> "TruncatedLSeries":
        self._check(other)
        zero = CyclotomicNumber.rational(self.level, 0)
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedLSeries(self.level, self.order, tuple(out))

    def inverse(self) -> "TruncatedLSeries":
        c0 = self.coeffs[0]
        if c0.is_zero:
            raise ZeroDivisionError("series with zero constant term")
        inv0 = c0.inverse()
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = CyclotomicNumber.rational(self.level, 0)
            for r in range(1, n + 1):
                acc = acc + self.coeffs[r] * out[n - r]
            out.append(-(inv0 * acc))
        return TruncatedLSeries(self.level, self.order, tuple(out))

    def __pow__(self, n: int) -> "TruncatedLSeries":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = TruncatedLSeries.one(self.level, self.order)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# series builders


def zeta_series(cover: KummerCover, order: int, level: int = 1,
                max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """exp(sum_r #cover(F_(p^r)) t^r / r) to the given order, exact."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_budget(cover, order, max_field_size)
    counts = [_count_points(cover, r) for r in range(1, order + 1)]
    return TruncatedLSeries.from_log_sums(level, counts)


def l_series_kummer(cover: KummerCover, a: int, order: int,
                    max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """Exponential character sum series for the character with exponent a,
    at level d."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_budget(cover, order, max_field_size)
    p, d = cover.p, cover.d
    sums = []
    for r in range(1, order + 1):
        # the class of f(x) is its log mod d
        s_r = CyclotomicNumber.rational(d, 0)
        for c, count in enumerate(_residue_histogram_mod(p, r, cover.f, d)):
            if count:
                s_r = s_r + count * CyclotomicNumber.zeta(d, a * c)
        sums.append(s_r)
    return TruncatedLSeries.from_log_sums(d, sums)


def _intermediate_class_buckets(cover: KummerCover, subgroup_order: int, r: int) -> list[int]:
    """For W = Y/(subgroup of order s), bucket the points (x, z) of W over
    F_(p^r) by the s-th power residue class of the coordinate z.

    With e = d/s, a point x with dlog(f(x)) = c has e roots z exactly
    when e | c, with dlogs c/e + j n/e for j < e.  As n/e is a multiple
    of s, all e roots share the class (c/e) mod s, which c mod d already
    determines, so the folded histogram suffices.
    """
    s = subgroup_order
    e_top = cover.d // s  # exponent of the equation z^(e_top) = f(x)
    buckets = [0] * s
    for c, count in enumerate(_residue_histogram_mod(cover.p, r, cover.f, cover.d)):
        if c % e_top == 0:
            buckets[(c // e_top) % s] += e_top * count
    return buckets


def l_series_intermediate(cover: KummerCover, subgroup_order: int, b: int, order: int,
                          max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """L-series of the top cover restricted to the subgroup of order s,
    computed over the intermediate quotient W = Y/C_s as base: the sum over
    points (x, z) of W of zeta_s^(b * class_s(z)).  Returned at level d for
    direct comparison with products of level-d series."""
    s, d = subgroup_order, cover.d
    if s < 1 or d % s != 0:
        raise ValueError(f"subgroup order {s} is not a positive divisor of {d}")
    _check_budget(cover, order, max_field_size)
    sums = []
    for r in range(1, order + 1):
        s_r = CyclotomicNumber.rational(d, 0)
        for cls, count in enumerate(_intermediate_class_buckets(cover, s, r)):
            if count:
                s_r = s_r + count * CyclotomicNumber.zeta(d, (d // s) * (b * cls % s))
        sums.append(s_r)
    return TruncatedLSeries.from_log_sums(d, sums)


# ---------------------------------------------------------------------------
# rational reconstruction and special values


def rational_reconstruction(series: TruncatedLSeries, max_deg: int):
    """Minimal-order linear recurrence fit over Q(zeta_level), by exact
    Gaussian elimination.  Returns (num, den) coefficient tuples with
    den(0) = 1 reproducing every coefficient, or raises InsufficientOrder."""
    B = series.order
    if B < 2 * max_deg + 2:
        raise ValueError(f"order {B} too small for degree bound {max_deg}")
    level = series.level
    c = series.coeffs
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


def evaluate_rational(num, den, point) -> CyclotomicNumber:
    """num(point)/den(point) for coefficient tuples of CyclotomicNumbers."""
    level = num[0].level

    def horner(coeffs):
        acc = CyclotomicNumber.rational(level, 0)
        for c in reversed(coeffs):
            acc = acc * point + c
        return acc

    d = horner(den)
    if d.is_zero:
        raise PoleError("denominator vanishes at the evaluation point")
    return horner(num) * d.inverse()


def l_special_value_curve(num, den, p: int, n: int) -> CyclotomicNumber:
    """Value of the reconstructed function at s = -n, that is t = p^n."""
    if n < 1:
        raise ValueError("positive n required")
    return evaluate_rational(num, den, Fraction(p) ** n)


# ---------------------------------------------------------------------------
# identity verification


def verify_l_identities(cover: KummerCover, order: int | None = None,
                        max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> VerificationReport:
    """Series-level checks, to the given order, of the factorization of
    zeta(Y) into character L-series, the descent and induction identities
    through every intermediate subgroup, the inclusion-exclusion identity
    for the primitive-character product, and (where the series determine a
    rational function within the degree bound) the special-value norm
    comparison at s = -1 and s = -2."""
    p, d = cover.p, cover.d
    B = cover.default_order() if order is None else order
    fstr = ",".join(str(c) for c in cover.f)
    case = f"curve p={p} d={d} f=[{fstr}]"
    rep = VerificationReport()
    if p**B > max_field_size:
        rep.add(case, "all", "enumeration", f"p^B = {p**B} exceeds budget {max_field_size}", SKIP)
        return rep

    L = {a: l_series_kummer(cover, a, B, max_field_size) for a in range(d)}
    zeta_of = {
        s: zeta_series(cover.quotient(s), B, level=d, max_field_size=max_field_size)
        for s in divisors(d)
    }

    # restricted[s, b]: the product of L[a] over a = b mod s, the characters
    # of C_d that restrict to chi_(s,b) on C_s
    restricted = {}
    for s in divisors(d):
        for b in range(s):
            part = TruncatedLSeries.one(d, B)
            for a in range(b, d, s):
                part = part * L[a]
            restricted[s, b] = part

    # (i) zeta(Y) = prod_a L(X, chi^a)
    rep.check(case, "zeta_factorization", "pair_counts|char_sum_product",
              zeta_of[1].coeffs, restricted[1, 0].coeffs, render=_series_str)

    # (ii) descent: zeta(Y/C_s) = prod over characters trivial on C_s
    for s in divisors(d):
        rep.check(case, f"descent s={s}", "quotient_counts|trivial_char_product",
                  zeta_of[s].coeffs, restricted[s, 0].coeffs, render=_series_str)

    # (iii) induction: prod of characters of C_d restricting to chi_(s,b)
    #       equals the L-series computed over the intermediate quotient
    for s in divisors(d):
        for b in range(s):
            rhs = l_series_intermediate(cover, s, b, B, max_field_size=max_field_size)
            rep.check(case, f"induction s={s} b={b}",
                      "restricting_char_product|intermediate_base_sum",
                      restricted[s, b].coeffs, rhs.coeffs, render=_series_str)

    # (iv) inclusion-exclusion: primitive-character product from quotient zetas
    primitive_product = TruncatedLSeries.one(d, B)
    for a in range(d):
        if gcd(a, d) == 1 or d == 1:
            primitive_product = primitive_product * L[a]
    moebius = TruncatedLSeries.one(d, B)
    for subset, sign in squarefree_subsets(factorize(d).primes):
        moebius = moebius * (zeta_of[prod(subset)] ** sign)
    rep.check(case, "moebius_inversion", "primitive_product|quotient_zeta_alternating",
              primitive_product.coeffs, moebius.coeffs, render=_series_str)

    # special values: norm of the primitive L-value against the alternating
    # product of quotient zeta values, via rational reconstruction
    max_deg = cover.f_degree() + 2
    for n_val in (1, 2):
        quantity = f"special_value_norm n={n_val}"
        if B < 2 * max_deg + 2:
            rep.add(case, quantity, "rational_reconstruction",
                    f"order B={B} below 2*{max_deg}+2, the minimum for degree bound {max_deg}", SKIP)
            continue
        try:
            if d == 1:
                num, den = rational_reconstruction(L[0], max_deg)
                lhs_value = l_special_value_curve(num, den, p, n_val).as_rational()
            else:
                num, den = rational_reconstruction(L[1], max_deg)
                lhs_value = l_special_value_curve(num, den, p, n_val).norm_to_Q()
            rhs_value = Fraction(1)
            for subset, sign in squarefree_subsets(factorize(d).primes):
                zn, zd = rational_reconstruction(zeta_of[prod(subset)], max_deg)
                v = l_special_value_curve(zn, zd, p, n_val).as_rational()
                rhs_value *= v if sign == 1 else 1 / v
            rep.check(case, quantity, "norm_of_L_value|zeta_value_alternating",
                      lhs_value, rhs_value, render=fmt_rational)
        except InsufficientOrder:
            rep.add(case, quantity, "rational_reconstruction",
                    f"no recurrence of order <= {max_deg} at B={B}", SKIP)
        except PoleError:
            rep.add(case, quantity, "rational_reconstruction", "pole at evaluation point", SKIP)
    return rep


def _series_str(coeffs) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"
