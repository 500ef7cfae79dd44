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
of F_p[x]/m, m = gf.primitive_polynomial(p, r) (x has order p^r - 1 and
norm g_p; stored for p <= 13, and proved primitive by the walk check):
enc_pow (g^i -> encoding), dlog (encoding -> i), zech[i] = dlog(1 + g^i).
Since g^((p^r - 1)/(p - 1)) = g_p, class(x) is dlog(f(x)) mod d.
Encodings use window coordinates: g^i is the base-p number with digits
(u_i, ..., u_(i+r-1)), where u is the impulse response of m, the minimal
polynomial of g.  This is an F_p-linear coordinate system in which the
constant c encodes as c, so adding 1 only bumps digit 0.  As g^M = g_p
with M = (p^r - 1)/(p - 1), u_(i+M) = g_p u_i: the power walk extends u
by doubling steps over numpy slices across the fewest F_p^x sheets of M
terms that hold 2^17 and p terms, and the rest of u is copied from them,
scaled by a power of g_p.  Windows are built by doubling too: those of
width 2w are w_i + p^w w_(i+w), and the set bits of r are added together.
The Zech array is gathered from dlog for i <= n/2 only, n = p^r - 1; the
negation identity 1 + g^i = g^i (1 + g^(n-i)) gives the rest as
zech[i] = zech[n - i] - (n - i) mod n.  The tables are int32 whenever
p^r < 2^31.

f is then evaluated at every x = g^i by Horner's rule on logs:
multiplying by x adds i, and adding a nonzero constant is one lookup in
the Zech array.  Before the first such addition the log is l_top + s i,
so the first lookup reads an arithmetic progression of the Zech array:
strided slices, one or two plain slices for s = 1.  Every later lookup
is one gather.  Numpy holds only integers, all below 2^63: walk terms
are sums of r products of residues (< r p^2), encodings are < p^r, and
Horner logs stay below (deg f + 2) n with n = p^r - 1; they run in int32
lanes when that bound is below 2^31, else in int64.  So every count is
exact.

Tables and histograms are built in passes of _CHUNK = 2^17 elements, so
that each int32 temporary takes 512 KiB and a pass works inside a 2 MiB
L2 cache instead of streaming every temporary through memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, prod
from operator import mul

import numpy as np

from .cyclotomic import CyclotomicNumber, _root_sum, _sum_of_products
from .gf import primitive_polynomial
from .numtheory import divisors, is_prime, squarefree_divisors
from .report import SKIP, VerificationReport, fmt_rational

# Largest field size enumerated exhaustively; beyond this the required
# per-element work (p^B elements for series order B) cannot fit any sane
# time or memory budget, so callers receive a budget error or SKIP records.
DEFAULT_MAX_FIELD_SIZE = 30_000_000

# elements per numpy pass when building tables and histograms: 2^17, so
# that an int32 temporary (512 KiB) and the few a pass holds at once stay
# within a 2 MiB per-core L2 cache; 2^20 spilled every temporary to L3
_CHUNK = 1 << 17


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
    as in the coefficient basis.  The norm of g is g_p = g^m with
    m = n/(p-1), so dlog[g_p] = m, a log mod p - 1 is a log to the base
    g_p, and u_(i+km) = g_p^k u_i: u is walked over a whole number of
    these F_p^x sheets and the rest of it is copied, scaled.  The windows
    are summed by doubling (_windows).

    enc_pow[i] = encoding of g^i; dlog[enc] = i, and -1 at enc = 0 only;
    zech[i] = dlog(1 + g^i), the Zech logarithm, -1 where 1 + g^i = 0.
    zech is gathered from dlog up to n // 2 and taken past it from the
    negation identity 1 + g^i = g^i (1 + g^(n-i)).  The three arrays are
    int32 when p^r < 2^31, else int64.
    """

    def __init__(self, p: int, r: int):
        self.p, self.r = p, r
        self.minpoly = primitive_polynomial(p, r)
        size = p**r
        n = self.n = size - 1
        # the walk stops at the least multiple of m = n/(p-1) that is at
        # least _CHUNK, so a copy pass reads only terms already written, and
        # at least p, so the table of x -> g_p^k x costs less than the walk;
        # (-1)^r minpoly(0) is the norm g_p
        m, length = n // (p - 1), n + r - 1
        walked = m * -(-max(_CHUNK, p) // m)
        u = np.empty(length, dtype=np.min_scalar_type(p - 1))
        _impulse_response(self.minpoly, p, u[:walked])
        if walked < length:
            times = (np.arange(p) * pow((-1) ** r * self.minpoly[0], walked // m, p) % p).astype(u.dtype)
            for start in range(walked, length, _CHUNK):
                stop = min(start + _CHUNK, length)
                np.take(times, u[start - walked : stop - walked], out=u[start:stop])
        index = np.int32 if size < 2**31 else np.int64
        enc_pow = np.empty(n, dtype=index)
        dlog = np.full(size, -1, dtype=index)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            enc = enc_pow[start:stop] = _windows(u[start : stop + r - 1], p, r, index)
            dlog[enc] = np.arange(start, stop, dtype=index)
        if dlog[1] != 0 or dlog[0] != -1 or np.count_nonzero(dlog < 0) != 1:
            raise AssertionError("power walk does not hit every nonzero element once")
        # -1 is g^half (odd p) or g^0 (p = 2), so no mirror is a -1 entry
        half = n // 2
        zech = np.empty(n, dtype=index)
        for start in range(0, half + 1, _CHUNK):
            stop = min(start + _CHUNK, half + 1)
            # adding 1 bumps digit 0 (which is u_i) only, wrapping p - 1 to
            # 0 without a carry
            plus_one = enc_pow[start:stop] + 1 - p * (u[start:stop] == p - 1).astype(index)
            np.take(dlog, plus_one, out=zech[start:stop])
        sign = 8 * zech.itemsize - 1
        for start in range(half + 1, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            out = zech[start:stop]
            np.subtract(zech[n - stop + 1 : n - start + 1][::-1],
                        np.arange(n - start, n - stop, -1, dtype=index), out=out)
            out += out >> sign & n  # the difference is in (-n, n): add n where negative
        self.enc_pow, self.dlog, self.zech = enc_pow, dlog, zech


def _windows(u: np.ndarray, p: int, r: int, dtype) -> np.ndarray:
    """The base-p numbers sum_(j<r) u_(i+j) p^j for i <= len(u) - r, in
    dtype, which must hold p^r.  Windows of width 2w are w'_i = w_i +
    p^w w_(i+w), so about log2(r) doubling passes and one pass per set bit
    of r build them, not r multiply-adds."""
    count = len(u) - r + 1
    w, width = u.astype(dtype), 1  # the windows of this width
    out, done = None, 0  # the windows of width done, the set bits of r below width
    while True:
        if r & width:
            part = w[done : done + count]
            out = part if out is None else out + p**done * part
            done += width
        if 2 * width > r:
            return out
        w = w[:-width] + p**width * w[width:]
        width *= 2


def _impulse_response(minpoly: tuple[int, ...], p: int, u: np.ndarray) -> None:
    """Fill u with u_0, u_1, ... of the recurrence with characteristic
    polynomial minpoly (monic, degree r) from u_0 = 1, u_1..u_(r-1) = 0,
    mod p.

    The companion matrix T moves windows, W_(i+1) = W_i T with
    W_i = (u_i..u_(i+r-1)), so column 0 of T^K gives
    u_(i+K) = sum_j (T^K)_(j,0) u_(i+j) for every i.  A step with
    K = J + r - 1 appends J terms, each a sum of r products of earlier
    terms; J doubles (T^J squared) until it reaches _CHUNK.  The walk costs
    O(length * r) in numpy and about log2(length) + length/_CHUNK steps.
    Terms are summed in the smallest dtype that holds r (p - 1)^2.
    """
    r, length = len(minpoly) - 1, len(u)
    u[:r] = 0
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


@lru_cache(maxsize=64)
def _tables(p: int, r: int) -> _FieldTables:
    return _FieldTables(p, r)


def _exceeds_budget(p: int, r: int, max_field_size: int) -> bool:
    """p^r > max_field_size.  p^r is formed only while r is at most the
    bit length of the budget; past it, p^r >= 2^r exceeds the budget."""
    return r > max_field_size.bit_length() or p**r > max_field_size


def _power_text(p: int, e: int) -> str:
    """p^e in decimal while it has at most 4300 digits, the longest int
    CPython converts to str by default; past that, "p^e" as written."""
    if e * (p.bit_length() - 1) < 14300:  # else p^e >= 2^14300 > 10^4300
        value = p**e
        if value < 10**4300:
            return str(value)
    return f"{p}^{e}"


def _check_budget(cover: KummerCover, r: int, max_field_size: int) -> None:
    """Refuse to enumerate F_(p^r) beyond the budget.  Every public entry
    point checks once, before any table or histogram is looked up, so the
    caches are keyed on the field alone."""
    p = cover.p
    if _exceeds_budget(p, r, max_field_size):
        raise EnumerationBudgetExceeded(
            f"F_({p}^{r}) has {_power_text(p, r)} elements, budget is {max_field_size}"
        )


@lru_cache(maxsize=256)
def _value_log_histogram(p: int, r: int, f: tuple[int, ...]) -> tuple[int, ...]:
    """Histogram over c in Z/(p-1) of #{x in F_(p^r) : dlog(f(x)) = c mod p-1}.
    Exhaustive over all p^r elements; the zeros of f are not counted.  f is
    reduced mod p with a nonzero last coefficient.

    f is evaluated at every x = g^i by Horner's rule on logs: multiplying
    by x adds i, and adding a nonzero constant c (log l) maps a nonzero
    log a to l + zech[a - l mod n].  Up to the first such addition the log
    is l_top + s i, with s the multiplications by x so far, so that first
    lookup reads zech along an arithmetic progression in i: strided slices
    of zech, one slice when s = 1 and it does not wrap at n, with no index
    array and no gather.  Each later addition is one gather.  Logs are
    reduced mod n only to index zech, so they stay below (deg f + 2) n;
    they are held in int32 lanes when that bound is below 2^31, else in
    int64.  A mask marks the x where the partial value is 0.  Since p - 1
    divides n, the final bincount needs only the logs mod p - 1.
    """
    lane = np.int32 if (len(f) + 1) * (p**r - 1) < 2**31 else np.int64
    return _horner_histogram(_tables(p, r), f, lane)


def _horner_histogram(t: _FieldTables, f: tuple[int, ...], lane) -> tuple[int, ...]:
    """The kernel of _value_log_histogram, with every log and every scalar
    it meets in the integer dtype lane, which must hold (deg f + 2) n."""
    p, n = t.p, t.n
    logs_c = [lane(t.dlog[c]) if c else None for c in f]
    top = logs_c[-1]
    m = lane(p - 1)
    hist = np.zeros(p - 1, dtype=np.int64)
    # i is read by a multiplication after the first constant, or by a monomial
    reads_i = any(f[1:-1]) or not any(f[:-1])
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        i = np.arange(start, start + count, dtype=lane) if reads_i else None
        acc = None  # the partial log, once a constant has been added
        zero = None  # where the partial value is 0, if anywhere
        s = 0  # multiplications by x before the first constant
        for lc in reversed(logs_c[:-1]):
            if acc is None:
                s += 1
            else:
                acc += i
            if lc is None:
                continue
            if acc is None:
                # so far f is c x^s: never 0, and its log top + s i is a progression
                z = _zech_progression(t.zech, (int(top) - int(lc) + s * start) % n, s, count)
            else:
                z = np.take(t.zech, (acc - lc) % n)
            acc = z + lc
            if zero is not None:
                acc[zero] = lc  # 0 * x + c = c
                z[zero] = 0
            zero = z < 0
            if not zero.any():
                zero = None
        if acc is None:  # f = c x^s
            acc = i * lane(s) + top
        if zero is not None:
            acc = acc[~zero]
        # the logs are nonnegative once the zeros are dropped, so floor
        # division reduces them; np.remainder takes about twice as long
        acc -= acc // m * m
        hist += np.bincount(acc, minlength=p - 1)
    # the element x = 0 contributes f(0) = constant term
    if f[0]:
        hist[int(t.dlog[f[0]]) % (p - 1)] += 1
    return tuple(int(x) for x in hist)


def _zech_progression(zech: np.ndarray, a: int, s: int, count: int) -> np.ndarray:
    """zech[(a + s k) mod n] for k < count, with 0 <= a < n = zech.size:
    one strided slice per pass through n, so at most s + 1 of them for
    count <= n.  A lone slice is returned as a view."""
    n = zech.size
    pieces = []
    while count:
        take = min(count, -(-(n - a) // s))  # terms before the index passes n
        pieces.append(zech[a : a + s * take : s])
        count -= take
        a = (a + s * take) % n
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _residue_histogram_mod(p, r, f, d) -> list[int]:
    """Fold the mod-(p-1) histogram down to Z/d, d dividing p - 1.
    f (nonzero mod p) is reduced and its trailing zeros dropped before the
    cache lookup, so f and f + 0 x^k share one histogram."""
    coeffs = [c % p for c in f]
    while not coeffs[-1]:
        coeffs.pop()
    out = [0] * d
    for c, count in enumerate(_value_log_histogram(p, r, tuple(coeffs))):
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
    """sum c_k t^k up to order B, coefficients in Q(zeta_level).  exp,
    products and inverses sum each coefficient on integer numerators and
    canonicalize it once."""

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
        zero = CyclotomicNumber.rational(level, 0)
        return cls(level, order, (CyclotomicNumber.rational(level, 1),) + (zero,) * order)

    @classmethod
    def from_log_sums(cls, level: int, sums) -> "TruncatedLSeries":
        """exp(sum_r sums[r-1] t^r / r): the exponential of a point-count or
        character-sum series.  Coefficients satisfy n c_n = sum S_r c_(n-r),
        each sum taken on numerators like a coefficient of a product."""
        sums = [s if isinstance(s, CyclotomicNumber) else CyclotomicNumber.rational(level, s) for s in sums]
        if any(s.level != level for s in sums):
            raise ValueError("log sum level mismatch")
        coeffs = [CyclotomicNumber.rational(level, 1)]
        for n in range(1, len(sums) + 1):
            coeffs.append(_sum_of_products(level, zip(sums, coeffs[::-1]), n))
        return cls(level, len(sums), tuple(coeffs))

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
        a, b = self.coeffs, other.coeffs
        return TruncatedLSeries(self.level, self.order, tuple(
            _sum_of_products(self.level, zip(a[: k + 1], b[k::-1]))
            for k in range(self.order + 1)))

    def inverse(self) -> "TruncatedLSeries":
        c0 = self.coeffs[0]
        if c0.is_zero:
            raise ZeroDivisionError("series with zero constant term")
        inv0 = c0.inverse()
        ratios = [-(c * inv0) for c in self.coeffs[1:]]
        out = [inv0]  # out_n = sum_r (-c_r / c_0) out_(n-r)
        for _ in range(self.order):
            out.append(_sum_of_products(self.level, zip(ratios, out[::-1])))
        return TruncatedLSeries(self.level, self.order, tuple(out))

    def __pow__(self, n: int) -> "TruncatedLSeries":
        base = self if n >= 0 else self.inverse()
        result = TruncatedLSeries.one(self.level, self.order)
        for _ in range(abs(n)):
            result = result * base
        return result


# ---------------------------------------------------------------------------
# series builders


def _exp_series(cover: KummerCover, order: int, max_field_size: int, level: int, log_sum) -> TruncatedLSeries:
    """exp(sum_r log_sum(r) t^r / r) for r = 1..order, at the given level,
    once the order is checked and F_(p^order) is within the budget."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_budget(cover, order, max_field_size)
    return TruncatedLSeries.from_log_sums(level, [log_sum(r) for r in range(1, order + 1)])


def zeta_series(cover: KummerCover, order: int, level: int = 1,
                max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """exp(sum_r #cover(F_(p^r)) t^r / r) to the given order, exact."""
    return _exp_series(cover, order, max_field_size, level, lambda r: _count_points(cover, r))


def l_series_kummer(cover: KummerCover, a: int, order: int,
                    max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """Exponential character sum series for the character with exponent a,
    at level d; the class of f(x) is its log mod d."""
    d = cover.d

    def char_sum(r):
        hist = _residue_histogram_mod(cover.p, r, cover.f, d)
        return _root_sum(d, ((a * c, count) for c, count in enumerate(hist)))

    return _exp_series(cover, order, max_field_size, d, char_sum)


def _intermediate_class_buckets(cover: KummerCover, subgroup_order: int, r: int) -> list[int]:
    """For W = Y/(subgroup of order s), bucket the points (x, z) of W over
    F_(p^r) by the s-th power residue class of the coordinate z.

    With e = d/s, a point x with dlog(f(x)) = c has e roots z exactly
    when e | c, with dlogs c/e + j n/e for j < e.  As n/e is a multiple
    of s, all e roots share the class (c/e) mod s, which c mod d already
    determines, so the folded histogram suffices: as c < d = e s, bucket j
    holds e times the count of class c = e j.
    """
    e = cover.d // subgroup_order  # exponent of the equation z^e = f(x)
    hist = _residue_histogram_mod(cover.p, r, cover.f, cover.d)
    return [e * hist[e * j] for j in range(subgroup_order)]


def l_series_intermediate(cover: KummerCover, subgroup_order: int, b: int, order: int,
                          max_field_size: int = DEFAULT_MAX_FIELD_SIZE) -> TruncatedLSeries:
    """L-series of the top cover restricted to the subgroup of order s,
    computed over the intermediate quotient W = Y/C_s as base: the sum over
    points (x, z) of W of zeta_s^(b * class_s(z)).  Returned at level d for
    direct comparison with products of level-d series."""
    s, d = subgroup_order, cover.d
    if s < 1 or d % s != 0:
        raise ValueError(f"subgroup order {s} is not a positive divisor of {d}")

    def bucket_sum(r):
        buckets = _intermediate_class_buckets(cover, s, r)
        return _root_sum(d, (((d // s) * (b * cls % s), count) for cls, count in enumerate(buckets)))

    return _exp_series(cover, order, max_field_size, d, bucket_sum)


# ---------------------------------------------------------------------------
# rational reconstruction and special values


def rational_reconstruction(series: TruncatedLSeries, max_deg: int):
    """Padé fit of a truncated series: (num, den) coefficient tuples with
    deg num, deg den <= max_deg and den(0) = 1 reproducing every
    coefficient, or InsufficientOrder.

    The extended Euclidean algorithm on t^(B+1) and the series S stops at
    the first remainder r of degree <= max_deg, with r = v S mod t^(B+1).
    As B >= 2 max_deg + 2, every pair within the degree bounds is a
    polynomial multiple of (r, v) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.9), so a fit exists exactly when deg v <= max_deg
    and v(0) != 0, and it is (r, v) / v(0).

    zeta(G_m/F_3) = (1 - t)/(1 - 3t):

    >>> s = TruncatedLSeries.from_log_sums(1, [3**r - 1 for r in range(1, 7)])
    >>> num, den = rational_reconstruction(s, 2)
    >>> [str(c) for c in num], [str(c) for c in den]
    (['1', '-1'], ['1', '-3'])
    """
    B = series.order
    if B < 2 * max_deg + 2:
        raise ValueError(f"order {B} too small for degree bound {max_deg}")
    level = series.level
    zero, one = CyclotomicNumber.rational(level, 0), CyclotomicNumber.rational(level, 1)
    # remainders r_i = s_i t^(B+1) + v_i S, as coefficient lists without
    # trailing zeros, lowest degree first
    r0, r1 = [zero] * (B + 1) + [one], _trimmed(series.coeffs)
    v0, v1 = [], [one]
    while len(r1) > max_deg + 1:
        m, inv = len(r1) - 1, r1[-1].inverse()
        q = [zero] * (len(r0) - m)
        for i in reversed(range(len(q))):  # long division: q[i] is still 0 here
            q[i] = _less_product(level, r0, q, r1, i + m) * inv
        r0, r1 = r1, _trimmed(_less_product(level, r0, q, r1, k) for k in range(m))
        v0, v1 = v1, [_less_product(level, v0, q, v1, k) for k in range(len(q) + len(v1) - 1)]
    if len(v1) > max_deg + 1 or v1[0].is_zero:
        raise InsufficientOrder(f"no recurrence of order <= {max_deg} fits")
    scale = v1[0].inverse()
    return tuple(c * scale for c in r1) or (zero,), tuple(c * scale for c in v1)


def _trimmed(coeffs) -> list[CyclotomicNumber]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _less_product(level: int, c, q, w, k: int) -> CyclotomicNumber:
    """Coefficient k of c - q w, for coefficient lists lowest degree first,
    as one sum of products."""
    pairs = [(-x, w[k - j]) for j, x in enumerate(q) if 0 <= k - j < len(w)]
    if k < len(c):
        pairs.append((c[k], CyclotomicNumber.rational(level, 1)))
    return _sum_of_products(level, pairs)


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
    comparison at s = -1 and s = -2.  Each product is folded from its
    factors, each Moebius factor is a quotient zeta or its inverse, and the
    base X (d = 1) takes the same path: its one character a = 0 is primitive."""
    p, d = cover.p, cover.d
    B = cover.default_order() if order is None else order
    fstr = ",".join(str(c) for c in cover.f)
    case = f"curve p={p} d={d} f=[{fstr}]"
    rep = VerificationReport()
    if _exceeds_budget(p, B, max_field_size):
        rep.add(case, "all", "enumeration",
                f"p^B = {_power_text(p, B)} exceeds budget {max_field_size}", SKIP)
        return rep

    L = {a: l_series_kummer(cover, a, B, max_field_size) for a in range(d)}
    zeta_of = {
        s: zeta_series(cover.quotient(s), B, level=d, max_field_size=max_field_size)
        for s in divisors(d)
    }
    # the quotient zetas of inclusion-exclusion, with their Moebius signs
    quotient_zetas = [(zeta_of[s], mu) for s, mu in squarefree_divisors(d)]

    # restricted[s, b]: the product of L[a] over a = b mod s, the characters
    # of C_d that restrict to chi_(s,b) on C_s
    restricted = {(s, b): reduce(mul, (L[a] for a in range(b, d, s)))
                  for s in divisors(d) for b in range(s)}

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
    primitive_product = reduce(mul, (L[a] for a in range(d) if gcd(a, d) == 1))
    moebius = reduce(mul, (z if mu == 1 else z.inverse() for z, mu in quotient_zetas))
    rep.check(case, "moebius_inversion", "primitive_product|quotient_zeta_alternating",
              primitive_product.coeffs, moebius.coeffs, render=_series_str)

    # special values: norm of the primitive L-value against the alternating
    # product of quotient zeta values, each series fitted once
    max_deg = cover.f_degree() + 2
    skip = None
    if B < 2 * max_deg + 2:
        skip = f"order B={B} below 2*{max_deg}+2, the minimum for degree bound {max_deg}"
    else:
        try:
            l_fit = rational_reconstruction(L[1 % d], max_deg)
            zeta_fits = [(rational_reconstruction(z, max_deg), mu) for z, mu in quotient_zetas]
        except InsufficientOrder:
            skip = f"no recurrence of order <= {max_deg} at B={B}"

    for n_val in (1, 2):
        quantity = f"special_value_norm n={n_val}"
        if skip:
            rep.add(case, quantity, "rational_reconstruction", skip, SKIP)
            continue
        try:
            lhs_value = l_special_value_curve(*l_fit, p, n_val).norm_to_Q()
            rhs_value = prod(l_special_value_curve(*fit, p, n_val).as_rational() ** mu
                             for fit, mu in zeta_fits)
            rep.check(case, quantity, "norm_of_L_value|zeta_value_alternating",
                      lhs_value, rhs_value, render=fmt_rational)
        except PoleError:
            rep.add(case, quantity, "rational_reconstruction", "pole at evaluation point", SKIP)
    return rep


def _series_str(coeffs) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"
