"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) as an
integer numerator vector over one positive denominator, reduced modulo the
m-th cyclotomic polynomial and normalized so that gcd(num..., den) = 1, with
zero stored as 0/1.  The representation is canonical, so equality and
hashing compare plain tuples.  Levels are never mixed implicitly;
raise_level gives the embedding zeta_m' -> zeta_m^(m/m') for m' | m.  Other
modules build elements from integer data through _root_sum and _sum_of_products.

Norms and inverses share one product of Galois conjugates, on integer
numerator vectors: with y = x * sigma_(-1)(x) and Q the product of sigma_j(y)
over the units 2 <= j <= m/2, the norm is y Q / den^phi(m) and
x^(-1) = sigma_(-1)(x) Q / N(x).

Phi_m is the Moebius product of the binomials x^(m/d) - 1 over the
squarefree divisors d of m, and every reduction modulo Phi_m is one
division pass by it, after exponents fold mod m; the columns zeta^i z of
the matrix whose cokernel is Z[zeta_m]/(z) are each the reduction of the
last one moved up one place.  Galois conjugates and raise_level are one
monomial substitution zeta -> zeta^j.
A sum of products, such as a coefficient of a product of power series, is
accumulated on integer numerators and canonicalized once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .abelian import FgAbelianGroup, IntMatrix, cokernel
from .numtheory import euler_phi, squarefree_divisors


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, lowest degree first)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first.

    The Moebius product of x^(m/d) - 1 to the power mu(d) over the
    squarefree divisors d of m: the factors with mu(d) = 1 are multiplied
    in, then those with mu(d) = -1 divided out.  Monic of degree phi(m) and
    irreducible over Q.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("level must be positive")
    poly, divided = [1], []
    for d, mu in squarefree_divisors(m):
        e = m // d
        if mu == 1:  # times x^e - 1
            poly = [x - y for x, y in zip([0] * e + poly, poly + [0] * e)]
        else:
            divided.append(e)
    for e in divided:  # a = (x^e - 1) q gives q_j = q_(j-e) - a_j
        quo = []
        for j, a in enumerate(poly):
            quo.append((quo[j - e] if j >= e else 0) - a)
        if any(quo[-e:]):  # the top e terms of the recurrence are the remainder
            raise ArithmeticError(f"x^{e} - 1 does not divide {poly}")
        poly = quo[:-e]
    return tuple(poly)


@lru_cache(maxsize=None)
def _monic_tail(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(m) and, for each nonzero term c x^k of Phi_m below its leading
    term, the pair (k - phi(m), c)."""
    phi_m = cyclotomic_polynomial(m)
    phi = len(phi_m) - 1
    return phi, tuple((k - phi, c) for k, c in enumerate(phi_m[:-1]) if c)


def _reduce(m: int, vec) -> tuple[int, ...]:
    """Power-basis coefficients of sum(vec[i] x^i) mod Phi_m, for integer vec
    of any length.  Exponents first fold mod m, valid as Phi_m | x^m - 1;
    then one division pass by the monic Phi_m, from the top term down."""
    phi, tail = _monic_tail(m)
    if len(vec) > m:
        folded = [0] * m
        for i, c in enumerate(vec):
            folded[i % m] += c
        vec = folded
    out = list(vec)
    out += [0] * (phi - len(out))
    for i in range(len(out) - 1, phi - 1, -1):
        c = out[i]
        if c:  # c x^i = c x^(i - phi) (Phi_m - tail)
            for k, t in tail:
                out[i + k] -= c * t
    return tuple(out[:phi])


def _conjugate(m: int, num, j: int) -> tuple[int, ...]:
    """Power-basis coefficients of sum(num[i] zeta_m^(i j)): a Galois
    conjugate for gcd(j, m) = 1, a level raise for j = m / level."""
    out = [0] * m
    for i, c in enumerate(num):
        out[(i * j) % m] += c
    return _reduce(m, out)


def _set_canonical(z, m: int, num, den: int) -> "CyclotomicNumber":
    """Store num/den on z in canonical form; num has length phi(m), den > 0."""
    g = gcd(*num, den)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    object.__setattr__(z, "level", m)
    object.__setattr__(z, "num", tuple(num))
    object.__setattr__(z, "den", den)
    return z


def _element(m: int, num, den: int) -> "CyclotomicNumber":
    return _set_canonical(object.__new__(CyclotomicNumber), m, num, den)


def _sum_of_products(level: int, pairs, den: int = 1) -> "CyclotomicNumber":
    """sum x y over pairs of elements of Q(zeta_level), divided by den:
    accumulated on numerators over the lcm of the terms' denominators."""
    pairs = list(pairs)
    common = lcm(*(x.den * y.den for x, y in pairs))
    acc = [0] * (2 * len(pairs[0][0].num) - 1)
    for x, y in pairs:
        scale = common // (x.den * y.den)
        for i, a in enumerate(x.num):
            if a:
                a *= scale
                for k, b in enumerate(y.num, i):
                    acc[k] += a * b
    return _element(level, _reduce(level, acc), common * den)


def _root_sum(d: int, terms, den: int = 1) -> "CyclotomicNumber":
    """sum count * zeta_d^e / den over integer (e, count) terms, as one element."""
    vec = [0] * d
    for e, count in terms:
        vec[e % d] += count
    return _element(d, _reduce(d, vec), den)


def _conjugate_product(m: int, num):
    """For x = sum num[i] zeta_m^i, m > 2: sigma_(-1)(x), the product Q of
    sigma_j(y) over the units 2 <= j <= m/2 with y = x sigma_(-1)(x) (None
    when phi(m) = 2), and the integer norm N = y Q: phi(m)/2 products."""
    bar = _conjugate(m, num, -1)
    y = _reduce(m, _poly_mul(num, bar))
    rest = None
    for j in range(2, m // 2 + 1):
        if gcd(j, m) == 1:
            conj = _conjugate(m, y, j)
            rest = conj if rest is None else _reduce(m, _poly_mul(rest, conj))
    product = y if rest is None else _reduce(m, _poly_mul(y, rest))
    if any(product[1:]):
        raise ValueError(f"the conjugate product of {num} at level {m} is not rational")
    return bar, rest, product[0]


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


@dataclass(frozen=True, slots=True, init=False)
class CyclotomicNumber:
    """Element of Q(zeta_m) as sum(num[i] * zeta_m^i) / den, reduced mod Phi_m."""

    level: int
    num: tuple[int, ...]
    den: int

    def __init__(self, level: int, coeffs):
        """The element sum(coeffs[i] * zeta_level^i); len(coeffs) = phi(level)."""
        if len(coeffs) != euler_phi(level):
            raise ValueError("coefficient vector must have length phi(level)")
        _set_canonical(self, level, *_over_common_denominator(coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, m: int, coeffs) -> "CyclotomicNumber":
        """Reduce an arbitrary-length coefficient list modulo Phi_m."""
        num, den = _over_common_denominator(coeffs)
        return _element(m, _reduce(m, num), den)

    @classmethod
    def rational(cls, m: int, value) -> "CyclotomicNumber":
        value = Fraction(value)
        return _element(m, (value.numerator,) + (0,) * (euler_phi(m) - 1), value.denominator)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        return _root_sum(m, ((power, 1),))

    # -- ring structure -----------------------------------------------------

    def _check_level(self, other: "CyclotomicNumber"):
        if self.level != other.level:
            raise ValueError(
                f"level mismatch ({self.level} vs {other.level}); use raise_level explicitly"
            )

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check_level(other)
            return other
        return CyclotomicNumber.rational(self.level, other)

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return _element(self.level, [a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.level, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            r = Fraction(other)
            return _element(self.level, [a * r.numerator for a in self.num], self.den * r.denominator)
        self._check_level(other)
        return _element(
            self.level, _reduce(self.level, _poly_mul(self.num, other.num)), self.den * other.den
        )

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse from the conjugate product of norm_to_Q.

        With P = sigma_(-1)(x) Q the product of the conjugates sigma_j(x),
        j != 1, x P is the integer norm N, so (num/den)^(-1) = den P / N.
        For m > 2 the field is totally complex, so N = prod |sigma_j(x)|^2
        over j <= m/2 is positive.
        """
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic division by zero")
        m, num = self.level, self.num
        if m <= 2:  # Q(zeta_m) = Q
            return _element(m, (self.den if num[0] > 0 else -self.den,), abs(num[0]))
        bar, rest, norm = _conjugate_product(m, num)
        P = bar if rest is None else _reduce(m, _poly_mul(bar, rest))
        return _element(m, [c * self.den for c in P], norm)

    # -- predicates and views ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.num[0], self.den)

    @property
    def is_integral(self) -> bool:
        """True when all power-basis coefficients are integers."""
        return self.den == 1

    def __str__(self):
        coeffs = self.coeffs
        if self.is_rational:
            return str(coeffs[0])
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            term = "1" if i == 0 else (f"z{self.level}" if i == 1 else f"z{self.level}^{i}")
            parts.append(f"{c}*{term}" if i else str(c))
        return " + ".join(parts)

    def as_json(self) -> dict:
        """Level and coefficients as lowest-terms "num/den" strings, zero as "0/1"."""
        den = self.den
        coeffs = []
        for c in self.num:
            g = gcd(c, den)
            coeffs.append(f"{c // g}/{den // g}")
        return {"level": self.level, "coeffs": coeffs}

    # -- Galois theory -------------------------------------------------------

    def galois_conjugate(self, j: int) -> "CyclotomicNumber":
        """Image under the automorphism zeta_m -> zeta_m^j, gcd(j, m) = 1."""
        m = self.level
        if gcd(j, m) != 1:
            raise ValueError(f"{j} is not coprime to the level {m}")
        return _element(m, _conjugate(m, self.num, j), self.den)

    def norm_to_Q(self) -> Fraction:
        """Product of all Galois conjugates; lands in Q.

        For m > 2 the units j and -j mod m pair up through the real element
        y = x * sigma_(-1)(x): phi(m)/2 products of integer numerator
        vectors, divided by den^phi(m) once (_conjugate_product).  A product
        with an irrational part raises ValueError.

        >>> (1 - 2 * CyclotomicNumber.zeta(3)).norm_to_Q()
        Fraction(7, 1)
        >>> (1 - 3 * CyclotomicNumber.zeta(4)).norm_to_Q()
        Fraction(10, 1)
        >>> (1 - 2 * CyclotomicNumber.zeta(5)).inverse().norm_to_Q() == Fraction(1, 31)
        True
        """
        m, num = self.level, self.num
        if m <= 2:  # Q(zeta_m) = Q: x is its own norm
            return Fraction(num[0], self.den)
        return Fraction(_conjugate_product(m, num)[2], self.den ** len(num))  # len(num) = phi(m)

    def raise_level(self, m_new: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_m_new) along zeta_m -> zeta_m_new^(m_new/m)."""
        if m_new % self.level != 0:
            raise ValueError(f"{self.level} does not divide {m_new}")
        return _element(m_new, _conjugate(m_new, self.num, m_new // self.level), self.den)


def multiplication_matrix(z: CyclotomicNumber) -> IntMatrix:
    """Matrix of multiplication by an integral z on Z[zeta_m] in the power basis.

    Column i is zeta^i z, column i - 1 moved up one place and reduced."""
    if not z.is_integral:
        raise ValueError("integral element required")
    cols = [z.num]  # den == 1
    for _ in range(1, len(z.num)):
        cols.append(_reduce(z.level, (0,) + cols[-1]))
    return IntMatrix(len(cols), len(cols), tuple(zip(*cols)))


def quotient_by_principal(z: CyclotomicNumber) -> FgAbelianGroup:
    """The abelian group Z[zeta_m]/(z) for integral z != 0, in invariant
    factors, where m is z.level.

    Computed as the cokernel of the multiplication-by-z matrix, whose
    columns zeta^i z are each the last one times zeta; its order equals
    |norm_to_Q(z)|.
    """
    if z.is_zero:
        raise ZeroDivisionError("quotient by (0) is infinite")
    return cokernel(multiplication_matrix(z).data)

