"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) as an
integer numerator vector over one positive denominator, reduced modulo the
m-th cyclotomic polynomial and normalized so that gcd(num..., den) = 1, with
zero stored as 0/1.  The representation is canonical, so equality and
hashing compare plain tuples.  Levels are never mixed implicitly;
raise_level gives the embedding zeta_m' -> zeta_m^(m/m') for m' | m.

Norms down to Q are computed as products of Galois conjugates, never by
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .abelian import FgAbelianGroup, IntMatrix, PresentedAbelianGroup
from .gf import _trim
from .numtheory import divisors, euler_phi


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


def _poly_div_exact(a, b):
    """Exact quotient of integer polynomials a / b; b monic."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j, y in enumerate(b, i - db):
                a[j] -= c * y
    if any(a):
        raise ArithmeticError("division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first.

    Computed by dividing x^m - 1 by each lower-level factor in turn; monic
    of degree phi(m) and irreducible over Q.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("level must be positive")
    quo = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d < m:
            quo = _poly_div_exact(quo, cyclotomic_polynomial(d))
    return tuple(quo)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^i mod Phi_m for phi(m) <= i < m, each row as the (index,
    coefficient) pairs of its nonzero power-basis coefficients."""
    phi_m = cyclotomic_polynomial(m)
    row = [-c for c in phi_m[:-1]]
    rows = []
    for _ in range(len(row), m):
        rows.append(tuple((k, c) for k, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi_m)]
    return tuple(rows)


def _reduce(m: int, vec) -> tuple[int, ...]:
    """Power-basis coefficients of sum(vec[i] x^i) mod Phi_m, for integer vec
    of any length.  Exponents first fold mod m, valid as Phi_m | x^m - 1."""
    table = _reduction_table(m)
    phi = m - len(table)
    if len(vec) > m:
        folded = [0] * m
        for i, c in enumerate(vec):
            folded[i % m] += c
        vec = folded
    out = list(vec[:phi])
    out += [0] * (phi - len(out))
    for i in range(phi, len(vec)):
        c = vec[i]
        if c:
            for k, t in table[i - phi]:
                out[k] += c * t
    return tuple(out)


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
        return _element(m, _reduce(m, [0] * (power % m) + [1]), 1)

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
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_m.

        Fraction-free: each remainder is a pseudo-remainder over Z, and each
        (remainder, cofactor) pair is divided by its common content.
        """
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic division by zero")
        # invariant: r_k = s_k * num (mod Phi_m) with integer r_k, s_k; Phi_m
        # is irreducible and deg(num) < deg(Phi_m), so the remainders end in
        # a nonzero constant
        m = self.level
        r0, s0 = list(cyclotomic_polynomial(m)), [0]
        r1, s1 = _trim(list(self.num)), [1]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                g = gcd(r0[-1], r1[-1])
                lead, c, shift = r1[-1] // g, r0[-1] // g, len(r0) - len(r1)
                r0 = _trim(_scaled_sub(r0, lead, c, r1, shift))
                s0 = _scaled_sub(s0, lead, c, s1, shift)
            g = gcd(*r0, *s0)
            r0, r1 = r1, [x // g for x in r0]
            s0, s1 = s1, [x // g for x in s0]
        c = r1[0]
        scale = self.den if c > 0 else -self.den
        return _element(m, _reduce(m, [x * scale for x in s1]), abs(c))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.rational(self.level, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return {
            "level": self.level,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    # -- Galois theory -------------------------------------------------------

    def galois_conjugate(self, j: int) -> "CyclotomicNumber":
        """Image under the automorphism zeta_m -> zeta_m^j, gcd(j, m) = 1."""
        m = self.level
        if gcd(j, m) != 1:
            raise ValueError(f"{j} is not coprime to the level {m}")
        out = [0] * m
        for i, c in enumerate(self.num):
            out[(i * j) % m] += c
        return _element(m, _reduce(m, out), self.den)

    def norm_to_Q(self) -> Fraction:
        """Product of all Galois conjugates; lands in Q.

        >>> (1 - 2 * CyclotomicNumber.zeta(3)).norm_to_Q()
        Fraction(7, 1)
        >>> (1 - 3 * CyclotomicNumber.zeta(4)).norm_to_Q()
        Fraction(10, 1)
        """
        m = self.level
        result = CyclotomicNumber.rational(m, 1)
        for j in range(1, m + 1):
            if gcd(j, m) == 1:
                result = result * self.galois_conjugate(j)
        return result.as_rational()

    def raise_level(self, m_new: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_m_new) along zeta_m -> zeta_m_new^(m_new/m)."""
        if m_new % self.level != 0:
            raise ValueError(f"{self.level} does not divide {m_new}")
        step = m_new // self.level
        out = [0] * ((len(self.num) - 1) * step + 1)
        for i, c in enumerate(self.num):
            out[i * step] += c
        return _element(m_new, _reduce(m_new, out), self.den)


def multiplication_matrix(z: CyclotomicNumber) -> IntMatrix:
    """Matrix of multiplication by an integral z on Z[zeta_m] in the power basis."""
    if not z.is_integral:
        raise ValueError("integral element required")
    phi = euler_phi(z.level)
    # column i is zeta^i z: the coefficients of z shifted up by i, reduced
    cols = [_reduce(z.level, (0,) * i + z.num) for i in range(phi)]  # den == 1
    return IntMatrix.from_rows(zip(*cols), phi)


def quotient_by_principal(m: int, z: CyclotomicNumber) -> FgAbelianGroup:
    """The abelian group Z[zeta_m]/(z) for integral z != 0, in invariant factors.

    Computed as the cokernel of the multiplication-by-z matrix; its order
    equals |norm_to_Q(z)|.
    """
    if z.level != m:
        raise ValueError("level mismatch")
    if z.is_zero:
        raise ZeroDivisionError("quotient by (0) is infinite")
    return PresentedAbelianGroup(euler_phi(m), multiplication_matrix(z)).normal_form()


# -- low-level polynomial helpers used by inverse() ---------------------------


def _scaled_sub(a, lead, c, b, shift):
    """lead * a - c * x^shift * b for integer polynomials a, b."""
    out = [lead * x for x in a]
    out += [0] * (len(b) + shift - len(out))
    for j, y in enumerate(b, shift):
        out[j] -= c * y
    return out
