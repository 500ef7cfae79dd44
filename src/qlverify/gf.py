"""Arithmetic in F_(p^r) for prime p: one fixed irreducible modulus per degree.

Elements are coefficient tuples of length r (lowest degree first), or
equivalently integers 0 <= n < p^r via base-p encoding.  The modulus is the
monic irreducible polynomial of degree r whose non-leading coefficient
vector has the smallest base-p encoding.  The tables of the curve engine
use primitive_polynomial instead: the first candidate in the same order in
which x generates the multiplicative group and has norm g_p, the smallest
primitive root mod p.  That norm condition is the one place where the
package fixes its generators: x^((p^r - 1)/(p - 1)) = g_p in every degree,
so a log in F_(p^r) taken mod p - 1 is already a log to the base g_p.
Irreducibility is Ben-Or's gcd test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .numtheory import factorize, is_prime, smallest_primitive_root


# -- dense polynomials over F_p, lowest degree first, no trailing zeros ------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul_mod_p(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def poly_rem(a, m, p):
    """a mod m over F_p; m monic."""
    a = [x % p for x in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    del a[dm:]
    return _trim(a)


def _monic(a, p):
    a = _trim([x % p for x in a])
    inv = pow(a[-1], p - 2, p) if a else 0
    return [(c * inv) % p for c in a]


def poly_gcd(a, b, p):
    """Monic gcd of a and b over F_p ([] when both are 0)."""
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(poly_rem(a, b, p), p)
    return a


def poly_pow_mod(base, exponent, modulus, p):
    result = [1]
    base = poly_rem(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = poly_rem(poly_mul_mod_p(result, base, p), modulus, p)
        base = poly_rem(poly_mul_mod_p(base, base, p), modulus, p)
        exponent >>= 1
    return result


def is_irreducible(m, p) -> bool:
    """Monic m of degree r >= 1 irreducible over F_p, by Ben-Or's test:
    gcd(x^(p^i) - x, m) = 1 for every i <= r/2.  A reducible m has an
    irreducible factor of some degree i <= r/2, which divides x^(p^i) - x,
    so most candidates fail at a small i.

    >>> is_irreducible([1, 1, 1], 2), is_irreducible([1, 0, 1], 2)
    (True, False)
    >>> is_irreducible([1, 0, 0, 0, 1], 3)  # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2)
    False
    """
    r = len(m) - 1
    if r < 1 or m[-1] != 1:
        raise ValueError("monic polynomial of positive degree required")
    frob = [0, 1]
    for _ in range(r // 2):
        frob = poly_pow_mod(frob, p, m, p)  # x^(p^i) mod m
        diff = frob + [0] * (2 - len(frob))
        diff[1] -= 1
        if poly_gcd(diff, m, p) != [1]:
            return False
    return True


def _monic_candidates(p: int, r: int):
    """Monic polynomials of degree r over F_p, lowest degree first, in
    increasing base-p encoding of their non-leading coefficients."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("degree must be >= 1")
    return ([code // p**i % p for i in range(r)] + [1] for code in range(p**r))


@lru_cache(maxsize=None)
def default_modulus(p: int, r: int) -> tuple[int, ...]:
    """Monic irreducible of degree r over F_p with the smallest base-p
    encoding of its non-leading coefficients."""
    for m in _monic_candidates(p, r):
        if is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")


def primitive_polynomial(p: int, r: int) -> tuple[int, ...]:
    """The first monic m of degree r, in default_modulus's candidate order,
    that is irreducible over F_p, in which x has multiplicative order
    n = p^r - 1, and whose norm (-1)^r m(0) mod p is g_p, the smallest
    primitive root mod p.  So m is the minimal polynomial of a generator x
    of F_(p^r)^x = (F_p[x]/m)^x with x^(n/(p-1)) = g_p: the tables of
    every degree share the generator g_p of F_p^x, as Conway polynomials
    do (the norm onto F_p^x maps the generators of F_(p^r)^x onto those of
    F_p^x, so such an m exists).

    >>> primitive_polynomial(2, 4)  # x^4 + x + 1
    (1, 1, 0, 0, 1)
    >>> primitive_polynomial(3, 2), default_modulus(3, 2)  # x^2 + 1 has x^4 = 1
    ((2, 1, 1), (1, 0, 1))
    >>> primitive_polynomial(7, 1)  # x - 3: 3 is the smallest primitive root mod 7
    (4, 1)
    """
    candidates = _monic_candidates(p, r)  # checks p and r before factorize(n)
    n = p**r - 1
    order_primes = factorize(n).primes
    g_p = smallest_primitive_root(p) % p
    for m in candidates:
        # (-1)^r m(0) is the norm of x: this integer test rejects all but
        # one candidate in p before any polynomial arithmetic
        if ((-1) ** r * m[0] % p == g_p and is_irreducible(m, p)
                and all(poly_pow_mod([0, 1], n // ell, m, p) != [1] for ell in order_primes)):
            return tuple(m)
    raise AssertionError("no primitive polynomial found")


@dataclass(frozen=True)
class FieldExt:
    """The field F_(p^r) as F_p[x] modulo a fixed irreducible modulus."""

    p: int
    r: int
    modulus: tuple[int, ...]

    @classmethod
    def create(cls, p: int, r: int) -> "FieldExt":
        return cls(p, r, default_modulus(p, r))

    def __post_init__(self):
        if len(self.modulus) != self.r + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if not is_irreducible(list(self.modulus), self.p):
            raise ValueError("modulus is reducible")

    @property
    def size(self) -> int:
        return self.p**self.r

    def zero(self):
        return (0,) * self.r

    def one(self):
        return (1,) + (0,) * (self.r - 1)

    def from_int(self, c: int):
        return (c % self.p,) + (0,) * (self.r - 1)

    def encode(self, elem) -> int:
        out = 0
        for c in reversed(elem):
            out = out * self.p + c
        return out

    def decode(self, code: int):
        digits = []
        for _ in range(self.r):
            digits.append(code % self.p)
            code //= self.p
        return tuple(digits)

    def elements(self):
        for code in range(self.size):
            yield self.decode(code)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = poly_mul_mod_p(list(a), list(b), self.p)
        red = poly_rem(prod, list(self.modulus), self.p)
        return tuple(red) + (0,) * (self.r - len(red))

    def pow(self, a, n: int):
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def eval_poly(self, coeffs, x):
        """Evaluate a polynomial with F_p coefficients at a field element."""
        acc = self.zero()
        for c in reversed(list(coeffs)):
            acc = self.mul(acc, x)
            acc = self.add(acc, self.from_int(c))
        return acc

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)
