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

For p <= 13 and p^r <= 3 * 10^7, the fields the curve engine enumerates
by default, primitive_polynomial reads its answer from _PRIMITIVE_CODES
and checks only the norm: the walk check of the curve tables proves the
entry primitive.  Other fields are searched over the candidates of norm
g_p alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .numtheory import is_prime, prime_factors, smallest_primitive_root


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


def _check_field(p: int, r: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("degree must be >= 1")


def _monic_candidates(p: int, r: int):
    """Monic polynomials of degree r over F_p, lowest degree first, in
    increasing base-p encoding of their non-leading coefficients."""
    _check_field(p, r)
    return ([code // p**i % p for i in range(r)] + [1] for code in range(p**r))


@lru_cache(maxsize=None)
def default_modulus(p: int, r: int) -> tuple[int, ...]:
    """Monic irreducible of degree r over F_p with the smallest base-p
    encoding of its non-leading coefficients."""
    for m in _monic_candidates(p, r):
        if is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")


# primitive_polynomial(p, r) for p <= 13, r = 1, 2, ... while p^r <=
# curves.DEFAULT_MAX_FIELD_SIZE: the base-p encoding of its non-leading
# coefficients
_PRIMITIVE_CODES = {
    2: (1, 3, 3, 3, 5, 3, 3, 29, 17, 9, 5, 83, 27, 43, 3, 45, 9, 39, 39, 9, 5, 3, 33, 27),
    3: (1, 5, 7, 5, 7, 5, 16, 29, 64, 32, 16, 215, 7, 5, 16),
    5: (3, 7, 18, 37, 23, 7, 18, 157, 38, 37),
    7: (4, 10, 67, 171, 11, 171, 46, 10),
    11: (9, 46, 31, 13, 163, 508, 53),
    13: (11, 15, 37, 184, 63, 197),
}


def primitive_polynomial(p: int, r: int) -> tuple[int, ...]:
    """The first monic m of degree r, in default_modulus's candidate order,
    that is irreducible over F_p, in which x has multiplicative order
    n = p^r - 1, and whose norm (-1)^r m(0) mod p is g_p, the smallest
    primitive root mod p.  So m is the minimal polynomial of a generator x
    of F_(p^r)^x = (F_p[x]/m)^x with x^(n/(p-1)) = g_p: the tables of
    every degree share the generator g_p of F_p^x, as Conway polynomials
    do (the norm onto F_p^x maps the generators of F_(p^r)^x onto those of
    F_p^x, so such an m exists).

    A field in _PRIMITIVE_CODES gets its stored m with only the norm
    checked; other fields are searched (_search_primitive).  The walk check
    of curves._FieldTables proves a stored m primitive.  As the norm c is
    nonzero, a -> e_0 a(T), T the companion matrix of m, is an F_p-linear
    bijection R = F_p[x]/m -> F_p^r sending x^i to the walk's window i.  If
    m is irreducible, x^(n/(p-1)) = c in the field R: the walk's scaled
    copies are exact, and n distinct windows mean that x has order n.  If
    m is reducible, R has at least p^ceil(r/2) - 1 nonzero non-units, but
    every window inside one copy is the image of c^k x^i, a unit: only the
    r - 1 windows across each copy boundary could reach the non-units, and
    for every stored m they are too few (tests/test_primitive_literal.py
    counts them).

    >>> primitive_polynomial(2, 4)  # x^4 + x + 1
    (1, 1, 0, 0, 1)
    >>> primitive_polynomial(3, 2), default_modulus(3, 2)  # x^2 + 1 has x^4 = 1
    ((2, 1, 1), (1, 0, 1))
    >>> primitive_polynomial(7, 1)  # x - 3: 3 is the smallest primitive root mod 7
    (4, 1)
    """
    _check_field(p, r)
    g_p = smallest_primitive_root(p) % p
    codes = _PRIMITIVE_CODES.get(p, ())
    if r > len(codes):
        return _search_primitive(p, r, g_p)
    m = tuple(codes[r - 1] // p**i % p for i in range(r)) + (1,)
    if (-1) ** r * m[0] % p != g_p:
        raise AssertionError(f"stored primitive polynomial {m} over F_{p} does not have norm {g_p}")
    return m


def _search_primitive(p: int, r: int, g_p: int) -> tuple[int, ...]:
    """primitive_polynomial by search.  The norm of x is (-1)^r m(0), so
    only the p^(r-1) candidates with that constant term are tried, in
    default_modulus's order: Ben-Or, then the order test x^(n/l) != 1 for
    the primes l of n prime to p - 1 (for l | p - 1 the norm already gives
    x^(n/l) = g_p^((p-1)/l) != 1)."""
    n = p**r - 1
    order_primes = [ell for ell in prime_factors(n) if (p - 1) % ell]
    constant = (-1) ** r * g_p % p
    for code in range(p ** (r - 1)):
        m = [constant] + [code // p**i % p for i in range(r - 1)] + [1]
        if is_irreducible(m, p) and all(poly_pow_mod([0, 1], n // ell, m, p) != [1] for ell in order_primes):
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
