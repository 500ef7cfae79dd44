"""Dirichlet characters, generalized Bernoulli numbers, and exact special
values of abelian L-functions.

Characters mod N are stored as exponent vectors over a fixed generator
decomposition of (Z/N)^x (the 2-part contributes -1 and 3 as generators
when 8 | N).  Values live in Q(zeta_n) for n the order of the character.
L(1-k, chi) is computed through the generalized Bernoulli number of the
primitive character: primitivization is always applied first, which is
what makes the zeta factorization of an abelian field exact rather than
exact-up-to-Euler-factors.  The norm and order identities sum over the
squarefree divisors of the field degree, one subgroup-chain step each.

Each character's kernel is computed once, and the subgroup tests of the
abelian-field layer are set operations on it: H <= kernel for the fixed
field of H, kernel == H for a faithful character of (Z/N)^x / H.  The
fields themselves are kernels too: a subfield of Q(zeta_N) that is cyclic
over Q and totally real is the fixed field of the kernel of an even
character mod N, so real_cyclic_fields lists them without enumerating
subgroups.

Each pure per-field and per-character value is computed once per process
(lru_cache), keyed as follows: the closure check of a subgroup on the
reduced (N, H), the characters with kernel H on (N, H), a subgroup-chain
step on (N, H, S), a Dedekind zeta value on (N, H, s), the integer
values den f^k B_k(a/f) of the residues a = 1..f on (k, f), and the
array of chi(a) exponents by residue on the character.  That array is
built only for the primitive characters whose values generalized_bernoulli
sums; kernels are read through value_exponent, so listing all phi(N)
characters of a large modulus builds none.  An invalid H raises on every
call, since no exception is cached.

Residues are kept in [0, N); for N = 1 the unit group is the single
residue 0, which keeps every formula degenerate-safe.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm, prod

from .cyclotomic import CyclotomicNumber, _root_sum
from .numtheory import divisors, euler_phi, factorize, smallest_primitive_root, squarefree_divisors
from .report import PREDICTION, VerificationReport, fmt_rational


def _crt_lift(res: int, q: int, N: int) -> int:
    """x mod N with x = res mod q and x = 1 mod N/q (q a prime-power factor
    of N): 1 plus the multiple of N/q that is res - 1 mod q."""
    other = N // q
    return (1 + other * ((res - 1) * pow(other, -1, q))) % N


@lru_cache(maxsize=None)
def unit_group(N: int) -> tuple[tuple[int, int], ...]:
    """Generators with orders of (Z/N)^x, deterministic.

    The 2-part comes first: nothing for 2^1, the single generator -1 for
    2^2, and the pair (-1, 3) for 2^e with e >= 3; odd prime powers
    contribute their smallest primitive root.  All generators are lifted
    to be 1 modulo the complementary factor.

    >>> unit_group(5)
    ((2, 4),)
    >>> unit_group(8)
    ((7, 2), (3, 2))
    >>> unit_group(12)
    ((7, 2), (5, 2))
    """
    if N < 1:
        raise ValueError("positive modulus required")
    out = []
    for p, e in factorize(N):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                out.append((_crt_lift(3, q, N), 2))
            else:
                out.append((_crt_lift(q - 1, q, N), 2))
                out.append((_crt_lift(3, q, N), 2 ** (e - 2)))
        else:
            out.append((_crt_lift(smallest_primitive_root(q), q, N), euler_phi(q)))
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_dlog_table(N: int) -> dict[int, tuple[int, ...]]:
    """residue -> exponent tuple over the unit_group generators."""
    gens = unit_group(N)
    table = {}
    for exps in itertools.product(*[range(o) for _, o in gens]):
        a = 1 % N
        for (g, _), e in zip(gens, exps):
            a = (a * pow(g, e, N)) % N
        table.setdefault(a, exps)
    if len(table) != euler_phi(N):
        raise AssertionError("generators do not span the unit group")
    return table


def units(N: int) -> tuple[int, ...]:
    return tuple(sorted(_unit_dlog_table(N).keys()))


@dataclass(frozen=True)
class DirichletCharacter:
    """chi(g_i) = zeta_(ord_i)^(exponents[i]) on the unit_group generators;
    chi(a) = 0 for a not coprime to the modulus."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        gens = unit_group(self.modulus)
        if len(self.exponents) != len(gens):
            raise ValueError("one exponent per generator required")
        if any(not 0 <= c < o for c, (_, o) in zip(self.exponents, gens)):
            raise ValueError("exponent out of range")

    # cached_property stores into the instance __dict__, which the frozen
    # dataclass allows; fields, __eq__, __hash__ and repr stay as they are.
    @cached_property
    def order(self) -> int:
        gens = unit_group(self.modulus)
        return lcm(*(o // gcd(o, c) for c, (_, o) in zip(self.exponents, gens)))

    @cached_property
    def _scales(self) -> tuple[int, ...]:
        """c * order / o per generator: chi(g_i) = zeta_order^(scale_i)."""
        n = self.order
        return tuple((c * n) // o for c, (_, o) in zip(self.exponents, unit_group(self.modulus)))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def value_exponent(self, a: int):
        """e with chi(a) = zeta_order^e, or None when gcd(a, N) > 1."""
        xs = _unit_dlog_table(self.modulus).get(a % self.modulus)
        if xs is None:
            return None
        return sum(x * s for x, s in zip(xs, self._scales)) % self.order

    def value(self, a: int) -> CyclotomicNumber:
        e = self.value_exponent(a)
        if e is None:
            return CyclotomicNumber.rational(self.order, 0)
        return CyclotomicNumber.zeta(self.order, e)

    @property
    def is_even(self) -> bool:
        return self.value_exponent(self.modulus - 1) == 0

    @property
    def is_odd(self) -> bool:
        return not self.is_even

    @cached_property
    def kernel(self) -> frozenset[int]:
        """The units a mod N with chi(a) = 1.

        >>> sorted(DirichletCharacter(5, (2,)).kernel)
        [1, 4]
        """
        return frozenset(a for a in units(self.modulus) if self.value_exponent(a) == 0)


@lru_cache(maxsize=None)
def all_characters(N: int) -> tuple[DirichletCharacter, ...]:
    gens = unit_group(N)
    return tuple(
        DirichletCharacter(N, exps)
        for exps in itertools.product(*[range(o) for _, o in gens])
    )


@lru_cache(maxsize=None)
def conductor_and_primitivize(chi: DirichletCharacter) -> tuple[int, DirichletCharacter]:
    """Smallest f | N through which chi factors, and the character mod f."""
    N = chi.modulus
    for f in divisors(N):
        if all(a in chi.kernel for a in units(N) if a % f == 1 % f):
            break
    # build the mod-f character: evaluate chi on lifts coprime to N
    gens_f = unit_group(f)
    n = chi.order
    exps = []
    for g, o in gens_f:
        b = g
        while gcd(b, N) != 1:
            b += f
        e = chi.value_exponent(b)
        exps.append((e * o) // n % o)
    return f, DirichletCharacter(f, tuple(exps))


# ---------------------------------------------------------------------------
# Bernoulli machinery


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    if k == 0:
        return Fraction(1)
    return Fraction(-1, k + 1) * sum(
        comb(k + 1, j) * bernoulli_number(j) for j in range(k)
    )


def bernoulli_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of B_k(x), lowest degree first."""
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = comb(k, j) * bernoulli_number(j)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _bernoulli_values(k: int, f: int) -> tuple[tuple[int, ...], int]:
    """The integers den f^k B_k(a/f) = sum_i w_i a^i for a = 1..f, each by
    Horner's rule, and den: w_i / den = c_i f^(k-i), c_i the coefficients
    of B_k(x)."""
    weights = [c * f ** (k - i) for i, c in enumerate(bernoulli_polynomial(k))]
    den = lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (den // w.denominator) for w in reversed(weights)]
    values = []
    for a in range(1, f + 1):
        acc = 0
        for w in weights:
            acc = acc * a + w
        values.append(acc)
    return tuple(values), den


@lru_cache(maxsize=None)
def _residue_exponents(chi: DirichletCharacter) -> array:
    """At index a - 1 for a in 1..f: e with chi(a) = zeta_order^e, or -1
    where gcd(a, f) > 1.

    Built only for the characters whose values generalized_bernoulli sums,
    never for those only asked for a kernel.  A field of large modulus with
    a small H sums about phi(N) characters, so the table holds machine
    integers (8 bytes a residue), not Python pairs (about 120 bytes)."""
    f = chi.modulus
    return array("l", (-1 if e is None else e
                       for e in map(chi.value_exponent, range(1, f + 1))))


def generalized_bernoulli(chi: DirichletCharacter, k: int) -> CyclotomicNumber:
    """B_(k,chi) = f^(k-1) sum_(a=1..f) chi(a) B_k(a/f) for primitive chi mod f.

    One sum of roots of unity on integers: with chi(a) = zeta^e and the
    residue values den f^k B_k(a/f) of _bernoulli_values, residue a adds
    its value to the coefficient of zeta^e, and the sum is divided by
    den f once.

    >>> generalized_bernoulli(DirichletCharacter(5, (2,)), 2).as_rational()
    Fraction(4, 5)
    >>> generalized_bernoulli(DirichletCharacter(4, (1,)), 1).as_rational()
    Fraction(-1, 2)
    """
    if k < 1:
        raise ValueError("positive k required")
    f = chi.modulus
    cond, _ = conductor_and_primitivize(chi)
    if cond != f:
        raise ValueError("primitive character required")
    values, den = _bernoulli_values(k, f)
    return _root_sum(chi.order, ((e, v) for e, v in zip(_residue_exponents(chi), values) if e >= 0),
                     den * f)


@lru_cache(maxsize=None)
def dirichlet_l_value(chi: DirichletCharacter, s: int) -> CyclotomicNumber:
    """Exact L(s, chi) at s = 1 - k <= 0, via -B_(k,chi*)/k for the
    primitive chi*.  The pole case (s = 0 with trivial chi) is rejected."""
    if s > 0:
        raise ValueError("nonpositive s required")
    k = 1 - s
    if k == 1 and chi.is_trivial:
        raise ValueError("zeta has a pole adjacent to s = 0; k = 1 is excluded for the trivial character")
    _, prim = conductor_and_primitivize(chi)
    return generalized_bernoulli(prim, k) * Fraction(-1, k)


# ---------------------------------------------------------------------------
# subgroups of (Z/N)^x and abelian fields


def _validate_subgroup(N: int, H) -> frozenset[int]:
    return _checked_subgroup(N, frozenset(a % N for a in H))


@lru_cache(maxsize=None)
def _checked_subgroup(N: int, H: frozenset[int]) -> frozenset[int]:
    # an invalid H raises, and lru_cache stores no exception: it raises again
    # on every call
    if not H or not H <= set(units(N)):
        raise ValueError(f"{sorted(H)} is not a set of units mod {N}")
    for a in H:
        for b in H:
            if (a * b) % N not in H:
                raise ValueError(f"{sorted(H)} is not closed under multiplication mod {N}")
    return H


@lru_cache(maxsize=None)
def _characters_with_kernel(N: int, H: frozenset[int]) -> tuple[DirichletCharacter, ...]:
    # H is a reduced subgroup: a public caller has validated it
    return tuple(chi for chi in all_characters(N) if chi.kernel == H)


def real_cyclic_fields(N: int) -> tuple[frozenset[int], ...]:
    """The subgroups H of (Z/N)^x whose fixed field in Q(zeta_N) is cyclic
    over Q and totally real, ordered by (size, sorted residues).

    These are the distinct kernels of the even characters mod N: the
    quotient by H is cyclic exactly when a character has kernel H, and -1
    lies in that kernel exactly when the character is even.

    >>> [sorted(H) for H in real_cyclic_fields(5)]
    [[1, 4], [1, 2, 3, 4]]
    """
    minus_one = (N - 1) % N
    kernels = {chi.kernel for chi in all_characters(N) if minus_one in chi.kernel}
    return tuple(sorted(kernels, key=lambda H: (len(H), sorted(H))))


def field_degree(N: int, H) -> int:
    """Degree over Q of the fixed field of H inside Q(zeta_N)."""
    return euler_phi(N) // len(H)


def signature(N: int, H) -> tuple[int, int]:
    """(r1, r2) of the fixed field: totally real iff -1 lies in H."""
    deg = field_degree(N, H)
    if (N - 1) % N in H:
        return deg, 0
    return 0, deg // 2


def dedekind_zeta_abelian(N: int, H, s: int) -> Fraction:
    """zeta of the fixed field of H at s = 1 - k <= -1, as the product of
    the L-values of the characters trivial on H (each primitivized)."""
    return _dedekind_zeta(N, _validate_subgroup(N, H), s)


@lru_cache(maxsize=None)
def _dedekind_zeta(N: int, H: frozenset[int], s: int) -> Fraction:
    # H is a reduced subgroup: a public caller has validated it, or
    # _subgroup_chain built it
    k = 1 - s
    if k < 2:
        raise ValueError("k >= 2 required (the trivial character hits the excluded k = 1)")
    values = [dirichlet_l_value(chi, s) for chi in all_characters(N) if H <= chi.kernel]
    level = lcm(*(v.level for v in values))
    return prod(v.raise_level(level) for v in values).as_rational()


@lru_cache(maxsize=None)
def _subgroup_chain(N: int, H: frozenset[int], S_product: int) -> frozenset[int]:
    """Preimage in (Z/N)^x of the order-S_product subgroup of the cyclic
    quotient by H: the units whose S_product-th power lies in H."""
    return frozenset(a for a in units(N) if pow(a, S_product, N) in H)


def verify_norm_identity_numberfield(N: int, H, n: int) -> VerificationReport:
    """Norm of L(chi, 1-2n) against the inclusion-exclusion product of
    Dedekind zeta values over the subgroup chain; chi has kernel exactly H.

    Requires -1 in H (totally real fixed field) and a cyclic quotient.
    """
    H = _validate_subgroup(N, H)
    if (N - 1) % N not in H:
        raise ValueError("-1 must lie in H (totally real fixed field required)")
    chars = _characters_with_kernel(N, H)
    if not chars:
        raise ValueError("quotient by H must be cyclic")
    if n < 1:
        raise ValueError("positive n required")
    m = field_degree(N, H)
    case = f"numfield N={N} H={sorted(H)} n={n}"
    rep = VerificationReport()
    s = 1 - 2 * n
    lhs = dirichlet_l_value(chars[0], s).norm_to_Q()
    rhs = prod(_dedekind_zeta(N, _subgroup_chain(N, H, d), s) ** mu
               for d, mu in squarefree_divisors(m))
    rep.check(case, "norm_identity", "norm_of_L|moebius_dedekind_zeta",
              lhs, rhs, render=fmt_rational)
    return rep


def zeta_order_of_vanishing(N: int, H, s: int) -> int:
    """ord at s = 1 - k (k >= 2) of the zeta of the fixed field of H:
    r1 + r2 for odd k, r2 for even k."""
    k = 1 - s
    if k < 2:
        raise ValueError("k >= 2 required")
    r1, r2 = signature(N, H)
    return r1 + r2 if k % 2 == 1 else r2


def verify_order_identity(N: int, H, k: int) -> VerificationReport:
    """phi(m) * ord L(chi, 1-k) against the alternating sum of zeta orders
    over the subgroup chain; chi primitive on the cyclic quotient by H."""
    H = _validate_subgroup(N, H)
    chars = _characters_with_kernel(N, H)
    if not chars:
        raise ValueError("quotient by H must be cyclic")
    if k < 2:
        raise ValueError("k >= 2 required")
    m = field_degree(N, H)
    case = f"numfield N={N} H={sorted(H)} k={k}"
    rep = VerificationReport()
    chi = chars[0]
    parity_match = (chi.is_even and k % 2 == 0) or (chi.is_odd and k % 2 == 1)
    ord_l = 0 if parity_match else 1
    lhs = euler_phi(m) * ord_l
    rhs = sum(mu * zeta_order_of_vanishing(N, _subgroup_chain(N, H, d), 1 - k)
              for d, mu in squarefree_divisors(m))
    rep.check(case, "order_identity", "parity_bernoulli|borel_table_moebius", lhs, rhs)
    return rep


def predict_k_ratio(N: int, H, n: int) -> tuple[Fraction, VerificationReport]:
    """zeta_(F')(1-2n) / ((-1)^n 2)^(r1): the predicted ratio
    #K_(4n-2)(O_F') / #K_(4n-1)(O_F').  Emitted as a PREDICTION record,
    never asserted against external data."""
    H = _validate_subgroup(N, H)
    if (N - 1) % N not in H:
        raise ValueError("-1 must lie in H (totally real field required)")
    r1, _ = signature(N, H)
    value = _dedekind_zeta(N, H, 1 - 2 * n) / Fraction((-1) ** n * 2) ** r1
    rep = VerificationReport()
    rep.add(
        f"numfield N={N} H={sorted(H)} n={n}",
        f"k_ratio_prediction 4n-2={4 * n - 2}",
        "zeta_over_sign_power",
        fmt_rational(value),
        PREDICTION,
    )
    return value, rep
