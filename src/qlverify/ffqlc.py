"""Finite-field identities between L-values and equivariant K-group sizes.

The K-groups of F_q are Z in degree 0, Z/(q^n - 1) in degree 2n-1, and 0
otherwise.  For the cyclic extension F_{q^m}/F_q they form restriction
data over C_m: the level-d value is K_t(F_{q^(m/d)}) and the restriction
into a lower level is injection by the explicit multiplier
(q^(nm/d) - 1)/(q^(nm/d') - 1).

verify_main_theorem_ff cross-checks, for a character of C_m and k >= 1,
five independently computed quantities: the conjugate-product norm of the
L-value 1/(1 - zeta^a q^k), the inclusion-exclusion product of zeta values
of the intermediate fields, the signed ratio of equivariant homotopy group
orders from Bredon cohomology, the cyclotomic quotient Z[zeta]/(1 - zeta q^k),
and a gcd closed form for the group order.  The printed L-value, raised to
level m, is also checked against the geometric sum
sum_(j<m) zeta_m^(a j) q^(k j) / (1 - q^(k m)) of the character received,
which reads no primitive character.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .abelian import FgAbelianGroup
from .cyclotomic import CyclotomicNumber, _root_sum, quotient_by_principal
from .equivariant import CyclicMackeyData, bredon_cohomology
from .numtheory import divisors, prime_factors, prime_power_decomposition, squarefree_divisors
from .report import FAIL, PASS, SKIP, VerificationReport, fmt_rational


@dataclass(frozen=True)
class CyclicCharacter:
    """Character of C_m sending a fixed generator to zeta_m^a."""

    m: int
    a: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("group order must be positive")

    @property
    def is_trivial(self) -> bool:
        return self.a % self.m == 0

    def primitivize(self) -> "CyclicCharacter":
        """The injective character of C_m' through which this one factors."""
        g = gcd(self.m, self.a % self.m) if self.a % self.m else self.m
        return CyclicCharacter(self.m // g, (self.a % self.m) // g)


@dataclass(frozen=True)
class InducedRepFF:
    """Direct sum of inductions of characters from subgroups C_h <= C_m."""

    m: int
    summands: tuple[tuple[int, int, int], ...]  # (h, a, multiplicity)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"group order must be positive, got {self.m}")
        for h, a, mult in self.summands:
            if h < 1 or self.m % h != 0:
                raise ValueError(f"subgroup order {h} is not a positive divisor of {self.m}")
            if mult < 1:
                raise ValueError("multiplicity must be positive")


def k_mackey_finite_field(q: int, m: int, t: int) -> CyclicMackeyData:
    """Restriction data of K_t along the subfields of F_{q^m}/F_q, t odd.

    value(d) = K_t(F_{q^(m/d)}); the restriction from level d' down to
    level d | d' is multiplication by (q^(nm/d) - 1)/(q^(nm/d') - 1).
    """
    prime_power_decomposition(q)
    if t < 1 or t % 2 == 0:
        raise ValueError("odd positive degree required (even K-groups vanish)")
    n = (t + 1) // 2
    return CyclicMackeyData(m, {d: q ** (n * m // d) - 1 for d in divisors(m)})


def _euler_factor(q: int, chi: CyclicCharacter, k: int) -> CyclotomicNumber:
    """1 - zeta^a q^k at the primitive level m' of chi, built as one element."""
    prim = chi.primitivize()
    return _root_sum(prim.m, ((0, 1), (prim.a, -q**k)))


def artin_l_value_ff(q: int, chi: CyclicCharacter, k: int) -> CyclotomicNumber:
    """L(F_q, chi, -k) = 1/(1 - zeta^a q^k), at the primitive level of chi."""
    prime_power_decomposition(q)
    if k < 1:
        raise ValueError("positive k required")
    return _euler_factor(q, chi, k).inverse()


def _equivariant_l_value(q: int, chi: CyclicCharacter, k: int) -> CyclotomicNumber:
    """L(F_q, chi, -k) = chi((1 - sigma q^k)^(-1)) for Frobenius sigma in
    Q[C_m], m = chi.m: as (1 - sigma x)^(-1) = sum_(j<m) sigma^j x^j / (1 - x^m),
    the sum of zeta_m^(a j) q^(k j) over j < m, over 1 - q^(k m).  One
    _root_sum at level m, with no primitive character, Euler factor or inverse."""
    m = chi.m
    return _root_sum(m, ((chi.a * j, -q ** (k * j)) for j in range(m)), q ** (k * m) - 1)


def zeta_value_ff(q_power: int, k: int) -> Fraction:
    """zeta(F_Q, -k) = 1/(1 - Q^k)."""
    return Fraction(1, 1 - q_power**k)


@lru_cache(maxsize=None)
def moebius_zeta_product_ff(q: int, m: int, k: int) -> Fraction:
    """Inclusion-exclusion product of zeta values of intermediate fields:
    prod over the squarefree divisors d of m of zeta(F_{q^(m/d)}, -k)^mu(d).

    Cached: it reads no character, so the characters of one level share it."""
    prime_power_decomposition(q)
    if m < 1 or k < 1:
        raise ValueError("positive m and k required")
    return prod(zeta_value_ff(q ** (m // d), k) ** mu for d, mu in squarefree_divisors(m))


def equivariant_k_finite_field(q: int, rep, t: int) -> FgAbelianGroup:
    """Equivariant homotopy group in degree t >= 1 with coefficients in a
    character of C_m or an InducedRepFF; m is rep.m.

    Characters first descend to their primitive quotient; induced sums
    reduce summand by summand, replacing the base field by the fixed field
    F_{q^(m/h)} of the inducing subgroup.

    >>> print(equivariant_k_finite_field(2, CyclicCharacter(4, 1), 1))
    Z/5
    >>> print(equivariant_k_finite_field(2, InducedRepFF(4, ((2, 1, 2),)), 1))
    Z/5 x Z/5
    """
    prime_power_decomposition(q)
    if t < 1:
        raise ValueError("degree must be >= 1 (the degree-0 free part is unsupported)")
    if isinstance(rep, InducedRepFF):
        pieces = []
        for h, a, mult in rep.summands:
            pieces += [equivariant_k_finite_field(q ** (rep.m // h), CyclicCharacter(h, a), t)] * mult
        return FgAbelianGroup.trivial().direct_sum(*pieces)
    if not isinstance(rep, CyclicCharacter):
        raise TypeError("rep must be a CyclicCharacter or InducedRepFF")
    if t % 2 == 0:
        return FgAbelianGroup.trivial()
    prim = rep.primitivize()
    return _bredon_pi_odd(q, prim.m, t)


@lru_cache(maxsize=None)
def _bredon_pi_odd(q: int, m_eff: int, t: int) -> FgAbelianGroup:
    return bredon_cohomology(k_mackey_finite_field(q, m_eff, t), 0)


@lru_cache(maxsize=None)
def gcd_order_closed_form(q: int, m_eff: int, k: int) -> int:
    """gcd(q^(k m') - 1, (q^(k m') - 1)/(q^(k m'/p) - 1) for p | m').

    Cached, like moebius_zeta_product_ff: it reads no character."""
    big = q ** (k * m_eff) - 1
    return gcd(big, *(big // (q ** (k * m_eff // p) - 1) for p in prime_factors(m_eff)))


def case_label(q: int, chi: CyclicCharacter, k: int) -> str:
    """The case name of verify_main_theorem_ff's records for (q, chi, k).

    >>> case_label(2, CyclicCharacter(6, 8), 1)
    'ffqlc q=2 m=6 a=2 k=1'
    """
    return f"ffqlc q={q} m={chi.m} a={chi.a % chi.m} k={k}"


def verify_main_theorem_ff(q: int, chi: CyclicCharacter, k: int) -> VerificationReport:
    """Cross-check all five computation paths for one (q, chi, k) case,
    chi a character of C_m with m = chi.m.

    Mismatches become FAIL records, never exceptions.  A non-cyclic odd
    group would be flagged (SKIP) rather than failed, provided the two
    structural paths still agree.

    >>> report = verify_main_theorem_ff(2, CyclicCharacter(2, 1), 1)
    >>> report.ok, len(report.records)
    (True, 7)
    """
    case = case_label(q, chi, k)
    rep = VerificationReport()
    prim = chi.primitivize()

    l_value = artin_l_value_ff(q, chi, k)
    factor = _euler_factor(q, chi, k)
    norm_l = l_value.norm_to_Q()
    moebius = moebius_zeta_product_ff(q, prim.m, k)

    pi_odd = equivariant_k_finite_field(q, chi, 2 * k - 1)
    pi_even = equivariant_k_finite_field(q, chi, 2 * k)

    # the printed L-value, raised to level m, against the geometric sum of
    # the character received, which reads no primitive character
    l_text = json.dumps(l_value.as_json(), sort_keys=True)
    geometric = _equivariant_l_value(q, chi, k)
    if l_value.raise_level(chi.m) == geometric:
        rep.add(case, "l_value", "cyclotomic_inverse", l_text, PASS)
    else:
        rep.add(case, "l_value", "cyclotomic_inverse",
                f"{l_text} raised to level {chi.m} != {geometric}", FAIL)

    rep.check(case, "norm_vs_moebius", "conjugate_product|moebius_zeta_product",
              norm_l, moebius, render=fmt_rational)

    sign = -1 if chi.is_trivial else 1
    ratio = Fraction(sign * pi_even.order(), pi_odd.order())
    rep.check(case, "norm_vs_k_ratio", "conjugate_product|signed_pi_ratio",
              norm_l, ratio, render=fmt_rational)

    structural = quotient_by_principal(factor)
    rep.check(case, "pi_odd_structure", "bredon_H0|cyclotomic_quotient",
              pi_odd, structural)

    rep.check(case, "pi_odd_order_gcd", "bredon_H0|gcd_closed_form",
              pi_odd.order(), gcd_order_closed_form(q, prim.m, k))

    rep.check(case, "pi_even_vanishing", "bredon_H0", pi_even, FgAbelianGroup.trivial())

    cyclic_status = PASS if len(pi_odd.invariant_factors) <= 1 else SKIP
    rep.add(case, "pi_odd_cyclic", "bredon_H0", str(pi_odd), cyclic_status)
    return rep


def verify_induced_ff(q: int, rep_spec: InducedRepFF, k: int) -> VerificationReport:
    """Check the induced-representation reduction for one (q, rep, k) case.

    The L-side is the product over summands of the conjugate-product norm
    of the subgroup-level L-value (each raised to its multiplicity); the
    K-side is the signed order ratio of the direct-sum equivariant groups.
    """
    case = f"ffqlc-induced q={q} m={rep_spec.m} summands={list(rep_spec.summands)} k={k}"
    out = VerificationReport()
    m = rep_spec.m

    norm_l = Fraction(1)
    trivial_count = 0
    pieces = []
    for h, a, mult in rep_spec.summands:
        chi = CyclicCharacter(h, a)
        base = q ** (m // h)
        norm_l *= artin_l_value_ff(base, chi, k).norm_to_Q() ** mult
        if chi.is_trivial:
            trivial_count += mult
        pieces += [quotient_by_principal(_euler_factor(base, chi, k))] * mult
    structural = FgAbelianGroup.trivial().direct_sum(*pieces)

    pi_odd = equivariant_k_finite_field(q, rep_spec, 2 * k - 1)
    pi_even = equivariant_k_finite_field(q, rep_spec, 2 * k)

    sign = (-1) ** trivial_count
    ratio = Fraction(sign * pi_even.order(), pi_odd.order())
    out.check(case, "norm_vs_k_ratio", "summandwise_norms|signed_pi_ratio",
              norm_l, ratio, render=fmt_rational)
    out.check(case, "pi_odd_structure", "induced_bredon|cyclotomic_quotients",
              pi_odd, structural)
    out.check(case, "pi_even_vanishing", "induced_bredon", pi_even, FgAbelianGroup.trivial())
    return out
