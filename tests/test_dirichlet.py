import gc
import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import pytest

from naive_subgroups import all_subgroups, quotient_is_cyclic, subgroup_generated
import qlverify.dirichlet as dirichlet
from qlverify.cli import run_dirichlet
from qlverify.cyclotomic import CyclotomicNumber
from qlverify.dirichlet import (
    DirichletCharacter,
    _characters_with_kernel,
    _crt_lift,
    _residue_exponents,
    all_characters,
    bernoulli_number,
    bernoulli_polynomial,
    conductor_and_primitivize,
    dedekind_zeta_abelian,
    dirichlet_l_value,
    field_degree,
    generalized_bernoulli,
    predict_k_ratio,
    real_cyclic_fields,
    signature,
    unit_group,
    units,
    verify_norm_identity_numberfield,
    verify_order_identity,
    zeta_order_of_vanishing,
)
from qlverify.numtheory import euler_phi, factorize


# ---------------------------------------------------------------------------
# unit groups and characters


def test_unit_group_examples():
    assert unit_group(5) == ((2, 4),)
    assert unit_group(8) == ((7, 2), (3, 2))
    assert unit_group(12) == ((7, 2), (5, 2))
    assert unit_group(1) == ()
    assert unit_group(2) == ()


def test_crt_lift_matches_search():
    """The closed-form lift against a search over 1..N: the x with
    x = 1 mod N/q, bucketed by x mod q, for every residue mod q and every
    prime-power factor q of every N < 400."""
    for N in range(1, 400):
        for p, e in factorize(N):
            q = p**e
            other = N // q
            by_residue = {x % q: x % N for x in range(1, N + 1) if x % other == 1 % other}
            assert len(by_residue) == q
            for res in range(q):
                assert _crt_lift(res, q, N) == by_residue[res], (res, q, N)


def test_unit_group_generates_everything():
    for N in range(1, 41):
        assert len(units(N)) == euler_phi(N)


def test_character_count_and_multiplicativity():
    rng = random.Random(0)
    for N in (5, 8, 12, 15, 16, 21, 24, 40):
        chars = all_characters(N)
        assert len(chars) == euler_phi(N)
        us = units(N)
        for _ in range(10):
            chi = rng.choice(chars)
            a, b = rng.choice(us), rng.choice(us)
            assert chi.value(a) * chi.value(b) == chi.value((a * b) % N)


def test_character_parity_flag():
    chi5 = DirichletCharacter(5, (1,))  # order 4, odd
    assert chi5.is_odd
    quad5 = DirichletCharacter(5, (2,))
    assert quad5.is_even
    assert DirichletCharacter(12, (0, 0)).is_even


def test_equal_characters_compare_hash_and_print_alike():
    a, b = DirichletCharacter(12, (1, 1)), DirichletCharacter(12, (1, 1))
    assert a.order == 2 and a.value_exponent(5) == 1  # fills a's cached attributes only
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "DirichletCharacter(modulus=12, exponents=(1, 1))"
    assert a != DirichletCharacter(12, (1, 0))
    assert all_characters(12) is all_characters(12)
    assert b in all_characters(12)


def test_order_is_smallest_annihilator_of_the_values():
    for N in range(1, 41):
        us = units(N)
        for chi in all_characters(N):
            exps = [chi.value_exponent(a) for a in us]
            t = 1
            while any(t * e % chi.order for e in exps):
                t += 1
            assert t == chi.order, (N, chi.exponents)


def test_conductor_examples():
    assert conductor_and_primitivize(DirichletCharacter(12, (0, 0)))[0] == 1
    f, prim = conductor_and_primitivize(DirichletCharacter(10, (2,)))
    assert f == 5
    assert prim.modulus == 5 and prim.order == 2
    f, prim = conductor_and_primitivize(DirichletCharacter(5, (2,)))
    assert f == 5 and prim == DirichletCharacter(5, (2,))


def test_primitivized_character_agrees_on_common_units():
    rng = random.Random(1)
    for N in (10, 12, 15, 20, 24, 36, 40):
        for chi in all_characters(N):
            f, prim = conductor_and_primitivize(chi)
            assert prim.order == chi.order
            for a in units(N):
                assert chi.value_exponent(a) == prim.value_exponent(a % f)
    # a primitive character never factors through a proper divisor
    for N in (5, 7, 8):
        for chi in all_characters(N):
            f, _ = conductor_and_primitivize(chi)
            refac, _ = conductor_and_primitivize(
                DirichletCharacter(N, chi.exponents)
            )
            assert refac == f


# ---------------------------------------------------------------------------
# Bernoulli numbers and L-values


def test_bernoulli_numbers():
    expected = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    assert [bernoulli_number(k) for k in range(7)] == expected


def test_bernoulli_polynomial_b2():
    assert bernoulli_polynomial(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_generalized_bernoulli_examples():
    triv = DirichletCharacter(1, ())
    assert generalized_bernoulli(triv, 2).as_rational() == Fraction(1, 6)
    quad5 = DirichletCharacter(5, (2,))
    assert generalized_bernoulli(quad5, 2).as_rational() == Fraction(4, 5)
    with pytest.raises(ValueError):
        generalized_bernoulli(DirichletCharacter(10, (2,)), 2)  # not primitive


@lru_cache(maxsize=None)
def _scaled_bernoulli_values(f, k):
    """f^(k-1) B_k(a/f) for a = 1..f, each by Horner's rule in Fractions."""
    bk = bernoulli_polynomial(k)
    out = []
    for a in range(1, f + 1):
        x, value = Fraction(a, f), Fraction(0)
        for c in reversed(bk):
            value = value * x + c
        out.append(value * f ** (k - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _generator_logs(f):
    """residue mod f -> exponents x with a = prod g_i^x_i over the
    unit_group generators, by search over every exponent vector."""
    gens = unit_group(f)
    return {prod(pow(g, x, f) for (g, _), x in zip(gens, xs)) % f: xs
            for xs in itertools.product(*(range(o) for _, o in gens))}


def _bernoulli_by_residues(chi, k):
    """sum_(a=1..f) chi(a) f^(k-1) B_k(a/f), one term per residue a, added
    onto the coefficient of zeta^e where chi(a) = zeta^e.  The exponent e is
    taken from chi's generator exponents and the generator logarithm of a,
    not from the character's own evaluation."""
    n, f = chi.order, chi.modulus
    coeffs = [Fraction(0)] * n
    for a, value in enumerate(_scaled_bernoulli_values(f, k), 1):
        xs = _generator_logs(f).get(a % f)
        if xs is not None:
            e = sum(x * c * n // o for x, c, (_, o) in zip(xs, chi.exponents, unit_group(f)))
            coeffs[e % n] += value
    return CyclotomicNumber.from_coeffs(n, coeffs)


def test_generalized_bernoulli_matches_per_residue_sum():
    checked = 0
    for f in range(1, 41):
        for chi in all_characters(f):
            if conductor_and_primitivize(chi)[0] != f:
                continue
            for k in range(1, 9):
                assert generalized_bernoulli(chi, k) == _bernoulli_by_residues(chi, k), (f, chi, k)
            checked += 1
    assert checked == 285


# h(D) of the imaginary quadratic fundamental discriminants |D| <= 95, from
# the standard class-number tables
CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3, -24: 2,
    -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2, -52: 2, -55: 4, -56: 4,
    -59: 3, -67: 1, -68: 4, -71: 7, -79: 5, -83: 3, -84: 4, -87: 6, -88: 2, -91: 2,
    -95: 8,
}


def test_class_number_formula():
    # h(D) = -(w/2) B_(1,chi_D), chi_D the odd primitive quadratic character mod |D|
    for D, h in CLASS_NUMBERS.items():
        f = -D
        (chi,) = [
            chi for chi in all_characters(f)
            if chi.order == 2 and chi.is_odd and conductor_and_primitivize(chi)[0] == f
        ]
        w = {-3: 6, -4: 4}.get(D, 2)
        assert -Fraction(w, 2) * generalized_bernoulli(chi, 1).as_rational() == h, D


def test_l_value_examples():
    triv = DirichletCharacter(1, ())
    assert dirichlet_l_value(triv, -1).as_rational() == Fraction(-1, 12)
    assert dirichlet_l_value(triv, -3).as_rational() == Fraction(1, 120)
    quad5 = DirichletCharacter(5, (2,))
    assert dirichlet_l_value(quad5, -1).as_rational() == Fraction(-2, 5)
    with pytest.raises(ValueError):
        dirichlet_l_value(triv, 0)  # k = 1 with the trivial character
    with pytest.raises(ValueError):
        dirichlet_l_value(quad5, 1)


def test_parity_vanishing_matrix():
    # L(1-k, chi) = 0 exactly when chi(-1) != (-1)^k, for k >= 2
    for N in (1, 3, 4, 5, 7, 8, 12, 15):
        for chi in all_characters(N):
            for k in range(2, 7):
                v = dirichlet_l_value(chi, 1 - k)
                parity_match = (chi.is_even and k % 2 == 0) or (chi.is_odd and k % 2 == 1)
                assert v.is_zero == (not parity_match), (N, chi.exponents, k)


def test_galois_equivariance_of_l_values():
    for N in (5, 7, 16):
        for chi in all_characters(N):
            n = chi.order
            for j in range(1, n):
                if gcd(j, n) != 1:
                    continue
                # sigma_j after chi, where sigma_j sends zeta_n to zeta_n^j
                chi_j = DirichletCharacter(N, tuple(
                    (c * j) % o for c, (_, o) in zip(chi.exponents, unit_group(N))))
                lhs = dirichlet_l_value(chi_j, -3)
                rhs = dirichlet_l_value(chi, -3)
                assert lhs == rhs.galois_conjugate(j) or (
                    lhs.level != rhs.level
                    and lhs == rhs.raise_level(lhs.level).galois_conjugate(j)
                )


# ---------------------------------------------------------------------------
# subgroups and Dedekind zeta values


def test_subgroup_enumeration():
    subs = all_subgroups(8)
    assert frozenset({1}) in subs
    assert frozenset({1, 3, 5, 7}) in subs
    assert len(subs) == 5  # trivial, three order-2, full group for C2 x C2
    for N in (5, 7, 12, 16, 24):
        for H in all_subgroups(N):
            assert subgroup_generated(N, H) == H  # closed


def test_signature_and_degree():
    assert field_degree(5, frozenset({1, 4})) == 2
    assert signature(5, frozenset({1, 4})) == (2, 0)       # Q(sqrt 5)
    assert signature(5, frozenset({1})) == (0, 2)          # Q(zeta_5)
    assert signature(4, frozenset({1})) == (0, 1)          # Q(i)


def test_dedekind_zeta_examples():
    full = frozenset(units(5))
    assert dedekind_zeta_abelian(5, full, -1) == Fraction(-1, 12)
    assert dedekind_zeta_abelian(5, frozenset({1, 4}), -1) == Fraction(1, 30)
    assert dedekind_zeta_abelian(5, frozenset({1}), -1) == 0
    with pytest.raises(ValueError):
        dedekind_zeta_abelian(5, full, 0)


def test_dedekind_zeta_always_rational():
    # conjugate characters pair off: the product is rational for every matrix cell
    for N in (5, 7, 8, 12, 15, 16):
        for H in all_subgroups(N):
            for k in (2, 3, 4):
                value = dedekind_zeta_abelian(N, H, 1 - k)
                assert isinstance(value, Fraction)


def test_dedekind_zeta_consistent_across_presentations():
    # Q(sqrt 5) realized inside Q(zeta_5) and inside Q(zeta_20)
    v5 = dedekind_zeta_abelian(5, frozenset({1, 4}), -1)
    H20 = frozenset(a for a in units(20) if a % 5 in (1, 4))
    assert dedekind_zeta_abelian(20, H20, -1) == v5


# ---------------------------------------------------------------------------
# the norm and order identities


def test_norm_identity_worked_case():
    rep = verify_norm_identity_numberfield(5, {1, 4}, 1)
    assert rep.ok and rep.records[0].value == "-2/5"


def test_norm_identity_cubic_field():
    rep = verify_norm_identity_numberfield(7, {1, 6}, 1)
    assert rep.ok, rep.failures


def test_norm_identity_degenerate():
    rep = verify_norm_identity_numberfield(1, {0}, 1)
    assert rep.ok


def test_norm_identity_rejects_complex_fields():
    with pytest.raises(ValueError):
        verify_norm_identity_numberfield(5, {1}, 1)  # -1 not in H


def test_norm_identity_rejects_noncyclic_quotient():
    assert quotient_is_cyclic(8, frozenset({1, 7}))  # (Z/8)^x / {1, 7} has order 2: cyclic
    assert quotient_is_cyclic(8, frozenset({1, 3, 5, 7}))
    # quotient by the trivial subgroup of (Z/8)^x is C2 x C2: not cyclic
    assert not quotient_is_cyclic(8, frozenset({1}))
    with pytest.raises(ValueError, match="quotient by H must be cyclic"):
        verify_order_identity(8, {1}, 2)
    # {1, 23} contains -1, so the norm identity gets past the real-field
    # check and meets (Z/24)^x / {1, 23} = C2 x C2
    assert not quotient_is_cyclic(24, frozenset({1, 23}))
    with pytest.raises(ValueError, match="quotient by H must be cyclic"):
        verify_norm_identity_numberfield(24, {1, 23}, 1)


def test_characters_with_kernel():
    chars = _characters_with_kernel(5, frozenset({1, 4}))
    assert len(chars) == 1 and chars[0].order == 2
    chars = _characters_with_kernel(7, frozenset({1, 6}))
    assert len(chars) == 2 and all(c.order == 3 for c in chars)
    # a plain set, and residues not yet reduced mod N (9 = 4 mod 5)
    assert verify_norm_identity_numberfield(5, {1, 9}, 1).records == \
        verify_norm_identity_numberfield(5, {1, 4}, 1).records
    with pytest.raises(ValueError):
        verify_norm_identity_numberfield(5, {1, 2}, 1)  # not closed


def test_kernel_filters_match_element_oracles():
    outcomes = set()
    for N in range(1, 41):
        for chi in all_characters(N):
            assert len(chi.kernel) == euler_phi(N) // chi.order, (N, chi)
        for H in all_subgroups(N):
            index = euler_phi(N) // len(H)
            expected = tuple(
                chi for chi in all_characters(N)
                if all(chi.value_exponent(h) == 0 for h in H) and chi.order == index
            )
            assert _characters_with_kernel(N, H) == expected, (N, sorted(H))
            cyclic = quotient_is_cyclic(N, H)
            assert bool(expected) == cyclic, (N, sorted(H))
            outcomes.add(cyclic)
    assert outcomes == {True, False}


def test_real_cyclic_fields_match_subgroup_oracle():
    """The kernels of the even characters are exactly the subgroups that
    contain -1 and have a cyclic quotient, in the same order."""
    total = 0
    for N in range(1, 81):
        expected = tuple(H for H in all_subgroups(N)
                         if (N - 1) % N in H and quotient_is_cyclic(N, H))
        assert real_cyclic_fields(N) == expected, N
        total += len(expected)
    assert total == 345


def test_kernel_questions_evaluate_each_character_once_per_unit(monkeypatch):
    calls = 0
    original = DirichletCharacter.value_exponent

    def counted(self, a):
        nonlocal calls
        calls += 1
        return original(self, a)

    all_characters.cache_clear()  # fresh characters: no kernel cached yet
    monkeypatch.setattr(DirichletCharacter, "value_exponent", counted)
    assert len(real_cyclic_fields(40)) == 6
    assert calls <= euler_phi(40) ** 2


def test_kernel_questions_build_no_residue_table():
    """A --field with a large modulus enumerates all phi(N) characters; a
    per-residue table on each would hold phi(N) * N entries."""
    all_characters.cache_clear()  # fresh characters: nothing cached on them yet
    _characters_with_kernel.cache_clear()
    tables = _residue_exponents.cache_info().currsize
    fields = real_cyclic_fields(97)
    assert len(fields) == 10  # one per divisor of 48: H contains -1 iff [G:H] | 96/2
    for H in fields:
        assert _characters_with_kernel(97, H)
    assert _residue_exponents.cache_info().currsize == tables
    for chi in all_characters(97):
        assert set(vars(chi)) <= {"modulus", "exponents", "order", "_scales", "kernel"}, chi


def test_summed_character_table_holds_machine_integers():
    """Each summed character keeps its table for the run, and a field of
    large modulus with a small H sums about phi(N) of them: the table is
    one machine word a residue, with no Python object per residue."""
    table = _residue_exponents(DirichletCharacter(97, (1,)))
    assert [r for r in gc.get_referents(table) if not isinstance(r, type)] == []
    assert sys.getsizeof(table) <= 8 * 97 + 128
    # 1, 2, 3, 4 = 5^0, 5^34, 5^70, 5^68 mod 97, and 97 is no unit
    assert list(table[:4]) == [0, 34, 70, 68] and len(table) == 97 and table[-1] == -1


def test_zeta_order_examples():
    Hpm = frozenset({1, 4})
    assert zeta_order_of_vanishing(5, Hpm, -1) == 0   # k = 2 even: r2 = 0
    assert zeta_order_of_vanishing(5, Hpm, -2) == 2   # k = 3 odd: r1 + r2
    assert zeta_order_of_vanishing(4, frozenset({1}), -2) == 1  # Q(i): r2 = 1
    with pytest.raises(ValueError):
        zeta_order_of_vanishing(5, Hpm, 0)


def test_order_identity_cases():
    for N, H in ((5, {1}), (5, {1, 4}), (7, {1, 6}), (4, {1}), (16, {1, 15})):
        for k in range(2, 8):
            rep = verify_order_identity(N, H, k)
            assert rep.ok, (N, H, k, rep.failures)


def test_order_identity_cross_check_via_l_functions():
    # independent check at N=5, H={1}, k=2: zeta_(Q(zeta_5)) has a double
    # zero at -1 coming from the two odd characters
    rep = verify_order_identity(5, {1}, 2)
    assert rep.records[0].value == "2"


# ---------------------------------------------------------------------------
# predictions


def test_prediction_values():
    v, rep = predict_k_ratio(1, {0}, 1)
    assert v == Fraction(1, 24)
    assert rep.records[0].status == "PREDICTION"
    v, _ = predict_k_ratio(1, {0}, 2)
    assert v == Fraction(1, 240)
    v, _ = predict_k_ratio(5, {1, 4}, 1)
    assert v == Fraction(1, 120)


def test_prediction_rejects_complex_fields():
    with pytest.raises(ValueError):
        predict_k_ratio(5, {1}, 1)


def test_subgroup_inputs_validated():
    for _ in range(2):  # no validation result is cached for an invalid H
        with pytest.raises(ValueError):
            dedekind_zeta_abelian(5, {1, 2}, -1)  # not closed: 2*2 = 4 missing
        with pytest.raises(ValueError):
            verify_order_identity(10, {1, 5}, 2)  # 5 is not a unit mod 10
        with pytest.raises(ValueError):
            verify_norm_identity_numberfield(5, set(), 1)


def test_subgroup_validated_once_per_public_call(monkeypatch):
    calls = []
    original = dirichlet._validate_subgroup

    def counted(N, H):
        calls.append((N, H))
        return original(N, H)

    monkeypatch.setattr(dirichlet, "_validate_subgroup", counted)
    # 15 has phi = 8, so the subgroup chains have more than one step
    H = {1, 14}
    for call in (lambda: verify_norm_identity_numberfield(15, H, 1),
                 lambda: verify_order_identity(15, H, 2),
                 lambda: predict_k_ratio(15, H, 1),
                 lambda: dedekind_zeta_abelian(15, H, -1)):
        del calls[:]
        call()
        assert calls == [(15, H)]


def test_bernoulli_numbers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(80):
        expected = Fraction(str(sympy.bernoulli(k)))
        # sympy >= 1.12 takes B_1 = +1/2; this package takes B_1 = -1/2
        assert bernoulli_number(k) == (-abs(expected) if k == 1 else expected), k


def test_per_field_values_computed_once_per_run():
    caches = (dirichlet._dedekind_zeta, dirichlet._subgroup_chain,
              dirichlet._characters_with_kernel, dirichlet._checked_subgroup)
    for cache in caches:
        cache.cache_clear()
    run_dirichlet(40, 3)
    zeta, chain, kernel, closure = (cache.cache_info() for cache in caches)
    # 124 fields: one closure check and one kernel scan each, 838 zeta
    # values of 372 distinct (N, H, s), 2,142 chain steps of 238 distinct
    assert (zeta.misses, zeta.hits) == (372, 466)
    assert (chain.misses, chain.hits) == (238, 1904)
    assert (kernel.misses, closure.misses) == (124, 124)
    run_dirichlet(40, 3)  # the second run only hits
    assert [cache.cache_info().misses for cache in caches] == [372, 238, 124, 124]
    assert dirichlet._dedekind_zeta.cache_info().hits == 466 + 838
