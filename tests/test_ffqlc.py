import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from qlverify.abelian import FgAbelianGroup
from qlverify.cyclotomic import CyclotomicNumber
from qlverify.equivariant import cyclic_fixed_point_mackey
from qlverify.ffqlc import (
    CyclicCharacter,
    InducedRepFF,
    _euler_factor,
    artin_l_value_ff,
    equivariant_k_finite_field,
    gcd_order_closed_form,
    k_mackey_finite_field,
    moebius_zeta_product_ff,
    verify_induced_ff,
    verify_main_theorem_ff,
)
from qlverify.numtheory import euler_phi


def test_characters():
    chi = CyclicCharacter(12, 8)
    assert chi.primitivize().m == 3  # the order of chi
    assert chi.primitivize() != chi  # not primitive
    assert chi.primitivize() == CyclicCharacter(3, 2)
    assert CyclicCharacter(12, 5).primitivize() == CyclicCharacter(12, 5)  # primitive
    assert CyclicCharacter(4, 0).is_trivial
    assert CyclicCharacter(4, 0).primitivize() == CyclicCharacter(1, 0)


def test_k_mackey_examples():
    assert dict(k_mackey_finite_field(2, 2, 1).orders) == {1: 3, 2: 1}
    M = k_mackey_finite_field(3, 2, 1)
    assert dict(M.orders) == {1: 8, 2: 2}
    assert M.multiplier(2, 1) == 4
    M = k_mackey_finite_field(2, 6, 1)
    assert dict(M.orders) == {1: 63, 2: 7, 3: 3, 6: 1}
    assert M.multiplier(2, 1) == 9
    assert M.multiplier(3, 1) == 21
    with pytest.raises(ValueError):
        k_mackey_finite_field(2, 2, 2)


def test_k_mackey_agrees_with_kernel_filtration():
    # K_t data along F_(q^m)/F_q is the kernel filtration of multiplication
    # by q^n on Z/(q^(nm) - 1): same orders, same restriction multipliers
    for q, m, t in ((2, 6, 1), (3, 4, 3), (5, 6, 1), (2, 12, 1)):
        n = (t + 1) // 2
        A = k_mackey_finite_field(q, m, t)
        B = cyclic_fixed_point_mackey(q ** (n * m) - 1, q**n, m)
        assert A.orders == B.orders
        assert all(A.multiplier(d, 1) == B.multiplier(d, 1) for d in A.orders)


def test_artin_l_values():
    assert artin_l_value_ff(2, CyclicCharacter(1, 0), 1).as_rational() == -1
    assert artin_l_value_ff(2, CyclicCharacter(2, 1), 1).as_rational() == Fraction(1, 3)
    v = artin_l_value_ff(2, CyclicCharacter(3, 1), 1)
    assert v * (1 - 2 * CyclotomicNumber.zeta(3)) == CyclotomicNumber.rational(3, 1)
    # non-primitive characters are evaluated at their primitive level
    assert artin_l_value_ff(2, CyclicCharacter(6, 2), 1).level == 3


def test_moebius_zeta_products():
    assert moebius_zeta_product_ff(2, 2, 1) == Fraction(1, 3)
    assert moebius_zeta_product_ff(2, 1, 1) == -1
    assert moebius_zeta_product_ff(2, 6, 1) == Fraction(1, 3)


def test_equivariant_k_examples():
    assert equivariant_k_finite_field(2, CyclicCharacter(2, 1), 1) == FgAbelianGroup.cyclic(3)
    assert equivariant_k_finite_field(2, CyclicCharacter(2, 0), 1).is_trivial
    assert equivariant_k_finite_field(2, CyclicCharacter(4, 1), 1) == FgAbelianGroup.cyclic(5)
    assert equivariant_k_finite_field(3, CyclicCharacter(2, 1), 2).is_trivial
    with pytest.raises(ValueError):
        equivariant_k_finite_field(2, CyclicCharacter(2, 1), 0)


def test_theorem_1_1_golden_case():
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            pi = equivariant_k_finite_field(q, CyclicCharacter(2, 1), 2 * k - 1)
            assert pi == FgAbelianGroup.cyclic(q**k + 1)
            assert equivariant_k_finite_field(q, CyclicCharacter(2, 1), 2 * k).is_trivial


def test_verify_main_theorem_all_paths_small():
    for q, m, a, k in ((2, 2, 1, 1), (3, 2, 1, 1), (2, 6, 1, 1), (2, 4, 1, 1), (7, 4, 3, 2)):
        rep = verify_main_theorem_ff(q, CyclicCharacter(m, a), k)
        assert rep.ok, rep.failures
        assert len(rep.records) == 7


def test_verify_reports_values():
    rep = verify_main_theorem_ff(3, CyclicCharacter(2, 1), 1)
    by_quantity = {r.quantity: r for r in rep.records}
    assert by_quantity["norm_vs_moebius"].value == "1/4"
    assert by_quantity["pi_odd_structure"].value == "Z/4"
    assert by_quantity["pi_odd_cyclic"].status == "PASS"
    # the exact L-value rides along in serialized cyclotomic form
    assert by_quantity["l_value"].value == '{"coeffs": ["1/4"], "level": 2}'


def test_gcd_closed_form_examples():
    assert gcd_order_closed_form(2, 6, 1) == 3  # gcd(63, 9, 21)
    assert gcd_order_closed_form(2, 1, 1) == 1
    assert gcd_order_closed_form(3, 2, 1) == 4


def test_descent_matches_primitive_computation():
    rng = random.Random(0)
    for _ in range(25):
        q = rng.choice([2, 3, 5])
        m = rng.randint(2, 12)
        a = rng.randrange(m)
        k = rng.randint(1, 4)
        chi = CyclicCharacter(m, a)
        prim = chi.primitivize()
        assert equivariant_k_finite_field(q, chi, 2 * k - 1) == equivariant_k_finite_field(
            q, prim, 2 * k - 1
        )
        assert artin_l_value_ff(q, chi, k) == artin_l_value_ff(q, prim, k)


def test_galois_conjugate_characters_agree():
    rng = random.Random(1)
    for _ in range(25):
        q = rng.choice([2, 3, 5, 7])
        m = rng.randint(2, 12)
        units = [j for j in range(1, m) if gcd(j, m) == 1]
        a = rng.choice(units)
        j = rng.choice(units)
        k = rng.randint(1, 4)
        chi, chij = CyclicCharacter(m, a), CyclicCharacter(m, (a * j) % m)
        assert artin_l_value_ff(q, chi, k).norm_to_Q() == artin_l_value_ff(q, chij, k).norm_to_Q()
        assert equivariant_k_finite_field(q, chi, 2 * k - 1) == equivariant_k_finite_field(
            q, chij, 2 * k - 1
        )


def test_even_degree_vanishing_matrix():
    rng = random.Random(2)
    for _ in range(20):
        q = rng.choice([2, 3, 5, 7])
        m = rng.randint(1, 12)
        a = rng.randrange(m)
        k = rng.randint(1, 6)
        assert equivariant_k_finite_field(q, CyclicCharacter(m, a), 2 * k).is_trivial


def test_induced_rep_cases():
    rep_spec = InducedRepFF(6, ((2, 1, 1), (3, 1, 2), (6, 1, 1)))
    for q in (2, 3):
        for k in (1, 2):
            out = verify_induced_ff(q, rep_spec, k)
            assert out.ok, out.failures
    # explicit structure: Ind from C_2 <= C_4 over q=2 at k=1
    # summand (2, 1): base field q^2 = 4: pi_1 = Z[i]-free ... Z/(4^1+1) = Z/5
    one = InducedRepFF(4, ((2, 1, 1),))
    assert equivariant_k_finite_field(2, one, 1) == FgAbelianGroup.cyclic(5)
    # trivial summand contributes K_t of the fixed field
    triv = InducedRepFF(4, ((1, 0, 1),))
    assert equivariant_k_finite_field(2, triv, 1) == FgAbelianGroup.cyclic(2**4 - 1)


def test_induced_rep_validation():
    with pytest.raises(ValueError):
        InducedRepFF(6, ((4, 1, 1),))  # 4 does not divide 6
    with pytest.raises(ValueError):
        InducedRepFF(6, ((2, 1, 0),))
    # a subgroup order of 0 or below, or a group order below 1, is refused
    # here, not later inside CyclicCharacter
    for m, h in ((4, 0), (4, -2), (4, -4), (0, 1), (-4, 2), (-4, -4)):
        with pytest.raises(ValueError):
            InducedRepFF(m, ((h, 1, 1),))
    with pytest.raises(ValueError):
        InducedRepFF(0, ())


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("rep", [CyclicCharacter(2, 1), InducedRepFF(2, ((2, 1, 1),))])
def test_equivariant_k_refuses_a_q_that_is_no_prime_power(rep, t):
    """q is checked before an even degree returns the trivial group."""
    with pytest.raises(ValueError, match="6 is not a prime power"):
        equivariant_k_finite_field(6, rep, t)


def test_norm_equals_direct_product_over_primitive_exponents():
    # third route to the norm: multiply the L-values of all primitive
    # exponents as cyclotomic numbers and check the product is the norm
    for q, m, k in ((2, 5, 1), (3, 8, 2), (5, 12, 1), (7, 9, 1)):
        values = [
            artin_l_value_ff(q, CyclicCharacter(m, a), k)
            for a in range(1, m)
            if gcd(a, m) == 1
        ]
        product = values[0]
        for v in values[1:]:
            product = product * v
        assert product.as_rational() == artin_l_value_ff(q, CyclicCharacter(m, 1), k).norm_to_Q()


def test_verifier_catches_wrong_k_groups(monkeypatch):
    # corrupt the Bredon path and make sure the cross-checks go red instead
    # of degenerating into comparisons of a value with itself
    import qlverify.ffqlc as ff

    monkeypatch.setattr(ff, "_bredon_pi_odd", lambda q, m_eff, t: FgAbelianGroup.cyclic(7))
    rep = ff.verify_main_theorem_ff(2, CyclicCharacter(2, 1), 1)
    failed = {r.quantity for r in rep.failures}
    assert "norm_vs_k_ratio" in failed
    assert "pi_odd_structure" in failed
    assert "pi_odd_order_gcd" in failed
    # the L-side paths do not depend on the K-side and still agree
    assert all(r.status == "PASS" for r in rep.records if r.quantity == "norm_vs_moebius")


def test_euler_number_of_k_complex_inverts_moebius_product():
    # the alternating product of the K-group orders over the cell complex
    # is exactly the reciprocal of the absolute zeta product: a sixth path
    from qlverify.abelian import euler_number
    from qlverify.equivariant import moore_cochain_complex

    for q, m, k in ((2, 6, 1), (3, 4, 2), (5, 12, 1), (7, 2, 3)):
        t = 2 * k - 1
        C = moore_cochain_complex(k_mackey_finite_field(q, m, t))
        assert euler_number(C) == 1 / abs(moebius_zeta_product_ff(q, m, k))


def test_structure_quotient_independent_of_conjugate():
    # Z[zeta]/(1 - zeta^a q^k) has the same invariant factors for conjugate a
    from qlverify.cyclotomic import quotient_by_principal

    for m in (5, 8, 12):
        groups = set()
        for a in range(1, m):
            if gcd(a, m) == 1:
                z = 1 - CyclotomicNumber.zeta(m, a) * 9
                groups.add(quotient_by_principal(z))
        assert len(groups) == 1


def test_each_q_is_validated_once_per_run():
    from qlverify.cli import run_ffqlc
    from qlverify.numtheory import prime_power_decomposition

    # the matrix validates each q in {2, 3, 5, 7} in every cell; the induced
    # samples add the twelve sizes q^2, q^3, q^4 of their summands' base fields
    before = prime_power_decomposition.cache_info()
    assert run_ffqlc([2, 3, 5, 7], 12, 6).ok
    after = prime_power_decomposition.cache_info()
    assert after.misses - before.misses <= 4 + 12
    assert after.hits > before.hits


def _main_theorem_records(report):
    return [r for r in report.records if not r.case.startswith("ffqlc-induced")]


def _per_case_records(q_list, m_max, k_max):
    return [
        r
        for q in q_list
        for m in range(1, m_max + 1)
        for a in range(m)
        for k in range(1, k_max + 1)
        for r in verify_main_theorem_ff(q, CyclicCharacter(m, a), k).records
    ]


def test_run_records_equal_per_case_records():
    # a lift of a primitive character copies that character's records
    # under its own label; the result must be what each case gives alone
    from qlverify.cli import run_ffqlc

    q_list = [2, 4, 9]
    assert _main_theorem_records(run_ffqlc(q_list, 12, 2)) == _per_case_records(q_list, 12, 2)


def test_run_verifies_each_primitive_character_once(monkeypatch):
    import qlverify.cli as cli

    seen = Counter()

    def spy(q, chi, k):
        prim = chi.primitivize()
        seen[q, prim.m, prim.a, k] += 1
        return verify_main_theorem_ff(q, chi, k)

    monkeypatch.setattr(cli, "verify_main_theorem_ff", spy)
    assert cli.run_ffqlc([2, 3, 5, 7], 12, 6).ok
    # 46 primitive characters of order <= 12, times 4 values of q and 6 of k
    assert len(seen) == 4 * sum(euler_phi(m) for m in range(1, 13)) * 6 == 1104
    assert set(seen.values()) == {1}


def test_field_only_paths_run_once_per_field_level_and_k():
    # the Moebius product and the gcd closed form read (q, m', k) only
    from qlverify.cli import run_ffqlc
    from qlverify.ffqlc import gcd_order_closed_form, moebius_zeta_product_ff

    moebius_zeta_product_ff.cache_clear()
    gcd_order_closed_form.cache_clear()
    assert run_ffqlc([2, 3, 5, 7], 12, 6).ok
    # 4 values of q, 12 levels m' and 6 of k; the induced samples use neither
    assert moebius_zeta_product_ff.cache_info().misses == 4 * 12 * 6 == 288
    assert gcd_order_closed_form.cache_info().misses == 288


def test_run_memo_lives_for_one_run(monkeypatch):
    # records are shared within a run only: a run with a corrupted Bredon
    # path must report the corruption on every lift, and a later clean run
    # must be clean again
    import qlverify.ffqlc as ff
    from qlverify.cli import run_ffqlc

    assert run_ffqlc([3], 6, 2).ok
    monkeypatch.setattr(ff, "_bredon_pi_odd", lambda q, m_eff, t: FgAbelianGroup.cyclic(7))
    corrupted = _main_theorem_records(run_ffqlc([3], 6, 2))
    assert corrupted == _per_case_records([3], 6, 2)
    failing = {r.case for r in corrupted if r.status == "FAIL"}
    assert {"ffqlc q=3 m=6 a=0 k=1", "ffqlc q=3 m=4 a=2 k=2"} <= failing  # lifts from m' = 1, 2
    monkeypatch.undo()
    assert run_ffqlc([3], 6, 2).ok


def test_euler_factor_matches_the_ring_expression():
    # every (q, m, a, k) of the ffqlc-matrix benchmark workload
    for q in (2, 3, 5, 7):
        for m in range(1, 13):
            for a in range(m):
                chi = CyclicCharacter(m, a)
                prim = chi.primitivize()
                for k in range(1, 7):
                    expected = 1 - CyclotomicNumber.zeta(prim.m, prim.a) * q**k
                    assert _euler_factor(q, chi, k) == expected, (q, m, a, k)
