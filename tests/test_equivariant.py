import random
from math import gcd, prod

import pytest

from genrandom import diagonal, mat_vec
from qlverify.abelian import (
    FgAbelianGroup,
    IntMatrix,
    cohomology,
    euler_number,
    euler_number_of_cohomology,
    in_column_span,
)
from qlverify.equivariant import (
    CyclicMackeyData,
    bredon_cohomology,
    cech_h0_oracle,
    cyclic_cech_complex,
    cyclic_fixed_point_mackey,
    h0_fixed_point_oracle,
    moore_cochain_complex,
)
from qlverify.numtheory import divisors, factorize, multiplicative_order


def kernel_orders_oracle(mod, u, m):
    """Brute force: order of ker(u^(m/d) - 1) on Z/mod by direct enumeration."""
    out = {}
    for d in [t for t in range(1, m + 1) if m % t == 0]:
        w = pow(u, m // d, mod) - 1
        out[d] = sum(1 for x in range(mod) if (w * x) % mod == 0)
    return out


# ---------------------------------------------------------------------------
# construction and validation


def test_mackey_requires_all_divisors():
    with pytest.raises(ValueError):
        CyclicMackeyData(4, {1: 3, 4: 1})
    with pytest.raises(ValueError):
        CyclicMackeyData(2, {1: 3, 2: 1, 3: 1})


def test_mackey_rejects_ill_defined_restriction():
    # a restriction is the inclusion Z/orders[big] -> Z/orders[small]; it
    # exists only when a positive orders[big] divides orders[small]
    with pytest.raises(ValueError):
        CyclicMackeyData(2, {1: 3, 2: 2})
    with pytest.raises(ValueError):
        CyclicMackeyData(1, {1: 0})


def test_cyclic_subgroup_mackey_rejects_non_dividing_orders():
    with pytest.raises(ValueError):
        CyclicMackeyData(2, {1: 3, 2: 2})
    with pytest.raises(ValueError):
        CyclicMackeyData(6, {1: 12, 2: 4, 3: 6, 6: 4})  # 4 does not divide 6
    with pytest.raises(ValueError):
        CyclicMackeyData(2, {1: 0, 2: 0})
    with pytest.raises(ValueError):
        CyclicMackeyData(4, {1: 4, 4: 2})  # level 2 missing


def test_identity_restrictions_default():
    M = CyclicMackeyData(6, {1: 12, 2: 6, 3: 4, 6: 2})
    assert [M.multiplier(d, d) for d in (1, 2, 3, 6)] == [1, 1, 1, 1]


def test_mackey_orders_and_multipliers():
    orders = {1: 12, 2: 6, 4: 2}
    M = CyclicMackeyData(4, orders)
    assert dict(M.orders) == orders
    assert [M.multiplier(*pair) for pair in ((2, 1), (4, 2), (4, 1), (4, 4))] == [2, 3, 6, 1]
    # the multipliers telescope: functoriality holds on the nose
    assert M.multiplier(4, 1) == M.multiplier(2, 1) * M.multiplier(4, 2)
    # a validated datum keeps its own copy of the orders
    orders[4] = 5
    assert M.orders[4] == 2 and M.multiplier(4, 1) == 6
    with pytest.raises(TypeError):
        M.orders[4] = 5


def brute_force_mackey_ok(m, value, ext):
    """The definition, checked everywhere: with ext(d, d) = id, every
    restriction carries relations into relations, and ext(a, c) equals
    ext(b, c) ext(a, b) modulo the relations of value(c) for every c | b | a."""
    divs = divisors(m)
    full = dict(ext)
    for d in divs:
        full.setdefault((d, d), IntMatrix.identity(value[d].rows))
    for big in divs:
        for small in divs:
            if big % small == 0:
                for col in value[big].columns():
                    if not in_column_span(value[small], mat_vec(full[(big, small)], col)):
                        return False
    for a in divs:
        for b in divs:
            for c in divs:
                if a % b == 0 and b % c == 0:
                    pairs = zip(full[(a, c)].columns(), (full[(b, c)] @ full[(a, b)]).columns())
                    if not all(in_column_span(value[c], [x - y for x, y in zip(direct, via)])
                               for direct, via in pairs):
                        return False
    return True


def random_subgroup_orders(rng, m):
    """orders[d] = product of r_e over the multiples e of d, so that
    orders[big] divides orders[small] whenever small | big."""
    r = {e: rng.choice([1, 1, 2, 3, 4, 5]) for e in divisors(m)}
    return {d: prod(r[e] for e in r if e % d == 0) for d in r}


@pytest.mark.parametrize("m", [1, 2, 4, 5, 6, 12, 30, 36, 60])
def test_lean_validation_matches_brute_force_oracle(m):
    """The constructor checks positivity and divisibility on the one-prime
    steps only; it must accept exactly when every pair small | big divides,
    and whatever it accepts must satisfy the definition of Mackey data on
    the presented values Z/orders[d] with the 1x1 maps it derives."""
    rng = random.Random(m)
    divs = divisors(m)
    rejected = accepted = 0
    for trial in range(12):
        orders = random_subgroup_orders(rng, m)
        if trial % 3:
            # corrupt one level, always including the top level m in turn:
            # once m has two prime factors, its pair with 1 is not a step
            d = m if trial % 3 == 1 else rng.choice(divs)
            orders[d] = rng.choice([0, 1, 2, 3, 4, 6, 8, 12, orders[d] * 7])
        pairs_divide = all(n >= 1 for n in orders.values()) and all(
            orders[small] % orders[big] == 0 for big in divs for small in divs if big % small == 0)
        try:
            M = CyclicMackeyData(m, orders)
        except ValueError:
            M = None
        assert (M is not None) == pairs_divide, (m, orders)
        if M is not None:
            value = {d: diagonal([n]) for d, n in orders.items()}
            ext = {(big, small): IntMatrix.from_rows([[M.multiplier(big, small)]])
                   for big in divs for small in divs if big % small == 0}
            assert brute_force_mackey_ok(m, value, ext), (m, orders)
        rejected += M is None
        accepted += M is not None
    assert accepted
    if m > 1:
        assert rejected


# ---------------------------------------------------------------------------
# the Moore cochain complex


def test_moore_complex_m_1():
    M = CyclicMackeyData(1, {1: 7})
    C = moore_cochain_complex(M)
    assert (C.lo, C.hi) == (0, 0)
    assert C.term(0) == (7,)


def test_moore_complex_m_4_uses_radical():
    # lambda = 1: only the levels 1 and 2 enter, value(4) is carried but unused
    M = CyclicMackeyData(4, {1: 15, 2: 3, 4: 1})
    C = moore_cochain_complex(M)
    assert (C.lo, C.hi) == (-1, 0)
    assert C.term(-1) == (3,)
    assert C.term(0) == (15,)
    assert C.differentials[0].data == ((-5,),)  # dropping the only prime: sign (-1)^1


def test_moore_complex_m_6_shape_and_d_squared():
    M = CyclicMackeyData(6, {1: 63, 2: 7, 3: 3, 6: 1})
    C = moore_cochain_complex(M)  # construction itself validates d^2 = 0
    assert (C.lo, C.hi) == (-2, 0)
    assert C.term(-2) == (1,)
    assert C.term(-1) == (7, 3)  # the subsets (2,) and (3,)
    assert C.term(0) == (63,)
    # rows are the targets, columns the sources; dropping the j-th prime of S signs by (-1)^j
    assert [d.data for d in C.differentials] == [((7,), (-3,)), ((-9, -21),)]


# ---------------------------------------------------------------------------
# Bredon cohomology and the closed-form oracle


def test_bredon_m2_examples():
    M = CyclicMackeyData(2, {1: 3, 2: 1})
    assert bredon_cohomology(M, 0) == FgAbelianGroup.cyclic(3)
    assert bredon_cohomology(M, -1).is_trivial
    M2 = CyclicMackeyData(2, {1: 8, 2: 2})
    assert bredon_cohomology(M2, 0) == FgAbelianGroup.cyclic(4)
    assert bredon_cohomology(M2, -1).is_trivial


def test_bredon_rejects_out_of_range_degree():
    M = CyclicMackeyData(2, {1: 3, 2: 1})
    with pytest.raises(ValueError):
        bredon_cohomology(M, 1)
    with pytest.raises(ValueError):
        bredon_cohomology(M, -2)


def test_h0_oracle_examples():
    M = CyclicMackeyData(6, {1: 63, 2: 7, 3: 3, 6: 1})
    assert h0_fixed_point_oracle(M) == FgAbelianGroup.cyclic(3)  # gcd(63, 9, 21)
    M1 = CyclicMackeyData(1, {1: 10})
    assert h0_fixed_point_oracle(M1) == FgAbelianGroup.cyclic(10)
    M4 = CyclicMackeyData(4, {1: 15, 2: 3, 4: 1})
    assert h0_fixed_point_oracle(M4) == FgAbelianGroup.cyclic(5)
    assert bredon_cohomology(M4, 0) == FgAbelianGroup.cyclic(5)


def test_h0_oracle_is_independent_of_the_complex(monkeypatch):
    # the oracle is a cross-check of bredon_cohomology only while it shares
    # neither the Moore complex nor the cohomology routine with it
    import qlverify.equivariant as equivariant

    def forbidden(*args):
        raise AssertionError("the H^0 oracle must not use the Moore complex")

    monkeypatch.setattr(equivariant, "moore_cochain_complex", forbidden)
    monkeypatch.setattr(equivariant, "cohomology", forbidden)
    M = cyclic_fixed_point_mackey(31, 3, 30)
    assert h0_fixed_point_oracle(M) == FgAbelianGroup.cyclic(31)  # every prime level is 0


# ---------------------------------------------------------------------------
# kernel-filtration generator


def test_cyclic_fixed_point_examples():
    M = cyclic_fixed_point_mackey(63, 4, 3)
    assert dict(M.orders) == {1: 63, 3: 3}
    assert M.multiplier(3, 1) == 21
    const = cyclic_fixed_point_mackey(20, 1, 6)
    for d in (1, 2, 3, 6):
        assert const.orders[d] == 20
        assert const.multiplier(d, 1) == 1


def test_cyclic_fixed_point_orders_match_enumeration_oracle():
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        mod = rng.randint(2, 120)
        u = rng.randint(1, mod)
        if gcd(u, mod) != 1:
            continue
        m = multiplicative_order(u, mod) * rng.choice([1, 2, 3])
        expected = kernel_orders_oracle(mod, u, m)
        M = cyclic_fixed_point_mackey(mod, u, m)
        assert dict(M.orders) == expected
        checked += 1


def test_cyclic_fixed_point_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclic_fixed_point_mackey(10, 2, 4)  # 2 not a unit mod 10
    with pytest.raises(ValueError, match=r"^u\^m != 1 \(ord\(u\) = 6 does not divide 2\)$"):
        cyclic_fixed_point_mackey(7, 3, 2)


def test_cyclic_fixed_point_modulus_one_is_the_zero_datum():
    # every u is a unit of Z/1 and u^m = 1 there: all orders are 1, every
    # Bredon group vanishes, and so does the H^0 oracle
    for u, m in ((0, 6), (1, 6), (5, 12), (3, 30), (2, 1)):
        M = cyclic_fixed_point_mackey(1, u, m)
        assert dict(M.orders) == {d: 1 for d in divisors(m)}
        for s in range(-len(factorize(m)), 1):
            assert bredon_cohomology(M, s) == FgAbelianGroup.trivial(), (u, m, s)
        assert h0_fixed_point_oracle(M) == FgAbelianGroup.trivial()


def test_q_power_subgroup_structure():
    # mod q^(nm) - 1, u = q^n: level d has order q^(nm/d) - 1
    q, n, m = 2, 1, 6
    M = cyclic_fixed_point_mackey(q ** (n * m) - 1, q**n, m)
    for d in (1, 2, 3, 6):
        assert M.orders[d] == q ** (n * m // d) - 1


def test_concentration_in_degree_zero_randomized():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        mod = rng.randint(2, 200)
        u = rng.randint(1, mod)
        if gcd(u, mod) != 1:
            continue
        m = multiplicative_order(u, mod) * rng.choice([1, 2, 4, 6])
        lam = len(factorize(m))
        if lam > 4:
            continue
        M = cyclic_fixed_point_mackey(mod, u, m)
        assert bredon_cohomology(M, 0) == h0_fixed_point_oracle(M)
        for s in range(-lam, 0):
            assert bredon_cohomology(M, s).is_trivial
        checked += 1


def test_moore_complex_built_once_per_datum():
    # m = 30 has lambda = 3; 3 has order 30 mod 31
    M = cyclic_fixed_point_mackey(31, 3, 30)
    before = moore_cochain_complex.cache_info()
    groups = [bredon_cohomology(M, s) for s in range(-3, 1)]
    after = moore_cochain_complex.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
    assert groups[-1] == h0_fixed_point_oracle(M) and all(g.is_trivial for g in groups[:-1])


def test_euler_number_inherited_on_moore_complexes():
    rng = random.Random(8)
    checked = 0
    while checked < 25:
        mod = rng.randint(2, 100)
        u = rng.randint(1, mod)
        if gcd(u, mod) != 1:
            continue
        m = multiplicative_order(u, mod) * rng.choice([1, 2, 6])
        C = moore_cochain_complex(cyclic_fixed_point_mackey(mod, u, m))
        assert euler_number(C) == euler_number_of_cohomology(C)
        checked += 1


# ---------------------------------------------------------------------------
# Cech complex standalone


def test_cech_complex_small():
    C = cyclic_cech_complex(60, [6, 10])
    assert (C.lo, C.hi) == (-2, 0)
    assert cohomology(C, 0) == FgAbelianGroup.cyclic(2)  # 60 / <gcd(6, 10)>
    assert cohomology(C, -1).is_trivial
    assert cohomology(C, -2).is_trivial


def test_cech_complex_three_subgroups_pins_every_sign():
    # lambda = 3: Z/360 with the subgroups (4), (6), (10); the subset S
    # carries Z/(360 / lcm), and each column holds one signed inclusion
    # multiplier per dropped label, (-1)^j for the j-th label of S
    C = cyclic_cech_complex(360, [4, 6, 10])
    assert [d.data for d in C.differentials] == [
        ((-5,), (3,), (-2,)),
        ((3, 5, 0), (-2, 0, 5), (0, -2, -3)),
        ((-4, -6, -10),),
    ]


def test_cech_empty_family():
    C = cyclic_cech_complex(12, [])
    assert cohomology(C, 0) == FgAbelianGroup.cyclic(12)


def test_cech_concentration_randomized():
    rng = random.Random(9)
    for _ in range(60):
        mod = rng.randint(2, 300)
        gens = [rng.randint(0, mod) for _ in range(rng.randint(1, 4))]
        C = cyclic_cech_complex(mod, gens)
        assert cohomology(C, 0) == cech_h0_oracle(mod, gens)
        for s in range(C.lo, 0):
            assert cohomology(C, s).is_trivial
