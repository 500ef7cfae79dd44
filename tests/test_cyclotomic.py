import random
from fractions import Fraction

import pytest

from qlverify.abelian import cokernel
from qlverify.cyclotomic import (
    CyclotomicNumber,
    _reduce,
    _root_sum,
    _sum_of_products,
    cyclotomic_polynomial,
    multiplication_matrix,
    quotient_by_principal,
)
from qlverify.numtheory import divisors, euler_phi
from math import gcd


def resultant(f, g) -> Fraction:
    """Oracle: determinant of the Sylvester matrix over Q (f, g little-endian)."""
    f = list(f)
    g = list(g)
    while f and not f[-1]:
        f.pop()
    while g and not g[-1]:
        g.pop()
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(f)] + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(g)] + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    a = rows
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def zeta(m, k=1):
    return CyclotomicNumber.zeta(m, k)


def rat(m, x):
    return CyclotomicNumber.rational(m, x)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_and_product():
    for m in range(1, 40):
        phi = cyclotomic_polynomial(m)
        assert len(phi) == euler_phi(m) + 1
        assert phi[-1] == 1
        # independent identity: prod over d | m of Phi_d(x) = x^m - 1
        prod = [Fraction(1)]
        for d in divisors(m):
            phid = cyclotomic_polynomial(d)
            new = [Fraction(0)] * (len(prod) + len(phid) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phid):
                    new[i + j] += a * b
            prod = new
        expected = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        assert prod == expected


# ---------------------------------------------------------------------------
# field arithmetic


def test_root_of_unity_relations():
    assert zeta(3) * zeta(3, 2) == rat(3, 1)
    assert zeta(4) * zeta(4) == rat(4, -1)
    assert zeta(1) == rat(1, 1)
    assert zeta(2) == rat(2, -1)


def test_inverse_examples():
    assert rat(5, 2).inverse() == rat(5, Fraction(1, 2))
    w = rat(3, 1) - 2 * zeta(3)
    winv = w.inverse()
    assert w * winv == rat(3, 1)
    # (1 - 2 z3)^-1 = (1 - 2 z3^2)/7 = (3 + 2 z3)/7
    assert winv == (rat(3, 3) + 2 * zeta(3)) * Fraction(1, 7)
    with pytest.raises(ZeroDivisionError):
        rat(6, 0).inverse()


def test_field_axioms_randomized():
    rng = random.Random(0)
    for m in (1, 2, 3, 4, 6, 8, 12):
        phi = euler_phi(m)
        for _ in range(15):
            a = CyclotomicNumber(m, tuple(Fraction(rng.randint(-4, 4)) for _ in range(phi)))
            b = CyclotomicNumber(m, tuple(Fraction(rng.randint(-4, 4)) for _ in range(phi)))
            c = CyclotomicNumber(m, tuple(Fraction(rng.randint(-4, 4)) for _ in range(phi)))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero:
                assert a * a.inverse() == rat(m, 1)


def test_no_implicit_level_mixing():
    with pytest.raises(ValueError):
        zeta(3) + zeta(6)
    # explicit embedding works and is a ring map
    z = zeta(3).raise_level(6)
    assert z == zeta(6, 2)
    w = (rat(3, 1) - 2 * zeta(3)).raise_level(6)
    assert w == rat(6, 1) - 2 * zeta(6, 2)
    # every level step up to 60: coefficient i lands on zeta_big^(i big/m)
    rng = random.Random(24)
    for big in range(1, 61):
        for m in divisors(big):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(m))]
            spread = [0] * big
            for i, c in enumerate(coeffs):
                spread[i * (big // m)] = c
            lifted = CyclotomicNumber(m, coeffs).raise_level(big)
            assert lifted == CyclotomicNumber.from_coeffs(big, spread), (m, big)


def test_galois_conjugate_examples():
    a = rat(12, 2) + 3 * zeta(12)
    assert a.galois_conjugate(1) == a
    assert zeta(4).galois_conjugate(3) == -zeta(4)
    w = rat(3, 1) - 2 * zeta(3)
    assert w.galois_conjugate(2) == rat(3, 3) + 2 * zeta(3)
    with pytest.raises(ValueError):
        zeta(6).galois_conjugate(2)


def test_galois_conjugate_is_ring_automorphism():
    rng = random.Random(1)
    for m in (5, 8, 12):
        js = [j for j in range(1, m) if gcd(j, m) == 1]
        for _ in range(10):
            a = CyclotomicNumber(m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(m))))
            b = CyclotomicNumber(m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(m))))
            j = rng.choice(js)
            assert (a * b).galois_conjugate(j) == a.galois_conjugate(j) * b.galois_conjugate(j)
            assert (a + b).galois_conjugate(j) == a.galois_conjugate(j) + b.galois_conjugate(j)


# ---------------------------------------------------------------------------
# norms


def test_norm_examples():
    assert (rat(2, 1) - 2 * zeta(2)).norm_to_Q() == 3
    assert (rat(3, 1) - 2 * zeta(3)).norm_to_Q() == 7
    assert (rat(4, 1) - 3 * zeta(4)).norm_to_Q() == 10


def test_norm_matches_resultant_oracle():
    rng = random.Random(2)
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in range(euler_phi(m))]
            z = CyclotomicNumber.from_coeffs(m, coeffs)
            expected = resultant(cyclotomic_polynomial(m), coeffs or [0])
            assert z.norm_to_Q() == expected


def test_norm_multiplicative_and_conjugation_invariant():
    rng = random.Random(3)
    for m in (3, 4, 5, 6, 12):
        js = [j for j in range(1, m) if gcd(j, m) == 1]
        for _ in range(10):
            a = CyclotomicNumber.from_coeffs(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])
            b = CyclotomicNumber.from_coeffs(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])
            assert (a * b).norm_to_Q() == a.norm_to_Q() * b.norm_to_Q()
            assert a.galois_conjugate(rng.choice(js)).norm_to_Q() == a.norm_to_Q()


def test_norm_of_one_minus_x_zeta():
    # Norm(1 - x zeta_m) = x^phi(m) Phi_m(1/x), both sides exact rationals
    for m in (1, 2, 3, 4, 6, 8, 9, 12):
        for x in (2, 3, 5, -2, 7):
            lhs = (CyclotomicNumber.rational(m, 1) - x * zeta(m)).norm_to_Q()
            phi = cyclotomic_polynomial(m)
            rhs = Fraction(x) ** euler_phi(m) * sum(
                Fraction(c) * Fraction(1, x) ** i for i, c in enumerate(phi)
            )
            assert lhs == rhs


def test_norm_compatible_with_level_raising():
    rng = random.Random(4)
    for m, big in ((3, 6), (4, 12), (3, 12)):
        for _ in range(8):
            z = CyclotomicNumber.from_coeffs(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])
            if z.is_zero:
                continue
            assert z.raise_level(big).norm_to_Q() == z.norm_to_Q() ** (euler_phi(big) // euler_phi(m))


def plain_conjugate_product(z) -> Fraction:
    """Oracle: the product of all phi(m) conjugates of z, one canonical
    multiplication per conjugate."""
    m = z.level
    out = CyclotomicNumber.rational(m, 1)
    for j in range(1, m + 1):
        if gcd(j, m) == 1:
            out = out * z.galois_conjugate(j)
    return out.as_rational()


def test_paired_norm_matches_plain_conjugate_product():
    # the norm pairs sigma_j with sigma_(-j) and multiplies integer vectors;
    # it must equal the plain product of every conjugate, for integral
    # elements, for elements with a denominator, and for the inverses of
    # 1 - zeta^a q^k, whose denominators are the norms of 1 - zeta^a q^k
    rng = random.Random(20)
    for m in range(1, 61):
        phi = euler_phi(m)
        a = rng.choice([j for j in range(1, m + 1) if gcd(j, m) == 1])
        q_k = rng.choice([2, 3, 4, 5, 7, 9])
        cases = [
            CyclotomicNumber(m, [rng.randint(-3, 3) for _ in range(phi)]),
            CyclotomicNumber(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)]),
            (1 - zeta(m, a) * q_k).inverse(),
        ]
        for z in cases:
            assert z.norm_to_Q() == plain_conjugate_product(z), (m, z)


def test_norm_refuses_an_irrational_conjugate_product(monkeypatch):
    # with conjugation broken to the identity the "norm" of zeta_5 is
    # zeta_5^4; it must raise, not return the constant coefficient
    import qlverify.cyclotomic as cyc

    monkeypatch.setattr(cyc, "_conjugate", lambda m, num, j: tuple(num))
    with pytest.raises(ValueError):
        zeta(5).norm_to_Q()


def test_inverse_and_norm_sweep_every_level():
    # every level 1..60, the phi(m) = 2 levels 3, 4 and 6 among them, with
    # negative rationals at levels 1 and 2: the inverse from the conjugate
    # product is two-sided, inverts the norm, and is stored canonically
    rng = random.Random(26)
    for m in range(1, 61):
        phi = euler_phi(m)
        dense = CyclotomicNumber(m, [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(phi)])
        cases = [rat(m, Fraction(-3, 7)), rat(m, -5), rat(m, Fraction(4, 9)), dense]
        for z in cases:
            if z.is_zero:
                continue
            inv = z.inverse()
            assert z * inv == rat(m, 1) and inv * z == rat(m, 1), (m, z)
            assert z.norm_to_Q() * inv.norm_to_Q() == 1, (m, z)
            assert len(inv.num) == phi and inv.den > 0 and gcd(*inv.num, inv.den) == 1, (m, z)
            assert CyclotomicNumber(m, inv.coeffs) == inv


def test_root_sum_and_sum_of_products_match_ring_arithmetic():
    # the constructors from integer data against sums of products of
    # elements; each power of zeta is reduced by from_coeffs, not _root_sum
    rng = random.Random(27)
    for d in range(1, 25):
        one = rat(d, 1)
        for _ in range(4):
            terms = [(rng.randint(-2 * d, 2 * d), rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
            den = rng.randint(1, 12)
            expected = rat(d, 0)
            for e, count in terms:
                expected = expected + count * CyclotomicNumber.from_coeffs(d, [0] * (e % d) + [1])
            assert _root_sum(d, terms, den) == expected * Fraction(1, den), (d, terms, den)
            pairs = [(_root_sum(d, terms[:i + 1], den), expected * Fraction(i, 5) + one)
                     for i in range(len(terms))]
            total = rat(d, 0)
            for x, y in pairs:
                total = total + x * y
            assert _sum_of_products(d, pairs, den) == total * Fraction(1, den), (d, terms, den)


# ---------------------------------------------------------------------------
# quotient rings


def test_quotient_examples():
    assert quotient_by_principal(rat(2, 3)) == __import__("qlverify").FgAbelianGroup.cyclic(3)
    assert str(quotient_by_principal(rat(3, 1) - 2 * zeta(3))) == "Z/7"
    assert str(quotient_by_principal(rat(4, 1) - 2 * zeta(4))) == "Z/5"


def test_quotient_multiplication_matrix_example():
    w = rat(3, 1) - 2 * zeta(3)
    assert multiplication_matrix(w).data == ((1, 2), (-2, 3))


def product_built_multiplication_matrix(z):
    """Oracle: column i is the ring product z * zeta^i."""
    phi = euler_phi(z.level)
    cols = [(z * CyclotomicNumber.zeta(z.level, i)).num for i in range(phi)]
    return tuple(tuple(col[row] for col in cols) for row in range(phi))


def test_multiplication_matrix_matches_products():
    rng = random.Random(29)
    for m in range(1, 31):
        for _ in range(4):
            z = CyclotomicNumber.from_coeffs(m, [rng.randint(-5, 5) for _ in range(euler_phi(m))])
            assert multiplication_matrix(z).data == product_built_multiplication_matrix(z), (m, z)


def test_quotient_matches_cokernel_of_product_built_matrix():
    # random integral elements, and binomials n + c zeta^j like the
    # 1 - zeta^a q^k of the finite-field check
    rng = random.Random(41)
    for m in range(1, 41):
        phi = euler_phi(m)
        zs = [CyclotomicNumber.from_coeffs(m, [rng.randint(-5, 5) for _ in range(phi)]) for _ in range(2)]
        zs += [rng.randint(-9, 9) + rng.choice((-1, 1)) * rng.randint(1, 9) * zeta(m, rng.randrange(m))
               for _ in range(2)]
        for z in zs:
            if not z.is_zero:
                assert quotient_by_principal(z) == cokernel(product_built_multiplication_matrix(z)), (m, z)


def test_quotient_order_is_abs_norm():
    rng = random.Random(5)
    for m in (2, 3, 4, 5, 6, 8, 12):
        for _ in range(12):
            z = CyclotomicNumber.from_coeffs(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])
            if z.is_zero:
                continue
            assert quotient_by_principal(z).order() == abs(z.norm_to_Q())


def test_quotient_rejects_zero_and_nonintegral():
    with pytest.raises(ZeroDivisionError):
        quotient_by_principal(rat(3, 0))
    with pytest.raises(ValueError):
        quotient_by_principal(rat(3, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# representation details


def test_canonical_representation_and_integrality():
    a = CyclotomicNumber.from_coeffs(6, [0, 0, 1])  # z6^2 reduced
    b = zeta(6) - 1
    assert a == b  # z6^2 = z6 - 1
    assert a.is_integral
    assert not (zeta(6) * Fraction(1, 2)).is_integral
    assert rat(6, 5).is_rational and rat(6, 5).as_rational() == 5
    with pytest.raises(ValueError):
        zeta(6).as_rational()


def test_json_serialization():
    z = rat(3, Fraction(-2, 5)) + zeta(3)
    assert z.as_json() == {"level": 3, "coeffs": ["-2/5", "1/1"]}
    # each coefficient in lowest terms, as its Fraction prints, zero as 0/1
    for z in (
        CyclotomicNumber(5, (0, Fraction(-3, 4), 0, Fraction(5, 6))),
        CyclotomicNumber(12, (Fraction(-7, 9), 0, Fraction(-2, 3), 1)),
        zeta(8, 3) * Fraction(-6, 4),
        rat(7, 0),
        rat(1, -5),
    ):
        want = [f"{c.numerator}/{c.denominator}" for c in z.coeffs]
        assert z.as_json() == {"level": z.level, "coeffs": want}, z


def test_canonical_form_equal_values_hash_equal():
    pairs = [
        (CyclotomicNumber(6, (Fraction(2, 4), 1)), CyclotomicNumber(6, (Fraction(1, 2), 1))),
        # z6^i cycles through 1, z, z - 1, -1, -z, 1 - z
        (CyclotomicNumber.from_coeffs(6, range(1, 9)), CyclotomicNumber(6, (7, 2))),
    ]
    w = CyclotomicNumber(7, (Fraction(1, 3), -2, 0, Fraction(5, 6), 1, 0))
    pairs.append((w.galois_conjugate(3).galois_conjugate(5), w))  # 3 * 5 = 1 mod 7
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


def test_canonical_form_stored_numerator_and_denominator():
    cases = [
        (rat(5, 0), (0, 0, 0, 0), 1),
        (rat(3, Fraction(-2, 4)), (-1, 0), 2),
        (zeta(6) * Fraction(-6, 4), (0, -3), 2),
        (CyclotomicNumber(4, (Fraction(2, 6), Fraction(-4, 6))), (1, -2), 3),
        (CyclotomicNumber(4, (4, 6)), (4, 6), 1),
    ]
    for z, num, den in cases:
        assert (z.num, z.den) == (num, den)
        assert z.den > 0 and gcd(*z.num, z.den) == 1
        assert all(type(c) is Fraction for c in z.coeffs)


def test_constructor_rejects_wrong_length():
    with pytest.raises(ValueError):
        CyclotomicNumber(6, (1, 2, 3))
    with pytest.raises(ValueError):
        CyclotomicNumber(5, ())


# ---------------------------------------------------------------------------
# differential oracle: sympy


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # three or four odd primes; Phi_105 is the first with a coefficient -2
    for m in [*range(1, 61), 105, 165, 195, 210, 255, 385, 1008, 1155]:
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)


def test_reduce_matches_sympy_rem():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for m in [*range(1, 41), 105, 210]:
        phi_m = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
        for _ in range(4):
            vec = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 2 * m + 1))]
            rem = sympy.Poly(vec[::-1] or [0], x).rem(phi_m).all_coeffs()[::-1]
            expected = [int(c) for c in rem] + [0] * (euler_phi(m) - len(rem))
            assert _reduce(m, vec) == tuple(expected), (m, vec)


def test_norm_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    for m in range(1, 41):
        phi = euler_phi(m)
        for _ in range(2):
            w = [rng.randint(-3, 3) for _ in range(phi)]
            d = rng.randint(2, 9)
            res = sympy.resultant(
                sympy.cyclotomic_poly(m, x), sum(c * x**i for i, c in enumerate(w)), x
            )
            assert CyclotomicNumber(m, w).norm_to_Q() == int(res)
            rational_z = CyclotomicNumber(m, [Fraction(c, d) for c in w])
            assert rational_z.norm_to_Q() == Fraction(int(res), d**phi)
