"""poly_pow_mod against repeated poly_mul_mod_p / poly_rem, and
primitive_polynomial pinned on every field whose tables tier-1 checks
against the full walk."""

import random

from qlverify.gf import poly_mul_mod_p, poly_pow_mod, poly_rem, primitive_polynomial


def naive_pow_mod(base, exponent, modulus, p):
    result = poly_rem([1], modulus, p)
    for _ in range(exponent):
        result = poly_rem(poly_mul_mod_p(result, base, p), modulus, p)
    return result


def test_poly_pow_mod_matches_repeated_products():
    """Seeded monic moduli of degree 1..9, reducible ones included, bases
    longer than the modulus and with coefficients outside [0, p), and
    exponents from 0; the result is reduced and trimmed like poly_rem's."""
    rng = random.Random(28)
    for p in (2, 3, 5, 7, 13):
        for r in range(1, 10):
            for _ in range(6):
                modulus = [rng.randrange(p) for _ in range(r)] + [1]
                base = [rng.randrange(-p, 2 * p) for _ in range(rng.randrange(2 * r + 2))]
                for exponent in (0, 1, 2, 3, 5, 8, 13, 40):
                    expected = naive_pow_mod(base, exponent, modulus, p)
                    assert poly_pow_mod(base, exponent, modulus, p) == expected, (p, modulus, base, exponent)


def test_poly_pow_mod_adds_exponents():
    """x^(a + b) = x^a x^b at exponents far past the repeated products."""
    rng = random.Random(29)
    for p in (3, 7, 11):
        for r in (1, 4, 8):
            modulus = [rng.randrange(p) for _ in range(r)] + [1]
            a, b = rng.getrandbits(40), rng.getrandbits(40)
            product = poly_mul_mod_p(poly_pow_mod([0, 1], a, modulus, p), poly_pow_mod([0, 1], b, modulus, p), p)
            assert poly_pow_mod([0, 1], a + b, modulus, p) == poly_rem(product, modulus, p), (p, modulus)


# base-p encodings of the non-leading coefficients of primitive_polynomial(p, r),
# r = 1, 2, ..., for every p^r <= 2 * 10^6
PRIMITIVE_CODES = {
    2: [1, 3, 3, 3, 5, 3, 3, 29, 17, 9, 5, 83, 27, 43, 3, 45, 9, 39, 39, 9],
    3: [1, 5, 7, 5, 7, 5, 16, 29, 64, 32, 16, 215, 7],
    5: [3, 7, 18, 37, 23, 7, 18, 157, 38],
    7: [4, 10, 67, 171, 11, 171, 46],
    11: [9, 46, 31, 13, 163, 508],
    13: [11, 15, 37, 184, 63],
}


def test_primitive_polynomial_is_pinned():
    for p, codes in PRIMITIVE_CODES.items():
        assert p ** len(codes) <= 2 * 10**6 < p ** (len(codes) + 1)
        for r, code in enumerate(codes, 1):
            expected = tuple(code // p**i % p for i in range(r)) + (1,)
            assert primitive_polynomial(p, r) == expected, (p, r)
