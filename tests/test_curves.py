import random
from fractions import Fraction

import numpy as np
import pytest

from naive_field import frobenius_class, naive_base_count, naive_char_sum, naive_cover_count
from naive_series import naive_reconstruction
from qlverify.curves import (
    DEFAULT_MAX_FIELD_SIZE,
    EnumerationBudgetExceeded,
    InsufficientOrder,
    KummerCover,
    PoleError,
    TruncatedLSeries,
    count_points,
    evaluate_rational,
    l_series_intermediate,
    l_series_kummer,
    l_special_value_curve,
    rational_reconstruction,
    _tables,
    _value_log_histogram,
    verify_l_identities,
    zeta_series,
)
from qlverify.cyclotomic import CyclotomicNumber
from qlverify import curves, gf
from qlverify.gf import FieldExt, default_modulus, is_irreducible, primitive_polynomial
from qlverify.cli import DEFAULT_COVERS, run_curves
from qlverify.numtheory import (
    divisors, euler_phi, factorize, prime_factors, smallest_primitive_root, squarefree_divisors,
)


# ---------------------------------------------------------------------------
# field extensions


def test_default_modulus_is_deterministic_and_irreducible():
    assert default_modulus(3, 1) == (0, 1)
    for p in (3, 5, 7):
        for r in (1, 2, 3, 4):
            m = default_modulus(p, r)
            assert len(m) == r + 1 and m[-1] == 1
            assert is_irreducible(list(m), p)
            assert default_modulus(p, r) == m  # cached, stable


def test_field_arithmetic_sanity():
    F = FieldExt.create(3, 2)
    one = F.one()
    for x in F.elements():
        if not F.is_zero(x):
            assert F.pow(x, F.size - 1) == one  # Fermat
    G = FieldExt(3, 2, primitive_polynomial(3, 2))
    seen = set()
    cur = G.one()
    for _ in range(G.size - 1):
        seen.add(cur)
        cur = G.mul(cur, (0, 1))  # x generates
    assert len(seen) == G.size - 1


def monic_polynomials(p, r):
    """Every monic polynomial of degree r over F_p, lowest degree first, in
    increasing base-p encoding of the non-leading coefficients."""
    for code in range(p**r):
        yield [code // p**i % p for i in range(r)] + [1]


def test_is_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for p in (2, 3, 5):
        for r in range(1, 5):
            for m in monic_polynomials(p, r):
                expected = sympy.Poly(m[::-1], t, modulus=p).is_irreducible
                assert is_irreducible(m, p) == expected, (p, m)


def first_primitive_by_stepping(p, r):
    """The first monic m with norm (-1)^r m(0) = g_p mod p, the smallest
    primitive root, in which the powers x^k mod m first return to 1 at
    k = p^r - 1, found by multiplying by x one step at a time."""
    n = p**r - 1
    one = [1] + [0] * (r - 1)
    g_p = smallest_primitive_root(p) % p
    for m in monic_polynomials(p, r):
        if (-1) ** r * m[0] % p != g_p:
            continue
        state, k = one, 0
        while k < n:
            top = state[-1]  # x * state = top * x^r + shifted, x^r = -m[:r]
            state = [(lower - top * c) % p for lower, c in zip([0] + state[:-1], m)]
            k += 1
            if state == one:
                break
        if k == n and state == one:
            return tuple(m)
    raise AssertionError("no primitive polynomial")


def test_primitive_polynomial_matches_brute_force():
    for p in (2, 3, 5, 7):
        for r in range(1, 5):
            m = primitive_polynomial(p, r)
            assert m == first_primitive_by_stepping(p, r), (p, r)
            assert is_irreducible(list(m), p)


def primitive_polynomial_testing_every_order_prime(p, r):
    """primitive_polynomial with the order test x^(n/l) != 1 run for every
    prime l of n = p^r - 1, the primes of p - 1 included."""
    n = p**r - 1
    g_p = smallest_primitive_root(p) % p
    for m in monic_polynomials(p, r):
        if ((-1) ** r * m[0] % p == g_p and is_irreducible(m, p)
                and all(gf.poly_pow_mod([0, 1], n // ell, m, p) != [1] for ell in prime_factors(n))):
            return tuple(m)
    raise AssertionError("no primitive polynomial")


# the 28 fields whose tables the curves-matrix benchmark builds
CURVES_MATRIX_FIELDS = [(3, r) for r in range(1, 13)] + [(p, r) for p in (5, 7) for r in range(1, 9)]


def test_primitive_polynomial_matches_the_every_prime_search():
    fields = CURVES_MATRIX_FIELDS + [(11, r) for r in range(1, 6)] + [(13, r) for r in range(1, 5)]
    for p, r in fields:
        assert primitive_polynomial(p, r) == primitive_polynomial_testing_every_order_prime(p, r), (p, r)


def test_encode_decode_roundtrip():
    F = FieldExt.create(5, 3)
    rng = random.Random(0)
    for _ in range(50):
        code = rng.randrange(F.size)
        assert F.encode(F.decode(code)) == code


# ---------------------------------------------------------------------------
# point counting


def test_count_points_examples():
    assert count_points(KummerCover(3, 1, (1,)), 2) == 9
    assert count_points(KummerCover(3, 1, (0, 1)), 1) == 2
    assert count_points(KummerCover(3, 2, (0, 1)), 1) == 2


def test_count_points_matches_naive_enumeration():
    cases = [
        (3, 2, (0, 1)), (3, 2, (1, 1)), (3, 2, (0, 1, 0, 1)),
        (5, 4, (0, 1)), (5, 2, (1, 2, 1)), (7, 3, (1, 1)), (7, 6, (2, 0, 1)),
    ]
    cases = [(p, d, f, (1, 2)) for p, d, f in cases]
    cases += [(2, 1, f, range(1, 7)) for f in ((0, 1), (1, 1), (1, 1, 1), (0, 1, 1), (1, 0, 0, 1))]
    cases += [(3, 2, (0, 1), (3, 4)), (3, 2, (2, 1, 0, 1), (3, 4)),
              (5, 4, (1, 1), (3, 4)), (5, 2, (3, 0, 1, 1), (3, 4))]
    # p = 131 does not fit a signed 8-bit digit
    cases += [(131, 5, (3, 1), (1, 2)), (131, 13, (0, 7, 0, 1), (1, 2))]
    for p, d, f, degrees in cases:
        for r in degrees:
            assert count_points(KummerCover(p, 1, f), r) == naive_base_count(p, f, r), (p, f, r)
            assert count_points(KummerCover(p, d, f), r) == naive_cover_count(p, d, f, r), (p, d, f, r)


def test_cover_validation():
    with pytest.raises(ValueError):
        KummerCover(5, 3, (0, 1))  # 3 does not divide 4
    with pytest.raises(ValueError):
        KummerCover(5, 2, (0, 0))  # zero f
    with pytest.raises(ValueError):
        KummerCover(4, 1, (0, 1))  # base not prime


def test_quotient_cover():
    Y = KummerCover(5, 4, (0, 1))
    assert Y.quotient(2).d == 2
    assert Y.quotient(4).d == 1
    for bad in (3, 0, -1):
        with pytest.raises(ValueError):
            Y.quotient(bad)
        with pytest.raises(ValueError):
            l_series_intermediate(Y, bad, 0, 3)


def test_trailing_zeros_share_one_histogram():
    _value_log_histogram.cache_clear()
    counts = [count_points(KummerCover(7, 3, f), 4) for f in ((1, 1), (1, 1, 0), (8, 1, 7))]
    assert counts[0] == counts[1] == counts[2]
    assert _value_log_histogram.cache_info().misses == 1


def test_budget_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        count_points(KummerCover(7, 1, (0, 1)), 12)


@pytest.mark.parametrize("order", [0, -1])
def test_every_series_builder_rejects_a_nonpositive_order(order):
    cover = KummerCover(5, 4, (0, 1))
    builders = (
        lambda: zeta_series(cover, order),
        lambda: l_series_kummer(cover, 1, order),
        lambda: l_series_intermediate(cover, 2, 1, order),
    )
    for build in builders:
        with pytest.raises(ValueError, match="order must be >= 1"):
            build()


def test_budget_is_not_part_of_the_cache_key():
    _tables.cache_clear()
    _value_log_histogram.cache_clear()
    count_points(KummerCover(5, 1, (1, 1)), 3, max_field_size=125)
    count_points(KummerCover(5, 1, (2, 1)), 3, max_field_size=DEFAULT_MAX_FIELD_SIZE)
    zeta_series(KummerCover(5, 1, (1, 1)), 3, max_field_size=10**6)
    assert _tables.cache_info().misses == 3  # F_5, F_25, F_125 once each
    assert _value_log_histogram.cache_info().misses == 4
    with pytest.raises(EnumerationBudgetExceeded):
        count_points(KummerCover(5, 1, (1, 1)), 3, max_field_size=124)
    with pytest.raises(EnumerationBudgetExceeded):
        l_series_kummer(KummerCover(5, 2, (1, 1)), 1, 3, max_field_size=124)
    with pytest.raises(EnumerationBudgetExceeded):
        l_series_intermediate(KummerCover(5, 2, (1, 1)), 2, 1, 3, max_field_size=124)


# ---------------------------------------------------------------------------
# the log-domain engine against direct field arithmetic


@pytest.mark.parametrize("f", [
    (0, 1, 1),        # f(0) = 0
    (1, 2, 1),        # (x + 1)^2, a repeated root
    (0, 0, 1),        # x^2, a repeated root at 0
    (1, 0, 0, 1),     # x^3 + 1, zero middle coefficients
    (2,),             # constant
    (2, 0, 0),        # constant with zero high coefficients
])
def test_count_points_special_polynomials(f):
    for p, d in ((3, 2), (5, 4), (7, 6)):
        for r in (1, 2, 3):
            assert count_points(KummerCover(p, 1, f), r) == naive_base_count(p, f, r), (p, f, r)
            assert count_points(KummerCover(p, d, f), r) == naive_cover_count(p, d, f, r), (p, d, f, r)


@pytest.mark.parametrize("chunk", [7, 100])
def test_histograms_across_chunks_match_naive_counts(monkeypatch, chunk):
    """Fields of several chunks, against the per-point oracles.  The first
    Zech lookup reads a progression with stride s, the multiplications by
    x before the first nonzero lower coefficient; each case below names
    its s, and some of its slices wrap at n inside a chunk."""
    cases = [
        (3, 2, (1, 1), (2, 4, 5)),           # linear, s = 1
        (5, 4, (3, 2), (2, 3)),
        (7, 6, (2, 1), (2, 3)),
        (3, 2, (1, 2, 0, 1), (2, 4, 5)),     # x^3 - x + 1, s = 2
        (5, 4, (1, 4, 0, 1), (2, 3)),
        (5, 4, (0, 0, 3), (2, 3)),           # monomials: no lookup
        (3, 2, (0, 0, 0, 2), (4,)),
        (7, 3, (0, 1, 1), (2, 3)),           # f(0) = 0
        (5, 2, (1, 2, 1), (2, 3)),           # (x + 1)^2
        (3, 2, (2, 0, 0, 1), (4, 5)),        # s = 3
        (2, 1, (1, 1, 1), (3, 7)),           # p = 2: one bin
        (2, 1, (1, 1), (5, 8)),
        (131, 130, (3, 1), (1,)),
        (131, 5, (1, 130, 0, 1), (1,)),
    ]
    progression = curves._zech_progression
    seen = set()  # (s, whether the progression wraps at n)

    def spy(zech, a, s, count):
        seen.add((s, a + s * (count - 1) >= zech.size))
        return progression(zech, a, s, count)

    monkeypatch.setattr(curves, "_CHUNK", chunk)
    monkeypatch.setattr(curves, "_zech_progression", spy)
    _tables.cache_clear()
    _value_log_histogram.cache_clear()
    for p, d, f, degrees in cases:
        for r in degrees:
            assert count_points(KummerCover(p, 1, f), r) == naive_base_count(p, f, r), (p, f, r)
            assert count_points(KummerCover(p, d, f), r) == naive_cover_count(p, d, f, r), (p, d, f, r)
    assert {(1, False), (1, True), (2, False), (2, True), (3, True)} <= seen


def test_int32_and_int64_lanes_agree(monkeypatch):
    monkeypatch.setattr(curves, "_CHUNK", 100)
    rng = random.Random(18)
    for p, r in ((2, 9), (3, 5), (5, 4), (7, 3), (13, 2), (131, 2)):
        t = curves._FieldTables(p, r)
        for deg in range(5):
            for _ in range(3):
                f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                if deg > 1 and rng.random() < 0.5:
                    f[deg - 1] = 0
                hist = curves._horner_histogram(t, tuple(f), np.int32)
                assert hist == curves._horner_histogram(t, tuple(f), np.int64), (p, r, f)
                assert len(hist) == p - 1 and sum(hist) <= t.n + 1


@pytest.mark.parametrize("p,r", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2), (11, 1)])
def test_tables_match_direct_field_arithmetic(p, r):
    t = _tables(p, r)
    field = FieldExt(p, r, t.minpoly)
    g = field.from_int(-t.minpoly[0]) if r == 1 else field.decode(p)  # x mod minpoly
    log_of = {}
    x = field.one()
    for i in range(t.n):
        log_of[x] = i
        x = field.mul(x, g)
    assert len(log_of) == t.n and x == field.one()
    for i, x in enumerate(log_of):
        assert t.dlog[t.enc_pow[i]] == i
        assert t.zech[i] == log_of.get(field.add(x, field.one()), -1)
    for c in range(1, p):
        assert t.dlog[c] == log_of[field.from_int(c)]  # constants encode as themselves
    assert t.dlog[0] == -1
    assert t.enc_pow.dtype == t.dlog.dtype == t.zech.dtype == np.int32


def full_walk_tables(p, r, minpoly):
    """enc_pow, dlog and zech of F_(p^r) the direct way, in int64 (p < 256): the
    impulse response walked in full, each window summed digit by digit by
    Horner's rule, and every Zech log gathered from dlog."""
    n = p**r - 1
    u = np.empty(n + r - 1, dtype=np.uint8)
    curves._impulse_response(minpoly, p, u)
    enc_pow = np.zeros(n, dtype=np.int64)
    for j in reversed(range(r)):
        enc_pow *= p
        enc_pow += u[j : j + n]
    dlog = np.full(n + 1, -1, dtype=np.int64)
    dlog[enc_pow] = np.arange(n)
    zech = dlog[enc_pow + 1 - p * (u[:n] == p - 1)]
    return enc_pow, dlog, zech


def assert_tables_match_the_full_walk(t):
    for name, expected in zip(("enc_pow", "dlog", "zech"), full_walk_tables(t.p, t.r, t.minpoly)):
        got = getattr(t, name)
        assert got.dtype == np.int32 and np.array_equal(got, expected), (t.p, t.r, name)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_table_walk_with_sheet_copies_matches_the_full_walk(p):
    """Every F_(p^r) with p^r <= 2 * 10^6: the tables, whose walk stops
    after one or more F_p^x sheets and copies the rest scaled by a power of
    g_p, whose windows are built by doubling and whose Zech logs past n/2
    come from their mirrors, equal the full walk, full scatter and full
    gather.  Fields with more than 2 * _CHUNK elements take the copies."""
    r = 1
    while p**r <= 2 * 10**6:
        assert_tables_match_the_full_walk(curves._FieldTables(p, r))
        r += 1


@pytest.mark.parametrize("chunk", [7, 100])
def test_tables_across_chunks_match_the_full_walk(monkeypatch, chunk):
    """Passes of a few elements, so that windows, the Zech gather and the
    mirror pass all cross chunk boundaries, and the gather ends inside one."""
    monkeypatch.setattr(curves, "_CHUNK", chunk)
    for p, r in ((2, 1), (2, 2), (2, 7), (2, 10), (3, 1), (3, 5), (5, 4), (7, 3), (13, 2), (131, 1)):
        assert_tables_match_the_full_walk(curves._FieldTables(p, r))


def test_windows_match_horner():
    """_windows against r multiply-adds per position, for every r from 1 to
    24 and a few digits past a chunk of positions, in int64 and in int32
    wherever p^r fits."""
    rng = np.random.default_rng(28)
    for r in range(1, 25):
        for p in (2, 3, 5, 7):
            if p**r >= 2**63:
                continue
            for count in (1, 2, 3, curves._CHUNK - 1, curves._CHUNK + 5):
                u = rng.integers(0, p, count + r - 1, dtype=np.uint8)
                expected = np.zeros(count, dtype=np.int64)
                for j in reversed(range(r)):
                    expected *= p
                    expected += u[j : j + count]
                for dtype in (np.int32, np.int64) if p**r < 2**31 else (np.int64,):
                    got = curves._windows(u, p, r, dtype)
                    assert got.dtype == dtype and np.array_equal(got, expected), (p, r, count)


def test_tables_need_no_field_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic on the table path")

    monkeypatch.setattr(FieldExt, "mul", refuse)
    monkeypatch.setattr(FieldExt, "create", refuse)
    monkeypatch.setattr(gf, "default_modulus", refuse)
    _tables.cache_clear()
    for p, r in ((2, 4), (3, 3), (5, 1), (7, 2)):
        t = _tables(p, r)
        assert t.minpoly == primitive_polynomial(p, r)
        assert t.dlog[t.enc_pow[t.n - 1]] == t.n - 1
    assert _tables.cache_info().misses == 4


@pytest.mark.parametrize("p,r", [(3, 4), (5, 3), (7, 2), (13, 2), (131, 1)])
def test_constant_root_of_unity_has_exact_order(p, r):
    """The table generator g has norm g_p, the smallest primitive root:
    dlog(g_p) = n/(p-1), and for every e | p - 1 the constant
    w = g^(n/e), read off the table, has order e and equals g_p^((p-1)/e),
    so a log mod e is the e-th power residue class to the base g_p."""
    t = _tables(p, r)
    g_p = smallest_primitive_root(p)
    assert t.dlog[g_p % p] == t.n // (p - 1)
    for e in divisors(p - 1):
        w = int(t.enc_pow[t.n // e]) if e > 1 else 1
        assert 0 < w < p
        assert min(k for k in range(1, e + 1) if pow(w, k, p) == 1) == e
        assert w == pow(g_p, (p - 1) // e, p), e


# ---------------------------------------------------------------------------
# frobenius classes


def test_frobenius_class_examples():
    F3 = FieldExt.create(3, 1)
    cov1 = KummerCover(3, 1, (0, 1))
    assert frobenius_class(cov1, F3, F3.from_int(1)) == 0
    cov2 = KummerCover(3, 2, (0, 1))
    assert frobenius_class(cov2, F3, F3.from_int(1)) == 0  # 1 is a square
    assert frobenius_class(cov2, F3, F3.from_int(2)) == 1  # 2 = -1 is not
    with pytest.raises(ValueError):
        frobenius_class(cov2, F3, F3.from_int(0))


def test_frobenius_class_counts_match_engine():
    # per-point classes bincounted must reproduce the engine's character
    # sums for every exponent a.  The last three covers have unequal class
    # counts, so they also pin the identification of mu_d with Z/d through
    # g_p^((p-1)/d): any other generator would permute their counts.
    unequal_at_r1 = {
        (5, 4, (1, 0, 1)): [1, 2, 0, 0],
        (7, 3, (1, 0, 0, 1)): [1, 0, 3],
        (13, 12, (5, 0, 1)): [2, 2, 2, 2, 0, 2, 0, 0, 2, 1, 0, 0],
    }
    for p, d, f in ((5, 4, (0, 1)), (5, 2, (1, 0, 1)), (7, 3, (1, 1)), (7, 6, (3, 1)),
                    *unequal_at_r1):
        cover = KummerCover(p, d, f)
        sums = [l_series_kummer(cover, a, 2).log_sums() for a in range(d)]
        for r in (1, 2):
            counts = naive_char_sum(cover, r)
            if r == 1 and (p, d, f) in unequal_at_r1:
                assert counts == unequal_at_r1[p, d, f]
            for a in range(d):
                expected = CyclotomicNumber.rational(d, 0)
                for cls, cnt in enumerate(counts):
                    expected = expected + cnt * CyclotomicNumber.zeta(d, a * cls)
                assert sums[a][r - 1] == expected, (p, d, f, r, a)


# ---------------------------------------------------------------------------
# series


def test_zeta_series_examples():
    s = zeta_series(KummerCover(3, 1, (1,)), 5)
    assert [c.as_rational() for c in s.coeffs] == [1, 3, 9, 27, 81, 243]
    s = TruncatedLSeries.from_log_sums(1, [1] * 4)  # Spec F_q: one point over every F_(q^r)
    assert [c.as_rational() for c in s.coeffs] == [1, 1, 1, 1, 1]
    s = zeta_series(KummerCover(3, 1, (0, 1)), 4)
    # (1 - t)/(1 - 3t): 1, 2, 6, 18, 54
    assert [c.as_rational() for c in s.coeffs] == [1, 2, 6, 18, 54]


def test_l_series_trivial_character_is_zeta():
    cover = KummerCover(5, 4, (0, 1))
    assert l_series_kummer(cover, 0, 5).coeffs == zeta_series(cover.quotient(4), 5, level=4).coeffs


def test_l_series_quadratic_character_of_gm_is_one():
    cover = KummerCover(3, 2, (0, 1))
    s = l_series_kummer(cover, 1, 6)
    assert s.coeffs[0].as_rational() == 1
    assert all(c.is_zero for c in s.coeffs[1:])


def test_l_series_coefficients_are_integral():
    for p, d, f in ((3, 2, (0, 1, 0, 1)), (5, 4, (0, 1)), (7, 3, (1, 1))):
        cover = KummerCover(p, d, f)
        assert all(c.is_rational for c in l_series_kummer(cover, 0, 6).coeffs)
        for a in range(d):
            assert all(c.is_integral for c in l_series_kummer(cover, a, 6).coeffs)


def test_l_series_galois_conjugation_permutes_characters():
    cover = KummerCover(7, 6, (1, 1))
    L = {a: l_series_kummer(cover, a, 5) for a in range(6)}
    for j in (1, 5):
        for a in range(6):
            assert tuple(c.galois_conjugate(j) for c in L[a].coeffs) == L[(a * j) % 6].coeffs


def test_exp_log_roundtrip():
    rng = random.Random(3)
    sums = [CyclotomicNumber.from_coeffs(4, [rng.randint(-5, 5), rng.randint(-5, 5)]) for _ in range(6)]
    series = TruncatedLSeries.from_log_sums(4, sums)
    assert series.log_sums() == sums


def test_series_product_inverse():
    cover = KummerCover(5, 2, (0, 1, 1))
    s = l_series_kummer(cover, 1, 6)
    assert (s * s.inverse()).coeffs == TruncatedLSeries.one(2, 6).coeffs
    assert (s ** 2).coeffs == (s * s).coeffs
    assert (s ** -1).coeffs == s.inverse().coeffs
    assert (s ** 0).coeffs == TruncatedLSeries.one(2, 6).coeffs
    for n in range(-2, 4):
        assert ((s ** n) * s).coeffs == (s ** (n + 1)).coeffs, n
        assert ((s ** n) * (s ** -n)).coeffs == TruncatedLSeries.one(2, 6).coeffs, n


def test_from_log_sums_of_nothing_is_the_order_0_series_1():
    assert TruncatedLSeries.from_log_sums(3, []) == TruncatedLSeries.one(3, 0)


def test_from_log_sums_coerces_integers():
    rational = [CyclotomicNumber.rational(3, c) for c in (2, 0, -5)]
    assert TruncatedLSeries.from_log_sums(3, [2, 0, -5]) == TruncatedLSeries.from_log_sums(3, rational)


def test_series_refuse_mixed_levels():
    with pytest.raises(ValueError):
        TruncatedLSeries.from_log_sums(3, [1, CyclotomicNumber.zeta(6)])
    with pytest.raises(ValueError):
        TruncatedLSeries.from_log_sums(6, [CyclotomicNumber.zeta(3)])
    with pytest.raises(ValueError):
        TruncatedLSeries.one(3, 2) * TruncatedLSeries.one(6, 2)


def test_inverse_needs_a_nonzero_constant_term():
    zero, one = CyclotomicNumber.rational(4, 0), CyclotomicNumber.rational(4, 1)
    with pytest.raises(ZeroDivisionError):
        TruncatedLSeries(4, 2, (zero, one, one)).inverse()


# ---------------------------------------------------------------------------
# rational reconstruction and special values


def test_reconstruction_geometric():
    s = zeta_series(KummerCover(3, 1, (1,)), 6)  # 1/(1 - 3t)
    num, den = rational_reconstruction(s, 2)
    assert [c.as_rational() for c in num] == [1]
    assert [c.as_rational() for c in den] == [1, -3]


def test_reconstruction_gm():
    s = zeta_series(KummerCover(3, 1, (0, 1)), 8)
    num, den = rational_reconstruction(s, 3)
    assert [c.as_rational() for c in num] == [1, -1]
    assert [c.as_rational() for c in den] == [1, -3]


def test_reconstruction_constant():
    s = TruncatedLSeries.one(2, 6)
    num, den = rational_reconstruction(s, 2)
    assert [c.as_rational() for c in num] == [1]
    assert [c.as_rational() for c in den] == [1]


def test_reconstruction_insufficient_order():
    # factorial-style coefficients satisfy no fixed-order linear recurrence
    coeffs = [CyclotomicNumber.rational(1, 1)]
    acc = 1
    for n in range(1, 11):
        acc *= n
        coeffs.append(CyclotomicNumber.rational(1, acc))
    s = TruncatedLSeries(1, 10, tuple(coeffs))
    with pytest.raises(InsufficientOrder):
        rational_reconstruction(s, 3)
    with pytest.raises(ValueError):
        rational_reconstruction(s, 6)  # order precondition 2*6+2 > 10


def _random_element(rng, m):
    """An element of Q(zeta_m) with small, partly non-integral coefficients;
    zero one time in four."""
    if rng.random() < 0.25:
        return CyclotomicNumber.rational(m, 0)
    return CyclotomicNumber(m, [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                                for _ in range(euler_phi(m))])


def _random_series(rng, m, order, max_deg):
    """A truncated series at level m: one time in five with random
    coefficients, else the expansion of num/den with both degrees up to
    max_deg + 1, so that some exceed the bound."""
    if rng.random() < 0.2:
        return TruncatedLSeries(m, order, tuple(_random_element(rng, m) for _ in range(order + 1)))
    zero = CyclotomicNumber.rational(m, 0)

    def padded(deg, nonzero_constant=False):
        coeffs = [_random_element(rng, m) for _ in range(deg + 1)]
        while nonzero_constant and coeffs[0].is_zero:
            coeffs[0] = _random_element(rng, m)
        return TruncatedLSeries(m, order, tuple(coeffs[: order + 1]) + (zero,) * (order - deg))

    num = padded(rng.randint(0, max_deg + 1))
    return num * padded(rng.randint(0, max_deg + 1), nonzero_constant=True).inverse()


def _fit_or_insufficient(fit, *args):
    try:
        return fit(*args)
    except InsufficientOrder:
        return InsufficientOrder


def test_reconstruction_matches_the_gauss_jordan_oracle():
    """The extended-Euclid fit against the per-degree Gauss-Jordan solves of
    naive_series, on levels 1..12: the same (num, den), or InsufficientOrder
    from both."""
    rng = random.Random(27)
    outcomes = set()
    for _ in range(250):
        m = rng.randint(1, 12)
        max_deg = rng.randint(0, 4)
        order = rng.randint(2 * max_deg + 2, 2 * max_deg + 5)
        s = _random_series(rng, m, order, max_deg)
        fit = _fit_or_insufficient(rational_reconstruction, s, max_deg)
        assert fit == _fit_or_insufficient(naive_reconstruction, s.coeffs, max_deg), (m, max_deg, s)
        outcomes.add(fit is InsufficientOrder)
        with pytest.raises(ValueError):
            rational_reconstruction(s, order // 2)  # the least bound with order < 2 max_deg + 2
    assert outcomes == {True, False}


def test_each_special_value_series_is_fitted_once_per_cell(monkeypatch):
    """One fit of the primitive L-series and one of each quotient zeta in
    the inclusion-exclusion product, shared by n = 1 and n = 2."""
    calls = []
    original = curves.rational_reconstruction

    def spy(series, max_deg):
        calls.append(series.level)
        return original(series, max_deg)

    monkeypatch.setattr(curves, "rational_reconstruction", spy)
    assert run_curves(DEFAULT_COVERS).ok
    assert len(calls) == sum(1 + len(squarefree_divisors(spec["d"])) for spec in DEFAULT_COVERS) == 9


def test_special_value_examples():
    s = zeta_series(KummerCover(3, 1, (0, 1)), 8)
    num, den = rational_reconstruction(s, 3)
    v = l_special_value_curve(num, den, 3, 1)
    assert v.as_rational() == Fraction(1, 4)  # 1/(1 + p)
    v2 = evaluate_rational(num, den, Fraction(1))  # s = 1 - n at n = 1: t = p^0
    assert v2.as_rational() == 0  # (1 - 1)/(1 - 3)
    with pytest.raises(PoleError):
        den_t = (CyclotomicNumber.rational(1, 1), CyclotomicNumber.rational(1, Fraction(-1, 3)))
        l_special_value_curve(num, den_t, 3, 1)


# ---------------------------------------------------------------------------
# the identity suite


@pytest.mark.parametrize("p,d,f", [(3, 2, (0, 1)), (5, 4, (0, 1)), (7, 3, (1, 1))])
def test_verify_identities_on_spec_covers(p, d, f):
    rep = verify_l_identities(KummerCover(p, d, f))
    assert rep.ok, [f"{r.quantity}: {r.value[:120]}" for r in rep.failures]
    quantities = {r.quantity for r in rep.records}
    assert "zeta_factorization" in quantities
    assert "moebius_inversion" in quantities


def test_verify_identities_elliptic_cover():
    rep = verify_l_identities(KummerCover(3, 2, (0, 1, 0, 1)))
    assert rep.ok, [f"{r.quantity}: {r.value[:120]}" for r in rep.failures]
    # the quadratic L-series here is the numerator of an elliptic curve zeta;
    # its special values feed the norm comparison
    special = [r for r in rep.records if r.quantity.startswith("special_value")]
    assert special and all(r.status == "PASS" for r in special)


def test_verify_identities_budget_skip():
    rep = verify_l_identities(KummerCover(7, 2, (1, 0, 0, 1)))  # B = 12: over budget
    assert len(rep.records) == 1
    assert rep.records[0].status == "SKIP"
    assert rep.ok


@pytest.mark.parametrize("p,d,f,products", [(5, 4, (0, 1), 7), (7, 6, (1, 1), 16)])
def test_identity_suite_folds_products_from_their_factors(monkeypatch, p, d, f, products):
    """Each product of k series is k - 1 multiplications, with no unit seed
    and no power: d tau(d) - sigma(d) for the restricted products,
    phi(d) - 1 for the primitive product and 2^omega(d) - 1 for the Moebius
    product.  The inverse quotient zetas are the suite's only inverses."""
    calls = {"__mul__": 0, "inverse": 0, "__pow__": 0, "one": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("__mul__", "inverse", "__pow__"):
        monkeypatch.setattr(TruncatedLSeries, name, spy(name, getattr(TruncatedLSeries, name)))
    monkeypatch.setattr(TruncatedLSeries, "one", classmethod(spy("one", TruncatedLSeries.one.__func__)))
    rep = verify_l_identities(KummerCover(p, d, f))
    assert rep.ok and all(r.status == "PASS" for r in rep.records)
    divs = divisors(d)
    omega = len(factorize(d))
    assert d * len(divs) - sum(divs) + euler_phi(d) - 1 + 2**omega - 1 == products
    assert calls == {"__mul__": products, "inverse": 2 ** (omega - 1), "__pow__": 0, "one": 0}


def test_special_values_skip_when_no_recurrence_fits(monkeypatch):
    """Moving one count from class 1 to class 0 at r = 4 breaks every
    series the suite reconstructs, so each special value is a SKIP; the
    series identities read the mutated histogram on both sides and pass."""
    original = curves._residue_histogram_mod

    def mutated(p, r, f, d):
        out = original(p, r, f, d)
        if r == 4 and d > 1:
            out[0] += 1
            out[1] -= 1
        return out

    monkeypatch.setattr(curves, "_residue_histogram_mod", mutated)
    rep = run_curves(DEFAULT_COVERS)
    assert [r.status for r in rep.records].count("PASS") == 27
    skips = [r for r in rep.records if r.status != "PASS"]
    assert [(r.case, r.quantity) for r in skips] == [
        (case, f"special_value_norm n={n}")
        for case in ("curve p=3 d=2 f=[0,1]", "curve p=5 d=4 f=[0,1]", "curve p=7 d=3 f=[1,1]")
        for n in (1, 2)
    ]
    assert {(r.path, r.value, r.status) for r in skips} == {
        ("rational_reconstruction", "no recurrence of order <= 3 at B=8", "SKIP")
    }


def test_special_value_skips_a_pole_for_that_n_only(monkeypatch):
    original = curves.evaluate_rational

    def pole_at_p(num, den, point):
        if point == 5:
            raise PoleError("denominator vanishes at the evaluation point")
        return original(num, den, point)

    monkeypatch.setattr(curves, "evaluate_rational", pole_at_p)
    special = [r for r in verify_l_identities(KummerCover(5, 4, (0, 1))).records
               if r.quantity.startswith("special_value")]
    assert [(r.quantity, r.path, r.value, r.status) for r in special] == [
        ("special_value_norm n=1", "rational_reconstruction", "pole at evaluation point", "SKIP"),
        ("special_value_norm n=2", "norm_of_L_value|zeta_value_alternating", "1/1", "PASS"),
    ]


def test_base_curve_takes_the_general_path():
    """d = 1: the trivial character is the primitive one, and the norm of
    its value is zeta(G_m) = (1 - t)/(1 - p t) at t = p^n."""
    rep = verify_l_identities(KummerCover(3, 1, (0, 1)))
    assert rep.ok and all(r.status == "PASS" for r in rep.records)
    special = {r.quantity: r.value for r in rep.records if r.quantity.startswith("special_value")}
    assert special == {"special_value_norm n=1": "1/4", "special_value_norm n=2": "4/13"}


def test_induction_identity_standalone():
    cover = KummerCover(5, 4, (1, 1))
    B = 8
    L = {a: l_series_kummer(cover, a, B) for a in range(4)}
    for s in (1, 2, 4):
        for b in range(s):
            lhs = TruncatedLSeries.one(4, B)
            for a in range(b, 4, s):
                lhs = lhs * L[a]
            rhs = l_series_intermediate(cover, s, b, B)
            assert lhs.coeffs == rhs.coeffs


def naive_intermediate_buckets(cover, s, r):
    """Oracle for the intermediate-base class buckets: enumerate the points
    (x, z) with z^(d/s) = f(x) directly and classify z per point."""
    field = FieldExt.create(cover.p, r)
    e_top = cover.d // s
    sub = KummerCover(cover.p, s, (0, 1))  # classification of z itself
    buckets = [0] * s
    for x in field.elements():
        u = field.eval_poly(cover.f, x)
        if field.is_zero(u):
            continue
        for z in field.elements():
            if field.pow(z, e_top) == u:
                buckets[frobenius_class(sub, field, z)] += 1
    return buckets


def test_intermediate_buckets_match_naive_enumeration():
    from qlverify.curves import _intermediate_class_buckets

    for p, d, f, degrees in ((5, 4, (1, 1), (1, 2)), (7, 6, (2, 1), (1, 2)),
                             (3, 2, (0, 1, 0, 1), (1, 2)), (13, 12, (5, 0, 1), (1,))):
        cover = KummerCover(p, d, f)
        for s in divisors(d):
            for r in degrees:
                assert (
                    _intermediate_class_buckets(cover, s, r)
                    == naive_intermediate_buckets(cover, s, r)
                )
