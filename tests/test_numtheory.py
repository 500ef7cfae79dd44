import itertools
import math
import random
import time

import pytest

from qlverify.numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    prime_factors,
    prime_power_decomposition,
    smallest_primitive_root,
    squarefree_divisors,
    squarefree_subsets,
)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(210) == ((2, 1), (3, 1), (5, 1), (7, 1))
    assert math.prod(prime_factors(210)) == 210  # the radical


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4


def test_euler_phi_multiplicative():
    for m in range(1, 30):
        for n in range(1, 30):
            if math.gcd(m, n) == 1:
                assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


def test_euler_phi_against_direct_count():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_squarefree_subsets_examples():
    assert squarefree_subsets([]) == [((), 1)]
    assert squarefree_subsets([2, 3]) == [
        ((), 1), ((2,), -1), ((3,), -1), ((2, 3), 1)
    ]
    signs = [s for _, s in squarefree_subsets([2, 3, 5])]
    assert signs == [1, -1, -1, -1, 1, 1, 1, -1]
    assert len(squarefree_subsets([2, 3, 5])) == 8


def test_squarefree_subsets_rejects_duplicates():
    with pytest.raises(ValueError):
        squarefree_subsets([2, 2])


def test_inclusion_exclusion_sign_sum():
    # sum of signs is 0 unless the prime list is empty
    assert sum(s for _, s in squarefree_subsets([])) == 1
    for primes in ([2], [2, 3], [2, 3, 5], [2, 3, 5, 7]):
        assert sum(s for _, s in squarefree_subsets(primes)) == 0


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 500)
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(7) == (7, 1)
    for bad in (1, 6, 12, -27, -9, -8, 0):
        with pytest.raises(ValueError):
            prime_power_decomposition(bad)


def test_is_prime_refuses_what_it_cannot_decide():
    """Above the Miller-Rabin bound only a prime factor <= 41 decides; the
    product of the primes 10000000000037 and 1000000000039 is refused at
    once, not factored."""
    assert is_prime(2**100) is False
    big = 10000000000037 * 1000000000039
    for decide in (is_prime, prime_power_decomposition):
        with pytest.raises(ValueError, match="cannot decide"):
            decide(big)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_primality_and_prime_powers_match_factorization():
    """Miller-Rabin and integer roots against the definitions through the
    trial-division factorization, for every n < 10^5 (uncached, so the
    session's factorize cache stays small)."""
    def decomposition(n):
        try:
            return prime_power_decomposition(n)
        except ValueError:
            return None

    for n in range(-2, 100_000):
        factors = factorize.__wrapped__(n) if n >= 1 else ()
        assert is_prime(n) == (factors == ((n, 1),)), n
        assert decomposition(n) == (factors[0] if len(factors) == 1 else None), n


def test_primality_and_prime_powers_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    samples = [3215031751, 3825123056546413051, 318665857834031151167461]
    samples += [rng.getrandbits(64) for _ in range(300)]
    samples += [sympy.nextprime(rng.getrandbits(64)) for _ in range(50)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(20):
        p = sympy.nextprime(rng.getrandbits(64))
        small = sympy.nextprime(rng.getrandbits(32))
        for e in (1, 2, 3, 4):
            assert prime_power_decomposition(p**e) == (p, e)
            with pytest.raises(ValueError):
                prime_power_decomposition(2 * p**e)
        with pytest.raises(ValueError):
            prime_power_decomposition(small * sympy.nextprime(small))


def test_multiplicative_order():
    assert multiplicative_order(4, 63) == 3
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(6, 63)
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 300)
        a = rng.randint(1, n)
        if math.gcd(a, n) != 1:
            continue
        d = multiplicative_order(a, n)
        assert pow(a, d, n) == 1
        assert all(pow(a, e, n) != 1 for e in range(1, d))


def test_smallest_primitive_root():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(9) == 2
    with pytest.raises(ValueError):
        smallest_primitive_root(8)


def test_factorize_matches_sympy():
    """factorize and prime_factors against sympy.factorint, primes
    increasing, for every n < 20000, a few structured n and 300 seeded
    random 48-bit n.  Most 48-bit n leave a cofactor past the trial
    bound, so they take the Pollard-Brent path."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    samples = [*range(1, 20_000), 2**31 - 1, 3**13, 2 * 3 * 5 * 7 * 11 * 13 * 17, 999983 * 1009]
    samples += [rng.getrandbits(48) | 1 << 47 for _ in range(300)]
    for n in samples:
        expected = sorted(sympy.factorint(n).items())
        assert factorize(n) == tuple(expected), n
        assert prime_factors(n) == tuple(p for p, _ in expected), n


def test_factorize_splits_cofactors_past_the_trial_bound():
    """Products of prime powers past the trial bound of 1000, repeated
    primes and close pairs among them, with and without small primes, as
    built from their known factorizations."""
    rng = random.Random(28)
    primes = [q for q in range(1000, 1200) if is_prime(q)]
    primes += [q for q in range(10**6, 10**6 + 200) if is_prime(q)]
    primes += [2**31 - 1, 2**61 - 1]
    for _ in range(300):
        chosen = rng.sample(primes, rng.randint(1, 3))
        expected = {q: rng.randint(1, 3) for q in chosen}
        if rng.random() < 0.5:
            expected |= {q: rng.randint(1, 4) for q in rng.sample([2, 3, 5, 7, 997], 2)}
        n = math.prod(q**e for q, e in expected.items())
        if n >= 3 * 10**24:  # past is_prime's bound the cofactor is trial-divided
            continue
        assert factorize(n) == tuple(sorted(expected.items())), n
    assert factorize(1009**2 * 1013**3 * (2**31 - 1)) == ((1009, 2), (1013, 3), (2**31 - 1, 1))


def test_factorize_refuses_a_large_cofactor_past_the_trial_limit():
    """A cofactor at or above is_prime's bound with no prime up to the
    trial limit of 10^6 is refused with ValueError naming it, at once;
    one prime at or below the limit still splits such a number."""
    bound = 3_317_044_064_679_887_385_961_981
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"cofactor {(2**61 - 1) * (2**31 - 1)} "):
        factorize((2**61 - 1) * (2**31 - 1))
    assert time.perf_counter() - start < 1
    assert factorize(1009**9) == ((1009, 9),)
    assert factorize(1009 * 1013**2) == ((1009, 1), (1013, 2))

    def prime_from(q):
        return next(k for k in itertools.count(q) if is_prime(k))

    for small, refused in ((999983, False), (prime_from(10**6 + 1), True)):
        big = prime_from(bound // small + 1)
        assert small * big >= bound
        if refused:
            with pytest.raises(ValueError, match="no prime factor <= 1000000"):
                factorize(small * big)
        else:
            assert factorize(small * big) == ((small, 1), (big, 1))


def naive_squarefree_divisors(n):
    """Oracle: the squarefree d | n by trial division, mu(d) from the count
    of primes of d, ordered by that count and then by the primes of d."""
    def primes_of(d):
        return [p for p in range(2, d + 1) if d % p == 0 and all(p % r for r in range(2, p))]

    rows = []
    for d in range(1, n + 1):
        if n % d == 0:
            primes = primes_of(d)
            if all(d % (p * p) for p in primes):
                rows.append((len(primes), primes, d))
    return [(d, (-1) ** count) for count, _, d in sorted(rows)]


def test_squarefree_divisors_match_naive_list():
    assert squarefree_divisors(1) == [(1, 1)]
    assert squarefree_divisors(60) == [(1, 1), (2, -1), (3, -1), (5, -1),
                                       (6, 1), (10, 1), (15, 1), (30, -1)]
    for n in range(1, 2001):
        assert squarefree_divisors(n) == naive_squarefree_divisors(n), n


def test_primitive_root_and_order_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import n_order, primitive_root

    for q in range(2, 600):
        expected = primitive_root(q)  # the smallest one, or None if (Z/q)^x is not cyclic
        if expected is None:
            with pytest.raises(ValueError):
                smallest_primitive_root(q)
        else:
            assert smallest_primitive_root(q) == expected, q
    rng = random.Random(13)
    for _ in range(600):
        n = rng.randint(2, 5000)
        a = rng.randint(0, n - 1)
        if math.gcd(a, n) == 1:
            assert multiplicative_order(a, n) == n_order(a, n), (a, n)
