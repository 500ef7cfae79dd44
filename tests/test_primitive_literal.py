"""gf._PRIMITIVE_CODES, the stored primitive polynomials, and the checks
that make storing them safe: the literal covers exactly the fields of the
default budget with p <= 13 and equals the search there; the search
outside it, over the candidates of norm g_p only, equals the search over
every candidate; and a wrong entry is caught at run time, by the norm
check of primitive_polynomial or by the walk check of the curve tables."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from qlverify import cli, curves, gf
from qlverify.gf import is_irreducible, poly_pow_mod, primitive_polynomial
from qlverify.numtheory import is_prime, multiplicative_order, prime_factors, smallest_primitive_root

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def code_of(m, p):
    return sum(c * p**i for i, c in enumerate(m[:-1]))


def literal_text(codes):
    rows = "".join(f"    {p}: ({', '.join(map(str, row))}),\n" for p, row in codes.items())
    return "_PRIMITIVE_CODES = {\n" + rows + "}"


def test_literal_covers_exactly_the_default_budget_and_equals_the_search():
    """Every p <= 13 and r >= 1 with p^r <= DEFAULT_MAX_FIELD_SIZE, no
    other field, each entry the search's answer.  On failure the message
    is the literal to paste into gf.py."""
    regenerated = {}
    for p in (q for q in range(2, 14) if is_prime(q)):
        g_p = smallest_primitive_root(p) % p
        regenerated[p] = tuple(code_of(gf._search_primitive(p, r, g_p), p)
                               for r in range(1, 64) if p**r <= curves.DEFAULT_MAX_FIELD_SIZE)
    assert gf._PRIMITIVE_CODES == regenerated, "\n" + literal_text(regenerated)


def test_copy_boundaries_are_too_few_to_reach_a_reducible_modulus():
    """The count behind the walk check's proof, for every stored field: the
    windows that straddle a copy boundary of _FieldTables' walk, r - 1 per
    boundary below n + r - 1, are fewer than the p^ceil(r/2) - 1 nonzero
    non-units of F_p[x]/m for any reducible m with m(0) != 0."""
    for p, codes in gf._PRIMITIVE_CODES.items():
        for r in range(1, len(codes) + 1):
            n = p**r - 1
            m = n // (p - 1)
            walked = m * -(-max(curves._CHUNK, p) // m)  # as in _FieldTables.__init__
            straddling = (r - 1) * ((n + r - 2) // walked)
            assert straddling < p ** -(-r // 2) - 1, (p, r, straddling)


def unrestricted_search(p, r):
    """The search over every monic candidate in code order, the norm tested
    first as an integer."""
    n = p**r - 1
    order_primes = [ell for ell in prime_factors(n) if (p - 1) % ell]
    g_p = smallest_primitive_root(p) % p
    for m in gf._monic_candidates(p, r):
        if ((-1) ** r * m[0] % p == g_p and is_irreducible(m, p)
                and all(poly_pow_mod([0, 1], n // ell, m, p) != [1] for ell in order_primes)):
            return tuple(m)
    raise AssertionError("no primitive polynomial")


def test_search_over_one_constant_term_matches_the_unrestricted_search():
    """Seeded primes past the literal, large for their degree, and two
    degrees just past it for p = 2 and p = 13."""
    rng = random.Random(29)
    fields = [(2, 25), (13, 7)]
    for low, high, r, count in ((10**4, 10**5, 1, 3), (1000, 6000, 2, 6), (100, 400, 3, 4), (17, 60, 4, 2)):
        for _ in range(count):
            fields.append((next(q for q in itertools.count(rng.randrange(low, high)) if is_prime(q)), r))
    for p, r in fields:
        assert primitive_polynomial(p, r) == unrestricted_search(p, r), (p, r)


def first_candidate_with_norm(p, r, norm, accept):
    """The first monic m of degree r in code order with (-1)^r m(0) = norm
    mod p and accept(m)."""
    constant = (-1) ** r * norm % p
    for code in range(p ** (r - 1)):
        m = [constant] + [code // p**i % p for i in range(r - 1)] + [1]
        if accept(m):
            return tuple(m)
    raise AssertionError("no such candidate")


def has_order(m, p, n):
    return all(poly_pow_mod([0, 1], n // ell, m, p) != [1] for ell in prime_factors(n))


def store(monkeypatch, p, r, m):
    codes = list(gf._PRIMITIVE_CODES[p])
    codes[r - 1] = code_of(m, p)
    monkeypatch.setitem(gf._PRIMITIVE_CODES, p, tuple(codes))


def non_primitive_irreducible(m, p):
    return is_irreducible(m, p) and not has_order(m, p, p ** (len(m) - 1) - 1)


def reducible(m, p):
    return not is_irreducible(m, p)


# a field walked whole, and two whose walks are copied twice: one walked
# over a single F_p^x sheet, one over two sheets
@pytest.mark.parametrize("p,r", [(2, 4), (3, 12), (5, 8)])
@pytest.mark.parametrize("fault", [non_primitive_irreducible, reducible])
def test_walk_check_rejects_a_stored_modulus_that_is_not_primitive(monkeypatch, p, r, fault):
    g_p = smallest_primitive_root(p) % p
    m = first_candidate_with_norm(p, r, g_p, lambda m: fault(m, p))
    store(monkeypatch, p, r, m)
    assert primitive_polynomial(p, r) == m  # the norm is right, so the lookup passes
    with pytest.raises(AssertionError, match="power walk"):
        curves._FieldTables(p, r)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 2), (13, 3)])
def test_lookup_rejects_a_stored_primitive_modulus_with_the_wrong_norm(monkeypatch, p, r):
    """A primitive m whose norm is a primitive root mod p other than g_p
    passes the walk check, so the norm check is what pins g_p."""
    g_p = smallest_primitive_root(p) % p
    other = next(h for h in range(g_p + 1, p) if multiplicative_order(h, p) == p - 1)
    m = first_candidate_with_norm(p, r, other, lambda m: is_irreducible(m, p) and has_order(m, p, p**r - 1))
    store(monkeypatch, p, r, m)
    with pytest.raises(AssertionError, match="norm"):
        primitive_polynomial(p, r)
    curves._tables.cache_clear()
    with pytest.raises(AssertionError, match="norm"):
        curves._tables(p, r)


def test_curve_runs_search_no_polynomial(monkeypatch):
    """The default covers and the seed-11 curves-matrix specs, on empty
    caches, look up the 28 fields of the curves matrix and never reach the
    search."""
    spec = importlib.util.spec_from_file_location("qlverify_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    looked_up, searched = set(), []
    lookup, search = curves.primitive_polynomial, gf._search_primitive

    def lookup_spy(p, r):
        looked_up.add((p, r))
        return lookup(p, r)

    def search_spy(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(curves, "primitive_polynomial", lookup_spy)
    monkeypatch.setattr(gf, "_search_primitive", search_spy)
    for cache in (curves._tables, curves._value_log_histogram):
        cache.cache_clear()
    for specs in (cli.DEFAULT_COVERS, workloads.curve_specs(11)):
        assert cli.run_curves(specs).ok
    assert looked_up == {(3, r) for r in range(1, 13)} | {(p, r) for p in (5, 7) for r in range(1, 9)}
    assert searched == []
