"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact arithmetic; the only tolerances are the stated
wall-clock budgets.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

from genrandom import random_finite_complex
from naive_subgroups import all_subgroups, quotient_is_cyclic
from qlverify.abelian import (
    FgAbelianGroup,
    cohomology,
    euler_number,
    euler_number_of_cohomology,
)
from qlverify.curves import KummerCover, verify_l_identities
from qlverify.dirichlet import (
    predict_k_ratio,
    verify_norm_identity_numberfield,
    verify_order_identity,
)
from qlverify.equivariant import (
    cech_h0_oracle,
    cyclic_cech_complex,
    cyclic_fixed_point_mackey,
    h0_fixed_point_oracle,
    bredon_cohomology,
)
from qlverify.ffqlc import CyclicCharacter, equivariant_k_finite_field, verify_main_theorem_ff
from qlverify.numtheory import divisors, euler_phi, factorize


def report_line(idx, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {idx}: {status} - {detail}")


def test_criterion_1_theorem_golden_case():
    """q in {2,3,4,5}, k <= 6, m = 2 primitive: pi_(2k-1) = Z/(q^k + 1),
    pi_(2k) = 0, in under a second."""
    t0 = time.time()
    problems = []
    chi = CyclicCharacter(2, 1)
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            odd = equivariant_k_finite_field(q, chi, 2 * k - 1)
            even = equivariant_k_finite_field(q, chi, 2 * k)
            if odd != FgAbelianGroup.cyclic(q**k + 1) or not even.is_trivial:
                problems.append((q, k, str(odd), str(even)))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 1.0
    report_line(1, ok, f"24 golden cases Z/(q^k+1) with vanishing even part, {elapsed:.3f}s")
    assert not problems, problems
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_five_path_agreement():
    """q in {2,3,5,7}, m <= 12, every character of C_m, k <= 6: conjugate
    product norm = Moebius zeta product = signed pi ratio, and the odd
    group matches both the cyclotomic quotient and the gcd closed form."""
    t0 = time.time()
    failures = []
    cases = 0
    for q in (2, 3, 5, 7):
        for m in range(1, 13):
            for a in range(m):
                for k in range(1, 7):
                    rep = verify_main_theorem_ff(q, CyclicCharacter(m, a), k)
                    cases += 1
                    failures.extend(rep.failures)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report_line(2, ok, f"{cases} cases x 5 paths agree exactly, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def _random_mackey_instances(count):
    rng = random.Random(20260810)
    prime_pool = (2, 3, 5, 7)
    made = 0
    lam_seen = set()
    while made < count:
        lam = rng.randint(1, 4)
        m = 1
        for p in rng.sample(prime_pool, lam):
            m *= p ** rng.randint(1, 2 if p < 5 else 1)
        mod = rng.randint(2, 400)
        x = rng.randint(1, mod)
        if gcd(x, mod) != 1:
            continue
        u = pow(x, euler_phi(mod) // gcd(euler_phi(mod), m), mod)
        yield mod, u, m
        lam_seen.add(len(factorize(m)))
        made += 1
    assert lam_seen >= {1, 2, 3, 4}


def test_criterion_3_bredon_concentration():
    """>= 500 randomized kernel-filtration instances with up to 4 distinct
    primes: cohomology vanishes away from degree 0 and H^0 matches the
    closed-form quotient."""
    t0 = time.time()
    problems = []
    count = 0
    for mod, u, m in _random_mackey_instances(500):
        M = cyclic_fixed_point_mackey(mod, u, m)
        lam = len(factorize(m))
        if bredon_cohomology(M, 0) != h0_fixed_point_oracle(M):
            problems.append(("H0", mod, u, m))
        for s in range(-lam, 0):
            if not bredon_cohomology(M, s).is_trivial:
                problems.append((s, mod, u, m))
        count += 1
    elapsed = time.time() - t0
    ok = not problems and count >= 500 and elapsed < 60.0
    report_line(3, ok, f"{count} instances concentrated in degree 0, {elapsed:.1f}s")
    assert not problems, problems[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_4_euler_number_invariance():
    """>= 500 randomized bounded complexes of finite groups: the alternating
    order product is unchanged by passing to cohomology."""
    rng = random.Random(48151623)
    problems = []
    for i in range(500):
        C = random_finite_complex(rng)
        if euler_number(C) != euler_number_of_cohomology(C):
            problems.append(i)
    ok = not problems
    report_line(4, ok, "500 complexes: euler number invariant under cohomology")
    assert not problems, problems[:5]


def test_criterion_5_cech_lemma():
    """>= 200 randomized (Z/M, subgroup family) instances: the intersection
    complex is concentrated in degree 0 with H^0 = Z/M mod the join."""
    rng = random.Random(31337)
    problems = []
    for i in range(200):
        mod = rng.randint(2, 500)
        gens = [rng.randint(0, mod) for _ in range(rng.randint(1, 4))]
        C = cyclic_cech_complex(mod, gens)
        if cohomology(C, 0) != cech_h0_oracle(mod, gens):
            problems.append(("H0", mod, gens))
        for s in range(C.lo, 0):
            if not cohomology(C, s).is_trivial:
                problems.append((s, mod, gens))
    ok = not problems
    report_line(5, ok, "200 intersection complexes concentrated in degree 0")
    assert not problems, problems[:5]


CURVE_FS = ((0, 1), (1, 1), (0, 1, 0, 1), (1, -1, 0, 1))  # x, x+1, x^3+x, x^3-x+1


def test_criterion_6_curve_factorization():
    """p in {3,5,7}, every d | p-1, f in {x, x+1, x^3+x, x^3-x+1},
    truncation B = 2 (deg f + 3): zeta(Y) factors into character L-series
    coefficientwise, with the descent/induction identities through every
    intermediate level and the inclusion-exclusion identity.  Cells whose
    enumeration cannot fit the budget (5^12 and 7^12 elements) are reported
    as SKIP, never guessed."""
    t0 = time.time()
    failures = []
    passed_cells = 0
    skipped = []
    statuses = Counter()
    skip_quantities = Counter()
    for p in (3, 5, 7):
        for d in divisors(p - 1):
            for f in CURVE_FS:
                cover = KummerCover(p, d, tuple(c % p for c in f))
                rep = verify_l_identities(cover)
                failures.extend(rep.failures)
                statuses.update(r.status for r in rep.records)
                skip_quantities.update(r.quantity for r in rep.records if r.status == "SKIP")
                if any(r.status == "SKIP" and r.quantity == "all" for r in rep.records):
                    skipped.append((p, d, f))
                else:
                    passed_cells += 1
    elapsed = time.time() - t0
    ok = not failures and passed_cells >= 22 and elapsed < 120.0
    report_line(
        6,
        ok,
        f"{passed_cells} cells exact to order B, {len(skipped)} cells skipped "
        f"(enumeration beyond any budget at p^12), {elapsed:.1f}s",
    )
    assert not failures, [f"{r.case} {r.quantity}" for r in failures[:3]]
    # every feasible cell of the matrix must have run: 3^B always fits,
    # 5^8 and 7^8 fit, 5^12 and 7^12 cannot
    assert passed_cells == 22 and len(skipped) == 14
    assert all(p in (5, 7) and len(f) == 4 for p, _, f in skipped)
    # every record of every enumerated cell is checked: a histogram count
    # moved between classes breaks the recurrence fit, which would turn a
    # special value into a SKIP, not a FAIL
    assert statuses == {"PASS": 208, "SKIP": 14}
    assert skip_quantities == {"all": 14}
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def _norm_identity_matrix(n_max):
    for N in range(1, n_max + 1):
        minus_one = (N - 1) % N
        for H in all_subgroups(N):
            if minus_one in H and quotient_is_cyclic(N, H):
                yield N, H


def test_criterion_7_number_field_norm_identity():
    """All N <= 40, subgroups H containing -1 with cyclic quotient, n <= 3:
    Norm L(chi, 1-2n) equals the inclusion-exclusion product of Dedekind
    zeta values, both via the generalized Bernoulli oracle."""
    t0 = time.time()
    failures = []
    cases = 0
    for N, H in _norm_identity_matrix(40):
        for n in (1, 2, 3):
            rep = verify_norm_identity_numberfield(N, H, n)
            cases += 1
            failures.extend(rep.failures)
    # the worked case: -2/5 = (1/30)/(-1/12)
    worked = verify_norm_identity_numberfield(5, {1, 4}, 1)
    value_ok = worked.records[0].value == "-2/5"
    elapsed = time.time() - t0
    ok = not failures and value_ok and cases >= 3 * 40
    report_line(7, ok, f"{cases} norm identities exact incl. N=5 -> -2/5, {elapsed:.1f}s")
    assert value_ok
    assert not failures, failures[:5]


def test_criterion_8_order_identity():
    """Same (N, H) matrix, 2 <= k <= 7: phi(m) * ord L equals the
    alternating sum of Borel-table zeta orders, exact integers."""
    t0 = time.time()
    failures = []
    cases = 0
    for N, H in _norm_identity_matrix(40):
        for k in range(2, 8):
            rep = verify_order_identity(N, H, k)
            cases += 1
            failures.extend(rep.failures)
    elapsed = time.time() - t0
    ok = not failures
    report_line(8, ok, f"{cases} order identities exact, {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_9_predictions_ledger():
    """predict_k_ratio emits PREDICTION records with the Birch-Tate-style
    values 1/24 for Q and 1/120 for Q(sqrt 5); these are internal
    consistency outputs, not assertions about external K-group data."""
    v_q, rep_q = predict_k_ratio(1, {0}, 1)
    v_sqrt5, rep_sqrt5 = predict_k_ratio(5, {1, 4}, 1)
    ok = (
        v_q == Fraction(1, 24)
        and v_sqrt5 == Fraction(1, 120)
        and rep_q.records[0].status == "PREDICTION"
        and rep_sqrt5.records[0].status == "PREDICTION"
    )
    report_line(9, ok, "predictions 1/24 (Q) and 1/120 (Q(sqrt 5)) emitted as PREDICTION")
    assert ok
