"""Known faults, each put into the running package, must fail a report.

Each fault below replaces one function through monkeypatch; nothing in the
package has a hook for it.  The three CLI suites then run in process on
small inputs (ffqlc with q in {2, 3} and m <= 6, dirichlet with N <= 20,
the default curve covers), and each suite named for the fault must write
at least one FAIL record and exit 1.  The package's lru_caches are cleared
before and after every case: a value cached by a good run would hide the
fault, and a value cached under the fault would leak into later tests.
The cli module binds its entry points by from-imports, so each fault is
patched where its caller looks the name up.

A fault that only turns PASS records into SKIP survives.  These faults
survive today; they are listed here, not asserted, so that no test pins a
defect.  The change that closes the named ROADMAP item moves them into
KILLED.

- every generalized Bernoulli number times 2 (items 15, 19);
- every generalized Bernoulli number negated (item 11);
- B_4 = -1/15 in bernoulli_number, so zeta(-3) reads 1/60 (item 15);
- L(chi-bar) for L(chi) in dirichlet_l_value (item 19);
- L[a] from zeta^(-a c) in l_series_kummer (item 23);
- one histogram count moved from class 1 to class 0 at r = 4 in
  _residue_histogram_mod: special values turn to SKIP (items 16, 17, 18);
- every curve special value taken at t = p^(n+1) (items 16, 18).

A fault in KILLED never moves back to that list: a change that lets one
survive is the regression.
"""

import sys
from functools import partial

import pytest

from qlverify import abelian, cli, curves, cyclotomic, dirichlet, ffqlc
from qlverify.abelian import FgAbelianGroup
from qlverify.cyclotomic import CyclotomicNumber

FFQLC = ("ffqlc", "--q", "2,3", "--m-max", "6")
DIRICHLET = ("dirichlet", "--N-max", "20")
CURVES = ("curves",)


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "qlverify" or name.startswith("qlverify."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_suite(argv, tmp_path):
    """Exit code and FAIL record count of one in-process CLI run."""
    out = tmp_path / "report.tsv"
    code = cli.main(["--out", str(out), *argv])
    fails = sum(line.endswith("\tFAIL") for line in out.read_text().splitlines())
    return code, fails


def scaled(module, name, factor, monkeypatch):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: original(*args) * factor)


def doubled_invariant_factors(monkeypatch):
    original = abelian.cokernel

    def cokernel(rows):
        group = original(rows)
        return FgAbelianGroup(group.rank, tuple(2 * d for d in group.invariant_factors))

    monkeypatch.setattr(abelian, "cokernel", cokernel)
    monkeypatch.setattr(cyclotomic, "cokernel", cokernel)


def doubled_norm(monkeypatch):
    original = CyclotomicNumber.norm_to_Q
    monkeypatch.setattr(CyclotomicNumber, "norm_to_Q", lambda self: original(self) * 2)


def flipped_vanishing_parity(monkeypatch):
    def order(N, H, s):
        r1, r2 = dirichlet.signature(N, H)
        return r2 if (1 - s) % 2 == 1 else r1 + r2

    monkeypatch.setattr(dirichlet, "zeta_order_of_vanishing", order)


def unscaled_buckets(monkeypatch):
    def buckets(cover, subgroup_order, r):
        e = cover.d // subgroup_order
        hist = curves._residue_histogram_mod(cover.p, r, cover.f, cover.d)
        return [hist[e * j] for j in range(subgroup_order)]

    monkeypatch.setattr(curves, "_intermediate_class_buckets", buckets)


def extra_point_at_degree_3(monkeypatch):
    original = curves._count_points
    monkeypatch.setattr(curves, "_count_points", lambda cover, r: original(cover, r) + (r == 3))


def euler_factor_plus(monkeypatch):
    original = ffqlc._euler_factor  # 1 - zeta^a q^k, so 2 minus it is 1 + zeta^a q^k
    monkeypatch.setattr(ffqlc, "_euler_factor", lambda q, chi, k: 2 - original(q, chi, k))


def conjugated_l_value(monkeypatch):
    original = ffqlc.artin_l_value_ff
    monkeypatch.setattr(ffqlc, "artin_l_value_ff",
                        lambda q, chi, k: original(q, chi, k).galois_conjugate(-1))


def twisted_primitivize(twist, monkeypatch):
    """primitivize returning (m', twist(m', a')) for its right answer (m', a')."""
    original = ffqlc.CyclicCharacter.primitivize

    def primitivize(self):
        prim = original(self)
        return ffqlc.CyclicCharacter(prim.m, twist(prim.m, prim.a))

    monkeypatch.setattr(ffqlc.CyclicCharacter, "primitivize", primitivize)


def doubled_conjugate_product_norm(monkeypatch):
    original = cyclotomic._conjugate_product

    def product(m, num):
        bar, rest, norm = original(m, num)
        return bar, rest, 2 * norm

    monkeypatch.setattr(cyclotomic, "_conjugate_product", product)


# fault -> (installer, the suites that must FAIL under it)
KILLED = {
    "l_value_times_2": (partial(scaled, ffqlc, "artin_l_value_ff", 2), [FFQLC]),
    "moebius_product_times_2": (partial(scaled, ffqlc, "moebius_zeta_product_ff", 2), [FFQLC]),
    "gcd_closed_form_times_2": (partial(scaled, ffqlc, "gcd_order_closed_form", 2), [FFQLC]),
    "invariant_factors_doubled": (doubled_invariant_factors, [FFQLC]),
    "norm_times_2": (doubled_norm, [FFQLC, CURVES, DIRICHLET]),
    "vanishing_parity_flipped": (flipped_vanishing_parity, [DIRICHLET]),
    "buckets_not_scaled_by_e": (unscaled_buckets, [CURVES]),
    "extra_point_at_r_3": (extra_point_at_degree_3, [CURVES]),
    "special_values_times_2": (partial(scaled, curves, "l_special_value_curve", 2), [CURVES]),
    "euler_factor_one_plus": (euler_factor_plus, [FFQLC]),
    "conjugate_product_norm_times_2": (doubled_conjugate_product_norm, [FFQLC]),
    "l_value_conjugated": (conjugated_l_value, [FFQLC]),
    "primitivize_conjugated": (partial(twisted_primitivize, lambda m, a: -a % m), [FFQLC]),
    "primitivize_twisted_by_sigma_2": (
        partial(twisted_primitivize, lambda m, a: 2 * a % m if m % 2 and m > 2 else a), [FFQLC]),
}


@pytest.fixture
def clean_caches():
    clear_caches()
    yield
    clear_caches()


def test_every_suite_passes_without_a_fault(clean_caches, tmp_path):
    for argv in (FFQLC, CURVES, DIRICHLET):
        assert run_suite(argv, tmp_path) == (0, 0), argv


# clean_caches is requested first, so its teardown runs after monkeypatch
# has restored the package
@pytest.mark.parametrize("fault", sorted(KILLED))
def test_known_fault_fails_a_report(clean_caches, monkeypatch, tmp_path, fault):
    install, suites = KILLED[fault]
    install(monkeypatch)
    for argv in suites:
        code, fails = run_suite(argv, tmp_path)
        assert fails > 0 and code == 1, (fault, argv, code, fails)
