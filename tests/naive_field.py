"""Naive per-point oracles for the curve engine: field arithmetic in
F_p[x]/default_modulus through gf.FieldExt, one element at a time.  They
share no code with the table engine, which works on discrete logarithms
modulo gf.primitive_polynomial."""

from __future__ import annotations

from collections import Counter

from qlverify.gf import FieldExt
from qlverify.numtheory import smallest_primitive_root


def frobenius_class(cover, field: FieldExt, x) -> int:
    """d-th power residue class of f(x): the dlog, base g_p^((p-1)/d) with
    g_p the smallest primitive root mod p, of f(x)^((p^r - 1)/d) in mu_d
    inside F_p^x.  Single-point, table-free."""
    if field.p != cover.p:
        raise ValueError("field characteristic mismatch")
    u = field.eval_poly(cover.f, x)
    if field.is_zero(u):
        raise ValueError("point lies on the removed locus f = 0")
    if cover.d == 1:
        return 0
    w = field.pow(u, (field.size - 1) // cover.d)
    if any(c != 0 for c in w[1:]):
        raise AssertionError("power residue did not land in the prime field")
    target = w[0]
    v = pow(smallest_primitive_root(cover.p), (cover.p - 1) // cover.d, cover.p)
    acc = 1
    for cls in range(cover.d):
        if acc == target:
            return cls
        acc = (acc * v) % cover.p
    raise AssertionError("power residue is not in mu_d")


def naive_base_count(p, f, r):
    field = FieldExt.create(p, r)
    return sum(1 for x in field.elements() if not field.is_zero(field.eval_poly(f, x)))


def naive_cover_count(p, d, f, r):
    """#{(x, y) : y^d = f(x) != 0}, with the d-th powers of every y tallied
    once so that fields of a few thousand elements stay cheap."""
    field = FieldExt.create(p, r)
    roots_of = Counter(field.pow(y, d) for y in field.elements())
    total = 0
    for x in field.elements():
        fx = field.eval_poly(f, x)
        if not field.is_zero(fx):
            total += roots_of[fx]
    return total


def naive_char_sum(cover, r):
    """sum over X(F_(p^r)) of zeta_d^(a * class) for all a at once, via the
    single-point frobenius_class routine."""
    field = FieldExt.create(cover.p, r)
    counts = [0] * cover.d
    for x in field.elements():
        if field.is_zero(field.eval_poly(cover.f, x)):
            continue
        counts[frobenius_class(cover, field, x)] += 1
    return counts
