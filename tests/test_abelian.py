import inspect
import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from genrandom import diagonal, mat_vec, random_complex, random_finite_complex, random_lattice_automorphism
from qlverify.abelian import (
    BoundedComplex,
    FgAbelianGroup,
    IntMatrix,
    NoIntegerSolution,
    cohomology,
    cokernel,
    euler_number,
    euler_number_of_cohomology,
    in_column_span,
    integer_kernel,
    smith_normal_form,
    solve_integer,
)
from qlverify.equivariant import CyclicMackeyData, cyclic_cech_complex, moore_cochain_complex
from qlverify.numtheory import divisors, factorize


def fraction_det(M: IntMatrix) -> Fraction:
    """Independent determinant oracle: Gaussian elimination over Q."""
    n = M.rows
    a = [[Fraction(x) for x in row] for row in M.data]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_zero_matrix():
    _, D, _ = smith_normal_form([[0, 0], [0, 0]])
    assert D.data == ((0, 0), (0, 0))


def test_snf_diag_2_3():
    # expected values from gcd/lcm of the elementary divisors
    U, D, V = smith_normal_form([[2, 0], [0, 3]])
    assert D.data == ((1, 0), (0, 6))


def test_snf_gcd_row():
    _, D, _ = smith_normal_form([[4, 6]])
    assert D.data == ((2, 0),)


@pytest.mark.parametrize("seed", range(5))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        M = IntMatrix.from_rows(
            [[rng.randint(-12, 12) for _ in range(m)] for _ in range(n)], m
        )
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V).data == D.data
        assert abs(fraction_det(U)) == 1 if n else True
        assert abs(fraction_det(V)) == 1 if m else True
        diag = [D.data[i][i] for i in range(min(n, m))]
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D.data[i][j] == 0


def test_snf_terminates_on_larger_entries():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = IntMatrix.from_rows(
            [[rng.randint(-10**6, 10**6) for _ in range(m)] for _ in range(n)], m
        )
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V).data == D.data


def test_snf_diagonal_product_is_det():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], n)
        _, D, _ = smith_normal_form(M)
        diag_prod = 1
        for i in range(n):
            diag_prod *= D.data[i][i]
        assert diag_prod == abs(fraction_det(M))


def test_snf_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(23)
    for _ in range(150):
        n, m, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        # a product through inner < min(n, m) columns has deficient rank
        A = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(inner)] for _ in range(n)])
        B = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(m)] for _ in range(inner)])
        M = A @ B
        _, D, _ = smith_normal_form(M)
        expected = invariant_factors(sympy.Matrix(M.data), domain=sympy.ZZ)
        assert [D.data[i][i] for i in range(min(n, m))] == [int(f) for f in expected]


def test_solve_and_kernel():
    M = IntMatrix.from_rows([[2, 4], [0, 3]])
    x = solve_integer(M, (6, 3))
    assert mat_vec(M, x) == (6, 3)
    with pytest.raises(NoIntegerSolution):
        solve_integer(M, (1, 0))
    K = integer_kernel(IntMatrix.from_rows([[2, -4]]))
    assert K.cols == 1
    assert K.col(0) in ((2, 1), (-2, -1))


def test_solve_single_row_fast_path_matches_snf():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 5)
        row = [rng.randint(-9, 9) for _ in range(m)]
        b = rng.randint(-20, 20)
        M = IntMatrix.from_rows([row], m)
        try:
            x = solve_integer(M, (b,))
            assert sum(a * c for a, c in zip(row, x)) == b
        except NoIntegerSolution:
            g = 0
            for a in row:
                g = __import__("math").gcd(g, a)
            assert g == 0 and b != 0 or (g != 0 and b % g != 0)


def test_kernel_is_saturated_and_annihilates():
    rng = random.Random(11)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)], m)
        K = integer_kernel(M)
        for j in range(K.cols):
            assert all(v == 0 for v in mat_vec(M, K.col(j)))


# ---------------------------------------------------------------------------
# groups


def test_fg_group_invariants():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    g = FgAbelianGroup(0, (2, 6))
    assert g.order() == 12
    assert str(g) == "Z/2 x Z/6"
    assert str(FgAbelianGroup(2, (3,))) == "Z x Z x Z/3"
    with pytest.raises(ValueError):
        FgAbelianGroup(1, ()).order()


def test_normal_form_examples():
    assert cokernel([[12]]) == FgAbelianGroup.cyclic(12)
    assert cokernel([[1]]).is_trivial
    assert cokernel([[0, 0], [0, 0]]) == FgAbelianGroup(2, ())
    assert cokernel([[2, 0], [0, 3]]) == FgAbelianGroup(0, (6,))


def test_diagonal_presentation():
    # an order of 0 is a free Z with no relation column; 1 keeps its column
    G = diagonal([0, 1, 4])
    assert G.rows == 3
    assert G.data == ((0, 0), (1, 0), (0, 4))
    assert cokernel(G.data) == FgAbelianGroup(1, (4,))
    assert cokernel(diagonal([]).data).is_trivial
    assert diagonal([0]).cols == 0
    assert cokernel(diagonal([0]).data) == FgAbelianGroup(1, ())


def test_normal_form_idempotent_and_order_multiplicative():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        ncols = n + rng.randint(0, 2)
        rel = IntMatrix.from_rows(
            [[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(n)], ncols
        )
        g = cokernel(rel.data)
        # idempotence: re-presenting the normal form reproduces it
        g2 = cokernel(diagonal([0] * g.rank + list(g.invariant_factors)).data)
        assert g2 == g
    a = FgAbelianGroup(0, (4,))
    b = FgAbelianGroup(0, (6,))
    assert a.direct_sum(b).order() == 24
    assert a.direct_sum(b) == FgAbelianGroup(0, (2, 12))


def elementary_divisor_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    """Independent oracle for direct sums: split every invariant factor
    into prime powers, then recombine the largest powers of each prime into
    the last factor, the next largest into the one before, and so on."""
    exps: dict[int, list[int]] = {}
    for g in groups:
        for d in g.invariant_factors:
            for p, e in factorize(d):
                exps.setdefault(p, []).append(e)
    columns = [[p**e for e in sorted(lst, reverse=True)] for p, lst in sorted(exps.items())]
    factors = sorted(prod(parts) for parts in itertools.zip_longest(*columns, fillvalue=1))
    return FgAbelianGroup(sum(g.rank for g in groups), tuple(factors))


def test_direct_sum_recombines_invariant_factors():
    assert FgAbelianGroup(0, (2,)).direct_sum(FgAbelianGroup(0, (3,))) == FgAbelianGroup(0, (6,))
    assert FgAbelianGroup(1, (2,)).direct_sum(FgAbelianGroup(0, (4,))) == FgAbelianGroup(1, (2, 4))
    assert FgAbelianGroup.trivial().direct_sum() == FgAbelianGroup.trivial()
    rng = random.Random(17)
    for _ in range(200):
        groups = [cokernel([[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)])
            for n in (rng.randint(0, 3) for _ in range(rng.randint(1, 4)))]
        assert groups[0].direct_sum(*groups[1:]) == elementary_divisor_sum(*groups), groups


# ---------------------------------------------------------------------------
# complexes and cohomology


def test_cohomology_multiplication_by_k():
    # 0 -> Z --k--> Z -> 0: H at the target is Z/k, at the source 0
    C = BoundedComplex(0, ((0,), (0,)), (IntMatrix.from_rows([[7]]),))
    assert cohomology(C, 1) == FgAbelianGroup.cyclic(7)
    assert cohomology(C, 0).is_trivial


def test_cohomology_mod3_into_mod15():
    C = BoundedComplex(
        0,
        ((3,), (15,)),
        (IntMatrix.from_rows([[5]]),),
    )
    assert cohomology(C, 0).is_trivial
    assert cohomology(C, 1) == FgAbelianGroup.cyclic(5)


def test_cohomology_zero_differentials():
    C = BoundedComplex(
        -1,
        ((4,), (9,)),
        (IntMatrix.from_rows([[0]]),),
    )
    assert cohomology(C, -1) == FgAbelianGroup.cyclic(4)
    assert cohomology(C, 0) == FgAbelianGroup.cyclic(9)


def test_cohomology_injective_map_of_finite_groups():
    # Z/3 --3--> Z/9 is injective: H^0 = 0, H^1 = Z/3
    C = BoundedComplex(
        0,
        ((3,), (9,)),
        (IntMatrix.from_rows([[3]]),),
    )
    assert cohomology(C, 0).is_trivial
    assert cohomology(C, 1) == FgAbelianGroup.cyclic(3)


def test_complex_construction_rejects_bad_data():
    with pytest.raises(ValueError):
        # map Z/3 -> Z/4 by 1 is not well defined
        BoundedComplex(
            0,
            ((3,), (4,)),
            (IntMatrix.from_rows([[1]]),),
        )
    with pytest.raises(ValueError):
        # d^2 = 15 != 0 in Z/4
        BoundedComplex(
            0,
            ((0,), (0,), (4,)),
            (IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[5]])),
        )
    with pytest.raises(ValueError):
        # a cyclic order is never negative
        BoundedComplex(0, ((-3,),), ())


def test_complex_validation_matches_column_span_oracle():
    """Construction accepts exactly when d maps every source relation
    o_c e_c, and d o d every generator, into the target relation lattice,
    each membership decided by the general Smith path of in_column_span."""
    rng = random.Random(1729)

    def draw():
        return rng.choice([0, 1, rng.randint(2, 12), rng.randint(2, 12)])

    def in_lattice(orders, mat):
        rel = diagonal(orders)
        return all(in_column_span(rel, col) for col in mat.columns())

    def step(a, b):
        """The least x >= 0 whose multiples are the maps Z/a -> Z/b."""
        return b // gcd(a, b) if b else int(a == 0)

    counts = {"accepted": 0, "not well defined": 0, "d o d not zero": 0}
    for trial in range(450):
        kind = trial % 3
        n_terms = 3 if kind == 2 else 2 + trial // 3 % 2
        if kind < 2:
            # a valid dense complex, cut to n_terms terms, and for kind 1
            # one entry moved by a small amount
            C = random_complex(rng, draw)
            while len(C.orders) < n_terms:
                C = random_complex(rng, draw)
            orders = C.orders[:n_terms]
            rows = [[list(row) for row in d.data] for d in C.differentials[:n_terms - 1]]
            entries = [(k, r, c) for k, d in enumerate(rows) for r, row in enumerate(d) for c in range(len(row))]
            if kind and entries:
                k, r, c = rng.choice(entries)
                rows[k][r][c] += rng.choice([-2, -1, 1, 2])
        else:
            # well-defined entries, each a multiple of its step, that need not
            # compose to zero (orders sharing factors make that likelier)
            orders = tuple(tuple(rng.choice([0, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(1, 3)))
                           for _ in range(n_terms))
            rows = [[[step(a, b) * rng.randint(-2, 2) for a in src] for b in tgt]
                    for src, tgt in zip(orders, orders[1:])]
        ds = [IntMatrix.from_rows(d, len(orders[k])) for k, d in enumerate(rows)]
        well_defined = all(
            in_lattice(orders[k + 1], d @ diagonal(orders[k]))
            for k, d in enumerate(ds))
        squares_vanish = all(in_lattice(orders[k + 2], e @ d) for k, (d, e) in enumerate(zip(ds, ds[1:])))
        try:
            BoundedComplex(0, orders, tuple(ds))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (well_defined and squares_vanish), (orders, rows)
        counts["accepted" if accepted else "not well defined" if not well_defined else "d o d not zero"] += 1
    assert min(counts.values()) >= 40, counts


def test_euler_number_examples():
    single = BoundedComplex(0, ((15,),), ())
    assert euler_number(single) == 15
    # Z/3 in degree -1, Z/15 in degree 0: 15/3 = 5 (from the degree-signed product)
    two = BoundedComplex(
        -1,
        ((3,), (15,)),
        (IntMatrix.from_rows([[5]]),),
    )
    assert euler_number(two) == 5
    empty = BoundedComplex(0, ((1,),), ())
    assert euler_number(empty) == 1


def test_euler_number_rejects_infinite_terms():
    C = BoundedComplex(0, ((0,),), ())
    with pytest.raises(ValueError):
        euler_number(C)


def test_euler_invariance_randomized():
    rng = random.Random(42)
    for _ in range(120):
        C = random_finite_complex(rng)
        assert euler_number(C) == euler_number_of_cohomology(C)


def test_random_lattice_automorphism_inverts_and_keeps_the_lattice():
    rng = random.Random(4)
    for _ in range(200):
        orders = [rng.choice([0, 1, rng.randint(2, 12)]) for _ in range(rng.randint(1, 4))]
        q, qinv = random_lattice_automorphism(rng, orders)
        assert (q @ qinv).data == IntMatrix.identity(len(orders)).data
        # q maps every o_j e_j into the lattice of the o_i e_i (Z/0 is Z)
        for j, o in enumerate(orders):
            assert all(x * o % t == 0 if t else x * o == 0 for x, t in zip(q.col(j), orders)), (orders, q)


def test_in_column_span():
    M = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert in_column_span(M, (4, 6))
    assert not in_column_span(M, (1, 0))
    assert in_column_span(IntMatrix.zero(2, 0), (0, 0))
    assert not in_column_span(IntMatrix.zero(2, 0), (1, 0))


def test_membership_matches_sympy_hermite_form():
    """b lies in the column lattice of M exactly when appending it leaves
    the Hermite normal form unchanged (sympy, independent of this SNF)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def sympy_contains(M, B):
        A = sympy.Matrix(M.rows, M.cols, [x for row in M.data for x in row])
        AB = A.row_join(sympy.Matrix(B.rows, B.cols, [x for row in B.data for x in row]))
        return hermite_normal_form(AB) == hermite_normal_form(A)

    rng = random.Random(29)
    inside = outside = 0
    for trial in range(300):
        # every third M has one row, every fifth no columns
        n = 1 if trial % 3 == 0 else rng.randint(2, 4)
        m = 0 if trial % 5 == 0 else rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)], m)
        # targets: images of M (inside) and arbitrary vectors (mostly outside)
        cols = [mat_vec(M, [rng.randint(-4, 4) for _ in range(m)]) if rng.random() < 0.5
                else tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        for col in cols:
            expected = sympy_contains(M, IntMatrix.from_rows([[x] for x in col], 1))
            assert in_column_span(M, col) == expected, (M, col)
            inside += expected
            outside += not expected
    assert inside > 100 and outside > 100

    # diagonal presentations, and matrices with at most one nonzero entry
    # per column (shuffled, repeated, zero columns, rows with no relation)
    inside = outside = 0
    for trial in range(300):
        n = rng.randint(1, 4)
        orders = [rng.choice([0, 1, rng.randint(2, 12)]) for _ in range(n)]
        if trial % 2:
            M = diagonal(orders)
        else:
            cols = []
            for _ in range(rng.randint(0, 5)):
                i = rng.randrange(n)
                cols.append([rng.choice([-1, 1]) * rng.randint(0, 3) * orders[i] if r == i else 0
                             for r in range(n)])
            rng.shuffle(cols)
            M = IntMatrix.from_rows(list(zip(*cols)) if cols else [()] * n, len(cols))
        targets = [mat_vec(M, [rng.randint(-3, 3) for _ in range(M.cols)]) if rng.random() < 0.5
                   else tuple(rng.randint(-13, 13) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        for col in targets:
            expected = sympy_contains(M, IntMatrix.from_rows([[x] for x in col], 1))
            assert in_column_span(M, col) == expected, (M, col)
            inside += expected
            outside += not expected
    assert inside > 100 and outside > 100


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments
    by parameter name, defaults filled in."""
    calls = []
    original = getattr(owner, name)
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_smith_reduction_per_membership_and_per_cohomology(monkeypatch):
    import qlverify.abelian as abelian

    # every Smith reduction, public or internal, runs the one elimination routine
    snf = count_calls(monkeypatch, abelian, "_smith")

    # a membership test reduces its lattice once
    M = IntMatrix.from_rows([[2, 4, 6], [0, 3, 9]], 3)
    assert in_column_span(M, (2, 3))
    assert not in_column_span(M, (1, 0))
    assert len(snf) == 2

    # a cokernel reads only the diagonal, so it carries neither transform
    del snf[:]
    assert cokernel(M.data) == FgAbelianGroup(0, (6,))
    assert [(call["U"], call["V"]) for call in snf] == [(None, None)]

    # a complex is its term orders: validating one, random dense ones
    # included, is divisibility of integers and reduces nothing
    del snf[:]
    rng = random.Random(8)
    complexes = [random_finite_complex(rng) for _ in range(40)]
    complexes += [random_complex(rng, lambda: rng.choice([0, 1, rng.randint(2, 12)])) for _ in range(40)]
    mackey = CyclicMackeyData(210, {d: 2 ** (210 // d) - 1 for d in divisors(210)})
    complexes += [moore_cochain_complex(mackey), cyclic_cech_complex(360, [4, 6, 10, 9])]
    assert [C.lo for C in complexes[-2:]] == [-4, -4]
    assert snf == []

    # cohomology reduces once in every degree: the normal form of the image
    # written on the kernel basis
    for C in complexes:
        for i in C.degrees:
            del snf[:]
            cohomology(C, i)
            assert [(call["U"], call["V"]) for call in snf] == [(None, None)], (C, i)


def test_cohomology_raises_when_an_image_column_leaves_the_kernel():
    # both complexes have d^1 d^0 != 0, so construction rejects them; build
    # them unchecked to reach cohomology, where im d^0 is not inside ker d^1.
    # Z --1--> Z --1--> Z: the image lies on a kernel basis vector that is
    # dropped (target order 0).  Z/12 --1--> Z/6 --2--> Z/4: it lies on one
    # that is scaled by 2 (target order 4), and its coordinate 1 is odd.
    for orders, entries in ((((0,),) * 3, (1, 1)), (((12,), (6,), (4,)), (1, 2))):
        C = object.__new__(BoundedComplex)
        differentials = tuple(IntMatrix.from_rows([[x]]) for x in entries)
        for name, value in (("lo", 0), ("orders", orders), ("differentials", differentials)):
            object.__setattr__(C, name, value)
        with pytest.raises(NoIntegerSolution):
            cohomology(C, 1)


def kernel_then_solve_cohomology(C, i):
    """H^i(C) from the public integer_kernel and solve_integer alone: the
    kernel of [d^i | target relations] cut down to the source generators,
    then every image column solved on those generators.  The top degree maps
    to the zero group."""
    image = diagonal(C.term(i))
    n = image.rows
    if i > C.lo:
        image = image.hstack(C.differentials[i - 1 - C.lo])
    if i < C.hi:
        d, target = C.differentials[i - C.lo], diagonal(C.term(i + 1))
    else:
        d, target = IntMatrix.zero(0, n), IntMatrix.zero(0, 0)
    ker = integer_kernel(d.hstack(target))
    gens = IntMatrix(n, ker.cols, ker.data[:n])
    X = [solve_integer(gens, col) for col in image.columns()]
    coords = IntMatrix(gens.cols, len(X), tuple(tuple(x[r] for x in X) for r in range(gens.cols)))
    return cokernel(integer_kernel(gens).hstack(coords).data)


def test_cohomology_matches_kernel_then_solve_reference(monkeypatch):
    import qlverify.abelian as abelian

    rng = random.Random(16)
    draws = [
        lambda: rng.randint(1, 24),
        lambda: rng.choice([0, 0, 1, 1, rng.randint(2, 12)]),  # Z and trivial summands
        lambda: rng.choice([0, rng.randint(1, 36)]),
        lambda: rng.choice([0, 0, 0, rng.randint(1, 12)]),  # maps into Z, whose columns drop
    ]
    complexes = [random_complex(rng, draws[k % 4], disguise=k % 8 < 4) for k in range(400)]
    for k in range(30):
        m = rng.choice([6, 12, 30, 60, 210])
        r = {e: rng.choice([1, 1, 2, 3, 4, 5]) for e in divisors(m)}
        complexes.append(moore_cochain_complex(
            CyclicMackeyData(m, {d: prod(r[e] for e in r if e % d == 0) for d in r})))
        mod = rng.randint(2, 300)
        complexes.append(cyclic_cech_complex(mod, [rng.randint(0, mod) for _ in range(rng.randint(0, 4))]))

    seen = {"free terms": 0, "trivial summands": 0, "zero differentials": 0, "row merges": 0,
            "dropped columns": 0, "infinite H": 0, "nontrivial H": 0}
    # each merge of two live columns in one row makes one extended gcd
    merges = count_calls(monkeypatch, abelian, "_xgcd")
    for C in complexes:
        seen["free terms"] += any(0 in T for T in C.orders)
        seen["trivial summands"] += any(1 in T for T in C.orders)
        seen["zero differentials"] += any(not any(map(any, d.data)) for d in C.differentials)
        # a column is dropped exactly when some row of a differential into a
        # Z summand is not zero: the first such row meets a lattice of full rank
        seen["dropped columns"] += any(t == 0 and any(row) for d, T in zip(C.differentials, C.orders[1:])
                                       for t, row in zip(T, d.data))
        del merges[:]
        for i in C.degrees:
            h = cohomology(C, i)
            assert h == kernel_then_solve_cohomology(C, i), (C, i)
            seen["infinite H"] += not h.is_finite
            seen["nontrivial H"] += not h.is_trivial
        seen["row merges"] += bool(merges)
    assert min(seen.values()) >= 20, seen
