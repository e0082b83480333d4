"""Exact linear algebra: Smith forms, ranks, kernels, and their oracles.

The Smith-form tests lean on two independent checks: brute-force
gcd-of-minors (the product of the first k divisors equals the gcd of all
k x k minors) and explicit unimodular witnesses.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lefhom import ExactMatrix, GF, QQ, ZZ, exact, kernel_basis, rank_over, smith_normal_form
from lefhom.errors import NonFieldRing, UnsupportedRing
from lefhom.exact import RingSpec, _converter, _reduce, _reduce_column, solve


# -- oracles -----------------------------------------------------------------


def det_bareiss(rows):
    """Fraction-free exact determinant; the independent oracle for minors."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def gcd_of_k_minors(rows, k):
    import math

    n, m = len(rows), len(rows[0]) if rows else 0
    g = 0
    for row_idx in combinations(range(n), k):
        for col_idx in combinations(range(m), k):
            minor = det_bareiss([[rows[i][j] for j in col_idx] for i in row_idx])
            g = math.gcd(g, minor)
    return g


def _column(vector, ring):
    """``vector`` as a one-column matrix, so that ``m @ _column(vector, ring)`` is m·vector."""
    return ExactMatrix(len(vector), 1, {(i, 0): v for i, v in enumerate(vector)}, ring)


def check_divisors_against_minors(rows, divisors):
    product = 1
    for k, d in enumerate(divisors, start=1):
        product *= d
        assert product == abs(gcd_of_k_minors(rows, k))


# -- frozen examples ---------------------------------------------------------


def test_snf_diag_2_3():
    form = smith_normal_form(ExactMatrix.from_rows([[2, 0], [0, 3]], ZZ))
    assert form.divisors == (1, 6)
    check_divisors_against_minors([[2, 0], [0, 3]], form.divisors)


def test_snf_identity():
    form = smith_normal_form(ExactMatrix.from_rows([[1, 0], [0, 1]], ZZ))
    assert form.divisors == (1, 1)


def test_snf_2468():
    rows = [[2, 4], [6, 8]]
    form = smith_normal_form(ExactMatrix.from_rows(rows, ZZ))
    assert form.divisors == (2, 4)
    check_divisors_against_minors(rows, form.divisors)


def test_snf_empty_and_zero():
    assert smith_normal_form(ExactMatrix.zeros(0, 3, ZZ)).divisors == ()
    assert smith_normal_form(ExactMatrix.zeros(3, 4, ZZ)).divisors == ()


def test_snf_rejects_field_matrices():
    with pytest.raises(UnsupportedRing):
        smith_normal_form(ExactMatrix.from_rows([[1]], QQ))


def test_rank_over_examples():
    m = ExactMatrix.from_rows([[1, 1], [-1, 1]], ZZ)
    assert rank_over(m, QQ) == 2
    assert rank_over(m, GF(2)) == 1
    assert rank_over(ExactMatrix.zeros(3, 3, ZZ), GF(5)) == 0
    halves = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                    [Fraction(3, 2), Fraction(1)]], QQ)
    assert rank_over(halves, QQ) == 1


def test_rank_over_rejects_integers():
    with pytest.raises(NonFieldRing):
        rank_over(ExactMatrix.from_rows([[1, 0], [0, 1]], ZZ), ZZ)


def test_kernel_examples():
    assert kernel_basis(ExactMatrix.from_rows([[1, 0], [0, 1]], ZZ), QQ) == []
    assert len(kernel_basis(ExactMatrix.zeros(1, 3, ZZ), QQ)) == 3
    vectors = kernel_basis(ExactMatrix.from_rows([[1, 1, -1, -1]], ZZ), QQ)
    assert len(vectors) == 3
    # canonical: read off the reduced echelon form [[1, 0, 1], [0, 1, 1]]
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], ZZ)
    (vec,) = kernel_basis(m, QQ)
    assert vec == [-1, -1, 1] and all(type(v) is Fraction for v in vec)
    assert kernel_basis(m, GF(5)) == [[4, 4, 1]]
    assert solve(m, [3, 6, 1], GF(5)) == [1, 1, 0]


def test_kernel_vectors_are_killed_and_independent():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], ZZ)
    for ring in (QQ, GF(5)):
        basis = kernel_basis(m, ring)
        assert len(basis) == 3 - rank_over(m, ring)
        cast = m.cast(ring)
        for vec in basis:
            assert (cast @ _column(vec, ring)).is_zero()
        stacked = ExactMatrix.from_rows(basis, ring)
        assert rank_over(stacked, ring) == len(basis)


def test_reduce_column_with_records_gives_the_kernel_basis():
    # oracle: kernel_basis, read off the left-to-right unit phase of _eliminate
    rng = random.Random(4)
    for ring in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(150):
            rows, cols = rng.randint(0, 5), rng.randint(0, 6)
            den = (1, 2, 3) if ring == QQ else (1,)
            m = ExactMatrix(rows, cols, {(i, j): Fraction(rng.choice((0, 0, 1, -1, 2, 3)),
                                                          rng.choice(den))
                                         for i in range(rows) for j in range(cols)}, ring)
            pivots, vectors = {}, []
            for j, col in enumerate(map(_converter(m.ring, ring, scaled=False), m._cols)):
                col[~j] = 1
                low = _reduce_column(col, pivots, ring.p or 0)
                if low < 0:
                    vectors.append([col.get(~i, 0) for i in range(cols)])
                else:
                    assert col[low] == 1
                    pivots[low] = col
            assert vectors == kernel_basis(m, ring), (ring, m.dense())
            assert len(pivots) == rank_over(m, ring)


def test_kernel_basis_is_the_reduced_echelon_kernel():
    # oracle: ranks of column prefixes pick the free columns, and one kernel
    # vector has a 1 at free column f and zeros at the other free columns
    # and after f, since the pivot columns are independent
    rng = random.Random(8)
    for ring in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(100):
            rows, cols = rng.randint(0, 4), rng.randint(0, 5)
            den = (1, 2, 3) if ring == QQ else (1,)
            m = ExactMatrix(rows, cols, {(i, j): Fraction(rng.choice((0, 0, 1, -1, 2, 3)),
                                                          rng.choice(den))
                                         for i in range(rows) for j in range(cols)}, ring)
            ranks = [rank_over(ExactMatrix(rows, j, {(i, k): v for (i, k), v in m.entries.items()
                                                     if k < j}, ring), ring)
                     for j in range(cols + 1)]
            free = [j for j in range(cols) if ranks[j + 1] == ranks[j]]
            basis = kernel_basis(m, ring)
            assert len(basis) == len(free), (ring, m.dense())
            for f, vec in zip(free, basis):
                assert (m @ _column(vec, ring)).is_zero()
                assert vec[f] == 1 and not any(vec[f + 1:]), (ring, m.dense())
                assert not any(vec[g] for g in free if g != f), (ring, m.dense())


class _NoArithmetic(Fraction):
    """A Fraction that refuses arithmetic: reading it is all a rank may do."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic in a rank computation")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __floordiv__ = __mod__ = __neg__ = _refuse


def test_rational_rank_does_no_fraction_arithmetic():
    rows = [[_NoArithmetic(1, 2), _NoArithmetic(1, 3), _NoArithmetic(0)],
            [_NoArithmetic(3, 2), _NoArithmetic(1), _NoArithmetic(5, 7)],
            [_NoArithmetic(2), _NoArithmetic(4, 3), _NoArithmetic(5, 7)]]
    assert rank_over(ExactMatrix.from_rows(rows, QQ), QQ) == 2


def test_reduce_over_q_drops_rows_before_it_scales():
    # {0: 1, 1: 1/2} without row 1 is the unit pivot {0: 1}, not the residue {0: 2}
    m = ExactMatrix.from_rows([[Fraction(1)], [Fraction(1, 2)]], QQ)
    assert _reduce(m, QQ, {1}) == ([0], ())
    assert _converter(QQ, QQ)(m._cols[0], {1}) == {0: 1}


def test_solve_consistency():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]], ZZ)
    x = solve(m, [5, 11], QQ)
    assert x == [Fraction(1), Fraction(2)]
    assert solve(ExactMatrix.zeros(2, 2, ZZ), [1, 0], QQ) is None


def _solve_cases(corpus):
    """(name, matrix, ring): the corpus boundaries over Q, F2 and F3, a Z
    matrix whose entries vanish mod 3, over F3, and a Q matrix over F5."""
    cases = [(name, X.boundary_matrix(q), ring) for name, X in corpus
             for q in range(X.top_dim + 2) for ring in (QQ, GF(2), GF(3))]
    cases.append(("z-over-f3", ExactMatrix.from_rows([[3, 1, 4], [6, 5, 9], [1, 2, 6]], ZZ),
                  GF(3)))
    cases.append(("q-over-f5", ExactMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3), 0, 1], [Fraction(3, 2), 1, Fraction(5, 7), 3],
         [2, Fraction(4, 3), Fraction(5, 7), 4]], QQ), GF(5)))
    return cases


def test_solve_is_the_canonical_solution_or_none(corpus, monkeypatch):
    # oracles: the product with the solution, kernel_basis's free columns, and
    # the rank of [matrix | rhs] for whether rhs is in the image at all
    rng = random.Random(31)
    for name, d, ring in _solve_cases(corpus):
        cast = d.cast(ring)
        free = {max(i for i, v in enumerate(vec) if v) for vec in kernel_basis(d, ring)}
        for _ in range(3):
            image = cast @ _column([ring.convert(rng.randint(-2, 2)) for _ in range(d.cols)], ring)
            y = solve(d, [row[0] for row in image.dense()], ring)
            assert cast @ _column(y, ring) == image, (name, ring)
            assert not any(y[f] for f in free), (name, ring)
            assert all(type(v) is type(ring.convert(0)) for v in y), (name, ring)
        rank = rank_over(d, ring)
        for i in range(d.rows):
            unit = [int(k == i) for k in range(d.rows)]
            wider = ExactMatrix(d.rows, d.cols + 1, {**d.entries, (i, d.cols): 1}, d.ring)
            assert (solve(d, unit, ring) is None) == (rank_over(wider, ring) > rank), (name, ring, i)
        for wrong in ([0] * (d.rows + 1), [0] * (d.rows - 1)) if d.rows else ([0],):
            with pytest.raises(ValueError):
                solve(d, wrong, ring)
    with pytest.raises(UnsupportedRing):
        solve(ExactMatrix.from_rows([[1, 2]], GF(3)), [1], QQ)
    # one reduction of [matrix | rhs]: no cast and no dense kernel basis
    monkeypatch.setattr(ExactMatrix, "cast", None)
    monkeypatch.setattr(exact, "kernel_basis", None)
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], ZZ)
    assert solve(m, [3, 6, 1], GF(5)) == [1, 1, 0]
    assert solve(m, [1, 1, 1], QQ) is None


def test_product_matches_a_dense_triple_loop():
    # oracle: each entry summed in plain int/Fraction over the dense factors,
    # then converted; an entry whose terms cancel must not be stored
    rng = random.Random(29)
    values = {ZZ: (1, -1, 2, -2), QQ: (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                                      Fraction(-1, 6), 1, -1), GF(2): (1,), GF(3): (1, 2)}
    for ring, drawn in values.items():
        cancelled = 0
        for _ in range(200):
            n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a, b = (ExactMatrix(rows, cols, {(i, j): rng.choice(drawn) for i in range(rows)
                                             for j in range(cols) if rng.random() < 0.5}, ring)
                    for rows, cols in ((n, k), (k, m)))
            da, db = a.dense(), b.dense()
            terms = [[[da[i][t] * db[t][j] for t in range(k) if da[i][t] and db[t][j]]
                      for j in range(m)] for i in range(n)]
            expected = [[ring.convert(sum(cell)) for cell in row] for row in terms]
            cancelled += sum(1 for row, sums in zip(terms, expected)
                             for cell, total in zip(row, sums) if cell and not total)
            product = a @ b
            assert product.dense() == expected, (ring, da, db)
            assert (product.rows, product.cols) == (n, m)
            assert all(type(v) is type(ring.convert(1)) and v
                       for col in product._cols for v in col.values()), (ring, product._cols)
        assert cancelled, ring
    with pytest.raises(UnsupportedRing):
        ExactMatrix.from_rows([[1]], ZZ) @ ExactMatrix.from_rows([[1]], QQ)
    with pytest.raises(UnsupportedRing):
        ExactMatrix.from_rows([[1]], GF(2)) @ ExactMatrix.from_rows([[1]], GF(3))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2]], ZZ) @ ExactMatrix.from_rows([[1, 2]], ZZ)


# -- ring plumbing -----------------------------------------------------------


def test_prime_field_needs_prime_modulus():
    with pytest.raises(UnsupportedRing):
        GF(4)
    with pytest.raises(UnsupportedRing):
        GF(1)
    assert GF(2).p == 2


def test_ring_conversion_rules():
    assert ZZ.convert(Fraction(4, 2)) == 2
    with pytest.raises(UnsupportedRing):
        ZZ.convert(Fraction(1, 2))
    assert GF(5).convert(Fraction(1, 2)) == 3  # 2 * 3 == 1 mod 5
    with pytest.raises(UnsupportedRing):
        GF(5).convert(Fraction(1, 5))
    with pytest.raises(UnsupportedRing):
        ZZ.convert(0.5)


def test_matrix_cast_never_lifts_prime_fields():
    m = ExactMatrix.from_rows([[1]], GF(3))
    with pytest.raises(UnsupportedRing):
        m.cast(ZZ)
    # 2 vanishes mod 2: the cast must drop the entry
    assert ExactMatrix.from_rows([[2]], ZZ).cast(GF(2)).is_zero()


def test_matrix_basics():
    m = ExactMatrix.from_rows([[0, 1], [2, 0]], ZZ)
    assert dict(m.entries) == {(0, 1): 1, (1, 0): 2}
    assert m.get(0, 1) == 1
    assert (m @ ExactMatrix.from_rows([[1, 0], [0, 1]], ZZ)) == m
    with pytest.raises(IndexError):
        m.get(5, 0)


# -- properties --------------------------------------------------------------

matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n, max_size=n)))

small_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n, max_size=n)))


@given(matrices)
def test_divisibility_chain(rows):
    divisors = smith_normal_form(ExactMatrix.from_rows(rows, ZZ)).divisors
    assert all(d >= 1 for d in divisors)
    assert all(divisors[i + 1] % divisors[i] == 0 for i in range(len(divisors) - 1))


@given(small_matrices)
def test_gcd_minor_invariant(rows):
    form = smith_normal_form(ExactMatrix.from_rows(rows, ZZ))
    check_divisors_against_minors(rows, form.divisors)


@given(small_matrices)
def test_transform_witnesses(rows):
    m = ExactMatrix.from_rows(rows, ZZ)
    form = smith_normal_form(m, with_transforms=True)
    assert (form.left_transform @ m @ form.right_transform) == form.diagonal()
    assert abs(det_bareiss(form.left_transform.dense())) == 1
    assert abs(det_bareiss(form.right_transform.dense())) == 1


@given(small_matrices)
def test_rational_rank_matches_snf_rank(rows):
    m = ExactMatrix.from_rows(rows, ZZ)
    assert rank_over(m, QQ) == smith_normal_form(m).rank


def test_seeded_snf_sweep():
    rng = random.Random(20240817)
    for _ in range(100):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        mat = ExactMatrix.from_rows(rows, ZZ)
        form = smith_normal_form(mat, with_transforms=True)
        assert (form.left_transform @ mat @ form.right_transform) == form.diagonal()
        assert all(form.divisors[i + 1] % form.divisors[i] == 0
                   for i in range(len(form.divisors) - 1))


@given(matrices)
def test_sparse_kernel_agrees_with_dense_snf(rows):
    """Entries in -9..9 leave a residue without units, so the dense Bezout
    step runs; the dense Smith form of the whole matrix is the reference."""
    m = ExactMatrix.from_rows(rows, ZZ)
    dense = smith_normal_form(m, with_transforms=True).divisors
    assert smith_normal_form(m).divisors == dense
    assert rank_over(m, QQ) == len(dense)
    for p in (2, 3, 5):
        rank = sum(1 for d in dense if d % p)
        assert rank_over(m, GF(p)) == rank
        basis = kernel_basis(m, GF(p))
        assert len(basis) == m.cols - rank
        cast = m.cast(GF(p))
        assert all((cast @ _column(vec, GF(p))).is_zero() for vec in basis)
