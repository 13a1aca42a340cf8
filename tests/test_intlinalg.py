"""Smith normal form, and exact equations solved by ``Congruences``."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pialg import intlinalg
from pialg.fgab import Congruences
from pialg.intlinalg import (
    IntMatrix,
    SnfResult,
    cokernel_invariants_sparse,
    smith_normal_form,
)

from helpers import snf_plain


def assert_valid_snf(m, s):
    assert s.u * m * s.v == s.d
    assert abs(s.u.det()) == 1
    assert abs(s.v.det()) == 1
    assert (s.u * s.u_inv).is_identity()
    assert (s.v * s.v_inv).is_identity()
    diag = s.diagonal()
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def _exact(m):
    """The equations m·x = b, every modulus 0: what the program solves them with."""
    return Congruences(m.data, [0] * m.rows, m.cols)


def test_snf_zero_matrix():
    s = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert s.d == IntMatrix.from_rows([[0]])
    assert s.u.is_identity() and s.v.is_identity()


def test_snf_worked_example():
    # Hand row-reduction: det = -8, entry gcd 2, so the invariant factors
    # are 2 and 4.
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    assert s.diagonal() == [2, 4]
    assert_valid_snf(m, s)


def test_snf_identity():
    m = IntMatrix.identity(3)
    s = smith_normal_form(m)
    assert s.d == m


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1)])
def test_snf_degenerate_shapes(rows, cols):
    m = IntMatrix.zeros(rows, cols)
    assert_valid_snf(m, smith_normal_form(m))


def test_snf_deterministic():
    m = IntMatrix.from_rows([[6, 4, 2], [4, 2, 8], [2, 8, 4]])
    assert smith_normal_form(m).d == smith_normal_form(m).d
    assert smith_normal_form(m).u == smith_normal_form(m).u


matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda rows: IntMatrix(r, c, rows))))


def matrices_of(rows, cols, entries=st.integers(-30, 30)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda data: IntMatrix(rows, cols, data))


@given(matrices, st.data(), st.integers(-5, 5), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_trusted_construction_equals_validated(m, data, c, n, k):
    same = data.draw(matrices_of(m.rows, m.cols))
    right = data.draw(matrices_of(m.cols, k))
    diag = data.draw(st.lists(st.integers(-30, 30), max_size=min(m.rows, m.cols)))
    s = smith_normal_form(m)
    for out in (m * right, m + same, m - same, m.scale(c), m.transpose(),
                IntMatrix.identity(n), IntMatrix.zeros(m.rows, m.cols),
                IntMatrix.diagonal(diag, rows=m.rows, cols=m.cols), IntMatrix.diagonal(diag),
                s.u, s.d, s.v, s.u_inv, s.v_inv, _exact(m).kernel()):
        assert type(out.data) is tuple and all(type(r) is tuple for r in out.data)
        assert all(type(x) is int for r in out.data for x in r)
        assert out == IntMatrix(out.rows, out.cols, out.data)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_snf_properties(m):
    assert_valid_snf(m, smith_normal_form(m))


# shapes 0..5, and products through an inner dimension 0..5: rank-deficient
# whenever the inner dimension is below both sides
shapes = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
snf_inputs = st.one_of(
    shapes.flatmap(lambda s: matrices_of(s[0], s[1])),
    shapes.flatmap(lambda s: st.tuples(matrices_of(s[0], s[2]), matrices_of(s[2], s[1])))
    .map(lambda ab: ab[0] * ab[1]))


@given(snf_inputs)
@settings(max_examples=300, deadline=None)
def test_snf_derives_each_inverse_when_first_read(m):
    calls = []
    original = intlinalg._inverse

    def counted(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_inverse", counted)
        s = smith_normal_form(m)
        s.u, s.d, s.v
        assert len(calls) == 0
        assert (s.u * s.u_inv).is_identity() and len(calls) == 1
        assert (s.v * s.v_inv).is_identity() and len(calls) == 2
        s.u_inv, s.v_inv, s.u_inv, s.v_inv
        assert len(calls) == 2


def test_snf_result_reads_like_a_frozen_record():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    fields = (s.u, s.d, s.v, s.u_inv, s.v_inv)
    same = SnfResult(*fields)
    assert same == s and hash(same) == hash(s) and repr(same) == repr(s)
    assert repr(s).startswith("SnfResult(u=IntMatrix(2x2, ")
    with pytest.raises(AttributeError):
        s.u = s.v
    # the matrix is the only argument: there is no mode choosing the inverses
    with pytest.raises(TypeError):
        smith_normal_form(m, True)


# shapes 0..8: dense, sparse (about three entries in four are zero), products
# through a smaller inner dimension (rank-deficient), and diagonal inputs whose
# diagonal is no divisibility chain
wide = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 3))
sparse_entries = st.integers(-30, 30).map(lambda x: x if abs(x) < 8 else 0)
diagonal_entries = st.sampled_from([0, 1, 2, 3, 4, -6, 9, 10, 12])
plain_path_inputs = st.one_of(
    wide.flatmap(lambda s: matrices_of(s[0], s[1])),
    wide.flatmap(lambda s: matrices_of(s[0], s[1], sparse_entries)),
    wide.flatmap(lambda s: st.tuples(matrices_of(s[0], s[2]), matrices_of(s[2], s[1])))
    .map(lambda ab: ab[0] * ab[1]),
    wide.flatmap(lambda s: st.lists(diagonal_entries, min_size=min(s[:2]), max_size=min(s[:2]))
                 .map(lambda d: IntMatrix.diagonal(d, s[0], s[1]))))


@given(plain_path_inputs)
@settings(max_examples=400, deadline=None)
def test_snf_equals_the_full_row_reduction(m):
    # Row operations read only each row's nonzero span, and the inverses are
    # derived when read; the plain path runs every operation over the full
    # row and mirrors it on both inverses, and all five fields must match.
    assert smith_normal_form(m) == snf_plain(m)


def _witness_digest(m):
    """sha256 of the five fields of smith_normal_form(m)."""
    s = smith_normal_form(m)
    fields = tuple(f.data for f in (s.u, s.d, s.v, s.u_inv, s.v_inv))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("rows, cols, digest", [
    (12, 12, "d2c93094da49abc6d1d124219a310858514c0c779baa954b1207f31fcd6d4948"),
    (24, 24, "242be075ab575a6fc7f7687637955b066d8025e7a173e9ee9a53dd5095a63c24"),
    (30, 34, "9314042738d314888e1d4b5f9384992815b0858e0fddc27204ac167cd5062039"),
    (40, 40, "9854a5eb789fc63ffa90a97486dc3129d84ad89261152489c9895a83d695ba48"),
    (34, 30, "bf0de60d559bb8f1182d611f5183f2131777114f4ad9aad527a102d3b30ca012"),
])
def test_dense_snf_witnesses_are_pinned(rows, cols, digest):
    # computed with full-length row operations and U⁻¹ mirrored on every row
    # step; the tall 34x30 leaves four zero rows, whose columns of U⁻¹ are
    # not divided out of M·V
    assert _witness_digest(IntMatrix(rows, cols, _seeded(rows, rows, cols))) == digest


def test_rank_deficient_dense_snf_witnesses_are_pinned():
    # a dense 16x16 of rank 12, pinned like the full-rank ones above
    m = IntMatrix(16, 12, _seeded(16, 16, 12)) * IntMatrix(12, 16, _seeded(12, 12, 16))
    assert _witness_digest(m) == "3523ae2c18bf21df0338ba546149a247b8f45e49f2ff8fc00b6d293670028034"


# dense tall and wide shapes beyond the 8x8 above, and products through
# inner dimensions 2..8, of rank that inner dimension
_TALL_WIDE = [(14, 10), (22, 16), (30, 24), (12, 17), (20, 26), (28, 30), (18, 12), (25, 25)]
_PRODUCTS = [(12, 2, 15), (16, 5, 13), (24, 8, 20), (30, 3, 30), (20, 7, 28), (26, 6, 12),
             (18, 4, 18)]


@pytest.mark.parametrize("shape", _TALL_WIDE + _PRODUCTS, ids=lambda s: "x".join(map(str, s)))
def test_larger_snf_equals_the_full_row_reduction(shape):
    rows, cols = shape[0], shape[-1]
    if len(shape) == 2:
        m = IntMatrix(rows, cols, _seeded(1000 + 37 * rows + cols, rows, cols))
    else:
        k = shape[1]
        m = (IntMatrix(rows, k, _seeded(2000 + 100 * rows + k, rows, k))
             * IntMatrix(k, cols, _seeded(3000 + 100 * k + cols, k, cols)))
    assert smith_normal_form(m) == snf_plain(m)


@given(matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_finds_constructed_solutions(m, data):
    x = [data.draw(st.integers(-5, 5)) for _ in range(m.cols)]
    b = m.mul_vec(x)
    sol = _exact(m).solve(b)
    assert sol is not None
    assert m.mul_vec(sol) == tuple(b)


def _seeded(seed, rows, cols, bound=100):
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_matches_sympy_invariant_factors():
    # An independent oracle: SymPy's invariant factors, on dense, rectangular
    # and rank-deficient inputs.
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    cases = [_seeded(n, n, n) for n in range(1, 13)]
    cases += [_seeded(100 + r * 13 + c, r, c) for r, c in ((3, 7), (7, 3), (5, 12), (12, 5), (1, 9))]
    for seed in range(3):
        dense = _seeded(200 + seed, 6, 8)
        cases.append(dense[:5] + [dense[1]])  # a duplicated row
        cases.append([r[:3] + [0] + r[4:] for r in dense])  # a zero column
        cases.append([[x * (seed + 2) for x in r] for r in dense[:3]] + dense[3:5] * 2)
    for data in cases:
        m = IntMatrix(len(data), len(data[0]), data)
        s = smith_normal_form(m)
        assert_valid_snf(m, s)
        theirs = [int(x) for x in invariant_factors(Matrix(data), domain=ZZ) if x != 0]
        assert [x for x in s.diagonal() if x] == theirs, data


@pytest.mark.parametrize("n", [24, 32])
def test_snf_witness_growth_is_bounded(n):
    # Kannan-Bachem reduction keeps u, v and their inverses within a small
    # multiple of the size of |det m|; plain elimination reaches 18x and 29x
    # here.
    m = IntMatrix(n, n, _seeded(n, n, n))
    s = smith_normal_form(m)
    assert s.u * m * s.v == s.d
    bound = 3 * len(str(abs(m.det())))
    for w in (s.u, s.v, s.u_inv, s.v_inv):
        assert max(len(str(abs(x))) for r in w.data for x in r) <= bound


def test_solve_linear_reports_unsolvable():
    s = _exact(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.solve((1, 0)) is None
    assert s.solve((4, 9)) == (2, 3)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_columns_annihilate(m):
    ker = _exact(m).kernel()
    for j in range(ker.cols):
        assert all(v == 0 for v in m.mul_vec(ker.col(j)))


def test_kernel_columns_complete():
    # x + 2y + 3z = 0 has a rank-2 solution lattice.
    ker = _exact(IntMatrix.from_rows([[1, 2, 3]])).kernel()
    assert ker.cols == 2


def test_bareiss_determinant():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert m.det() == -8
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix.zeros(2, 2).det() == 0
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = IntMatrix(n, n, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        # cofactor expansion as the cross-check
        def det_rec(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j in range(len(rows)):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * det_rec(minor)
            return total
        assert m.det() == det_rec(m.to_lists())


def test_sparse_cokernel_matches_dense():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(0, 6)
        n_rows = rng.randrange(0, 8)
        rows = []
        for _ in range(n_rows):
            rows.append({j: rng.randrange(-6, 7) for j in range(n) if rng.random() < 0.5})
        torsion, rank = cokernel_invariants_sparse(n, rows)
        dense = IntMatrix(n_rows, n, [[r.get(j, 0) for j in range(n)] for r in rows])
        s = smith_normal_form(dense.transpose() if n else IntMatrix.zeros(n, n_rows))
        diag = s.diagonal()
        assert torsion == [x for x in diag if x >= 2]
        assert rank == n - sum(1 for x in diag if x != 0)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [2, 3]])
    with pytest.raises(ValueError):
        IntMatrix.identity(2) * IntMatrix.identity(3)
