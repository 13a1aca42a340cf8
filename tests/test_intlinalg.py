"""Smith normal form and the exact solvers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pialg.intlinalg import (
    IntMatrix,
    SnfResult,
    cokernel_invariants_sparse,
    smith_normal_form,
)


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


def matrices_of(rows, cols):
    return st.lists(st.lists(st.integers(-30, 30), min_size=cols, max_size=cols),
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
                s.u, s.d, s.v, s.u_inv, s.v_inv, s.kernel()):
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


@given(snf_inputs, st.sampled_from([True, "u", False]))
@settings(max_examples=300, deadline=None)
def test_snf_without_inverses_keeps_u_d_v(m, inverses):
    full, lean = smith_normal_form(m), smith_normal_form(m, inverses=inverses)
    assert (lean.u, lean.d, lean.v) == (full.u, full.d, full.v)
    # each inverse carried equals the full reduction's; one not carried is None
    assert lean.u_inv == (full.u_inv if inverses else None)
    assert lean.v_inv == (full.v_inv if inverses is True else None)
    assert (lean == full) is (inverses is True)
    if inverses is False:
        assert lean.u_inv is None and lean.v_inv is None


def test_snf_result_reads_like_a_frozen_record():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    fields = (s.u, s.d, s.v, s.u_inv, s.v_inv)
    same = SnfResult(*fields)
    assert same == s and hash(same) == hash(s) and repr(same) == repr(s)
    assert repr(s).startswith("SnfResult(u=IntMatrix(2x2, ")
    assert s != smith_normal_form(m, inverses="u")
    with pytest.raises(AttributeError):
        s.u = s.v
    with pytest.raises(ValueError):
        smith_normal_form(m, inverses="v")


@given(matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_finds_constructed_solutions(m, data):
    x = [data.draw(st.integers(-5, 5)) for _ in range(m.cols)]
    b = m.mul_vec(x)
    sol = smith_normal_form(m).solve(b)
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
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    s = smith_normal_form(m)
    assert s.solve((1, 0)) is None
    assert s.solve((4, 9)) == (2, 3)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_columns_annihilate(m):
    ker = smith_normal_form(m).kernel()
    for j in range(ker.cols):
        assert all(v == 0 for v in m.mul_vec(ker.col(j)))


def test_kernel_columns_complete():
    # x + 2y + 3z = 0 has a rank-2 solution lattice.
    ker = smith_normal_form(IntMatrix.from_rows([[1, 2, 3]])).kernel()
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
