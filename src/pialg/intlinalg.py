"""Exact linear algebra over the integers.

This is the computational engine underneath everything else: immutable
integer matrices, Smith normal form with unimodular transformation
witnesses, exact solvers for linear systems over Z, and a sparse
presentation reducer used by the brute-force oracles.

All arithmetic uses Python's arbitrary-precision integers; there is no
overflow anywhere and no floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


def _check_dims(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimension")


class IntMatrix:
    """An immutable integer matrix with explicit shape.

    The explicit ``rows``/``cols`` fields matter because degenerate shapes
    (0xn, nx0, 0x0) are legal everywhere and ``[[]]``-style nested lists
    cannot represent them unambiguously.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> m * IntMatrix.identity(2) == m
    True
    >>> m.transpose().col(0)
    (2, 4)
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]]):
        _check_dims(rows, cols)
        tup = tuple(tuple(int(x) for x in r) for r in data)
        if len(tup) != rows or any(len(r) != cols for r in tup):
            raise ValueError(f"data does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tup)

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple) -> "IntMatrix":
        """Trusted construction, for data this package built itself.

        ``data`` must already be a tuple of ``rows`` tuples of ``cols`` ints;
        nothing is checked or copied. Anything read from outside goes
        through the validating constructor instead.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        _check_dims(n, n)
        return IntMatrix._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                         for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        _check_dims(rows, cols)
        return IntMatrix._of(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def diagonal(entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        _check_dims(rows, cols)
        data = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(entries):
            data[i][i] = int(d)
        return IntMatrix._of(rows, cols, tuple(map(tuple, data)))

    @staticmethod
    def from_json(rows: int, cols: int, doc) -> "IntMatrix":
        """A matrix read from a JSON document: ``rows`` lists of ``cols`` integers.

        The constructor converts entries with ``int()``, which reads 1.7 as 1
        and "0" as 0; a document from outside must hold JSON integers only
        (bools are refused too). Raises ValueError.
        """
        try:
            bad = [x for r in doc for x in r if type(x) is not int]
        except TypeError:
            raise ValueError(f"expected a list of {rows} rows, got {doc!r}") from None
        if bad:
            raise ValueError(f"matrix entries must be JSON integers, got {bad[0]!r}")
        return IntMatrix(rows, cols, doc)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [list(c) for c in cols]
        if rows is None:
            if not cols:
                raise ValueError("cannot infer row count of an empty matrix")
            rows = len(cols[0])
        return IntMatrix(rows, len(cols), [[c[i] for c in cols] for i in range(rows)])

    # -- accessors ------------------------------------------------------

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def to_lists(self) -> list:
        return [list(r) for r in self.data]

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        ocols = other.cols
        out = [[0] * ocols for _ in range(self.rows)]
        for i, r in enumerate(self.data):
            row_out = out[i]
            for k, a in enumerate(r):
                if a:
                    orow = other.data[k]
                    for j in range(ocols):
                        row_out[j] += a * orow[j]
        return IntMatrix._of(self.rows, ocols, tuple(map(tuple, out)))

    def mul_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(r, v)) for r in self.data)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(self.rows, self.cols,
                             tuple(tuple(a + b for a, b in zip(r, s))
                                   for r, s in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(self.rows, self.cols,
                             tuple(tuple(a - b for a, b in zip(r, s))
                                   for r, s in zip(self.data, other.data)))

    def scale(self, c: int) -> "IntMatrix":
        c = operator.index(c)
        return IntMatrix._of(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows,
                             tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.data for a in r)

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_lists()!r})"

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``u * m * v == d`` with unimodular ``u``, ``v``.

    ``d`` is diagonal with non-negative entries satisfying the divisibility
    chain d[0] | d[1] | ...; ``u_inv`` and ``v_inv`` are the exact inverses,
    maintained during the reduction so callers never have to invert a
    unimodular matrix themselves.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> list:
        n = min(self.d.rows, self.d.cols)
        return [self.d[i, i] for i in range(n)]

    def solve(self, rhs: Sequence[int]) -> Optional[tuple]:
        """One integer solution x of ``m @ x == rhs`` for the reduced ``m``, or None.

        ``m x = b`` becomes ``d z = u b`` with ``x = v z``: each coordinate of
        ``u b`` must be divisible by its diagonal entry (zero where the entry
        is zero). Reusing one reduction for many right-hand sides costs two
        matrix-vector products per solve.
        """
        if len(rhs) != self.d.rows:
            raise ValueError("right-hand side length mismatch")
        c = self.u.mul_vec(rhs)
        n = min(self.d.rows, self.d.cols)
        z = [0] * self.d.cols
        for i, ci in enumerate(c):
            d = self.d[i, i] if i < n else 0
            if d == 0:
                if ci != 0:
                    return None
            else:
                if ci % d:
                    return None
                z[i] = ci // d
        return self.v.mul_vec(z)

    def kernel(self) -> IntMatrix:
        """A basis of the integer kernel lattice of the reduced ``m``, as columns."""
        n = min(self.d.rows, self.d.cols)
        free = [j for j in range(self.d.cols) if j >= n or self.d[j, j] == 0]
        return IntMatrix._of(self.d.cols, len(free),
                             tuple(tuple(r[j] for j in free) for r in self.v.data))


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Exact Smith normal form over Z, total on all shapes including 0x0.

    Pivot selection is the minimal-absolute-value nonzero entry of the
    remaining submatrix, ties broken by lowest row then lowest column, which
    makes the output deterministic and keeps coefficient growth modest at
    the matrix sizes this package deals in.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()

    def identity(n):
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    u, uinv, v, vinv = identity(rows), identity(rows), identity(cols), identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        ai, aj = a[i], a[j]
        for k in range(cols):
            ai[k] += c * aj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] += c * uj[k]
        for r in uinv:
            r[j] -= c * r[i]

    def add_col(i, j, c):
        # col_i += c * col_j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vi, vj = vinv[i], vinv[j]
        for k in range(cols):
            vj[k] -= c * vi[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            ri = a[i]
            for j in range(t, cols):
                x = ri[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    while True:
        piv = find_pivot(t)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        # Clear row t and column t; remainders force re-picking a smaller
        # pivot, so this loop terminates.
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            piv = find_pivot(t)
            _, pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if a[t][t] < 0:
                negate_row(t)

        # Divisibility fix: the pivot must divide every remaining entry.
        p = a[t][t]
        fixed = True
        for i in range(t + 1, rows):
            if any(x % p for x in a[i][t + 1:]):
                add_row(t, i, 1)
                fixed = False
                break
        if fixed:
            t += 1
            if t >= rows or t >= cols:
                break

    def frozen(r, c, data):
        return IntMatrix._of(r, c, tuple(map(tuple, data)))

    return SnfResult(u=frozen(rows, rows, u), d=frozen(rows, cols, a), v=frozen(cols, cols, v),
                     u_inv=frozen(rows, rows, uinv), v_inv=frozen(cols, cols, vinv))


def solve_linear(m: IntMatrix, rhs: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of ``m @ x == rhs``, or None if there is none.

    Which solution is returned is unspecified beyond being deterministic
    (the particular solution read off the Smith normal form).
    """
    return smith_normal_form(m).solve(rhs)


def kernel_columns(m: IntMatrix) -> IntMatrix:
    """A basis of the integer kernel lattice of ``m``, as matrix columns."""
    return smith_normal_form(m).kernel()


# -- sparse presentation reduction -------------------------------------
#
# The brute-force quadratic-tensor oracle instantiates relations over all
# group elements and easily produces presentations with thousands of rows.
# Dense SNF is hopeless there, but nearly every relation has a +-1
# coefficient, so Tietze elimination collapses the presentation to a small
# residue that dense SNF finishes off.


def cokernel_invariants_sparse(n_gens: int, rows: Iterable[dict]) -> tuple:
    """(torsion, rank) of Z^n_gens modulo the relations given as sparse rows.

    Each row is a dict {generator_index: coefficient}. The torsion list is
    in invariant-factor order (each dividing the next).
    """
    live_rows: list = []
    col_index: dict = {}

    def index_row(rid: int) -> None:
        for c in live_rows[rid]:
            col_index.setdefault(c, set()).add(rid)

    for r in rows:
        cleaned = {c: v for c, v in r.items() if v}
        if cleaned:
            live_rows.append(cleaned)
            index_row(len(live_rows) - 1)
    dead = [False] * len(live_rows)
    live_cols = set(range(n_gens))

    # Queue of rows worth examining for a unit pivot.
    import heapq

    heap = [(len(live_rows[i]), i) for i in range(len(live_rows))]
    heapq.heapify(heap)
    eliminated = 0

    while heap:
        _, rid = heapq.heappop(heap)
        if dead[rid]:
            continue
        row = live_rows[rid]
        pivot_col = None
        for c, v in row.items():
            if v == 1 or v == -1:
                pivot_col = c
                pivot_val = v
                break
        if pivot_col is None:
            continue
        # Substitute generator pivot_col out of every other row.
        dead[rid] = True
        eliminated += 1
        live_cols.discard(pivot_col)
        users = col_index.pop(pivot_col, set())
        for c in row:
            col_index.get(c, set()).discard(rid)
        for other in users:
            if dead[other] or other == rid:
                continue
            orow = live_rows[other]
            factor = orow.pop(pivot_col, 0)
            if not factor:
                continue
            scale = -factor * pivot_val
            for c, v in row.items():
                if c == pivot_col:
                    continue
                nv = orow.get(c, 0) + scale * v
                if nv:
                    if c not in orow:
                        col_index.setdefault(c, set()).add(other)
                    orow[c] = nv
                else:
                    if c in orow:
                        del orow[c]
                        col_index.get(c, set()).discard(other)
            if orow:
                heapq.heappush(heap, (len(orow), other))
            else:
                dead[other] = True

    remaining_cols = sorted(live_cols)
    col_pos = {c: i for i, c in enumerate(remaining_cols)}
    dense_rows = []
    seen = set()
    for rid, row in enumerate(live_rows):
        if dead[rid] or not row:
            continue
        vec = [0] * len(remaining_cols)
        for c, v in row.items():
            vec[col_pos[c]] = v
        key = tuple(vec)
        if key not in seen:
            seen.add(key)
            dense_rows.append(vec)
    if remaining_cols:
        rel = IntMatrix.from_rows(dense_rows, cols=len(remaining_cols)) if dense_rows \
            else IntMatrix.zeros(0, len(remaining_cols))
        s = smith_normal_form(rel.transpose())
        diag = s.diagonal()
        torsion = [x for x in diag if x >= 2]
        rank = len(remaining_cols) - sum(1 for x in diag if x != 0)
    else:
        torsion, rank = [], 0
    return torsion, rank
