"""Exact linear algebra over the integers.

This is the computational engine underneath everything else: immutable
integer matrices, Smith normal form with unimodular transformation
witnesses, and a sparse presentation reducer used by the brute-force
oracles. Linear systems over Z are solved by ``fgab.Congruences``.

All arithmetic uses Python's arbitrary-precision integers; there is no
overflow anywhere and no floating point.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from ._record import frozen, lazy


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
        zero = (0,) * cols
        data = [zero] * rows
        for i, d in enumerate(entries):
            if i >= cols:
                raise IndexError("diagonal entry outside the matrix")
            data[i] = zero[:i] + (int(d),) + zero[i + 1:]
        return IntMatrix._of(rows, cols, tuple(data))

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


_FIELDS = ("u", "d", "v", "u_inv", "v_inv")


def _square(lists: list, by_cols: bool = False) -> IntMatrix:
    """The square matrix held by rows (or by columns) in ``lists``."""
    data = tuple(zip(*lists)) if by_cols else tuple(map(tuple, lists))
    return IntMatrix._of(len(lists), len(lists), data)


@frozen(_FIELDS)
class SnfResult:
    """Smith normal form ``u * m * v == d`` with unimodular ``u``, ``v``.

    ``d`` is diagonal with non-negative entries satisfying the divisibility
    chain d[0] | d[1] | ...; ``u_inv`` and ``v_inv`` are the exact inverses,
    so callers never invert a unimodular matrix. A result of
    ``smith_normal_form`` keeps the input and the reduction's lists, builds
    ``u``, ``d`` and ``v`` on their first read, and derives each inverse on
    its first read (see _inverse). Results are immutable, and equality,
    hashing and repr go by the five fields.
    """

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix, u_inv: IntMatrix,
                 v_inv: IntMatrix):
        vars(self).update(zip(_FIELDS, (u, d, v, u_inv, v_inv)))

    @classmethod
    def _of(cls, m, rows, cols, u, diag, v_cols) -> "SnfResult":
        """Trusted construction from the input's rows and a reduction's lists.

        ``u`` holds rows and ``v_cols`` columns, kept as they are; ``fgab``
        reads them and never changes them.
        """
        s = object.__new__(cls)
        vars(s).update(_m=m, _rows=rows, _cols=cols, _u=u, _diag=diag, _v_cols=v_cols)
        return s

    u = lazy(lambda self: _square(self._u))
    d = lazy(lambda self: IntMatrix.diagonal(self._diag, self._rows, self._cols))
    v = lazy(lambda self: _square(self._v_cols, by_cols=True))
    _u_inv_cols = lazy(lambda self: _inverse(self._u, self._m, self._v_cols, self._diag))
    u_inv = lazy(lambda self: _square(self._u_inv_cols, by_cols=True))
    v_inv = lazy(lambda self: _square(_inverse(self._v_cols)))

    def diagonal(self) -> list:
        return [self.d[i, i] for i in range(min(self.d.rows, self.d.cols))]


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Exact Smith normal form over Z, total on all shapes including 0x0.

    Hermite reductions in the manner of Kannan and Bachem (SIAM J. Comput.
    8(4), 1979): a Hermite pass on the rows and one on the columns alternate
    until the matrix is diagonal (dense inputs usually need two), then 2x2
    swaps and gcd/lcm steps make the diagonal a divisibility chain. A pass
    inserts the rows one at a time into an echelon basis; whenever a pivot p
    is set, the entries above it are reduced into [0, p), and so are its
    row's entries under later pivots. Later row steps do not reduce them
    again, so a pass can leave entries above a pivot outside [0, p): it need
    not end in reduced echelon form. Every step is applied to ``u`` or to
    ``v`` and to nothing else: the result derives each inverse when it is
    first read (see _inverse). Reducing as each pivot is fixed is what
    bounds coefficient growth: Kannan and Bachem bound every intermediate
    number by a polynomial in the size of the input, and on dense 32x32
    inputs with entries in [-100, 100] the witnesses stay within twice the
    digits of ``|det m|``. Steps skip the entries known to be zero (see
    _subtract), so every integer is that of full-length rows. The output is
    deterministic.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u, v_cols = _identity_lists(rows), _identity_lists(cols)
    # A pass reduces the rows of ``a``, followed by U; ``a`` is then transposed,
    # so the next pass reduces the columns, followed by V's columns.
    diagonal = _is_diagonal(a)
    sides = None if diagonal else [(_spanned(u), cols), (_spanned(v_cols), rows)]
    while not diagonal:
        _hermite(a, *sides[0])
        if not (diagonal := _is_diagonal(a)):
            a = list(map(list, zip(*a)))
            sides.reverse()
    d = [a[i][i] for i in range(min(rows, cols))]
    # A diagonal input skips the passes, so signs and zeros are fixed here.
    for i, x in enumerate(d):
        if x < 0:
            d[i], u[i] = -x, [-y for y in u[i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y == 0 or (x and y % x == 0):
                continue
            if x == 0 or x % y == 0:
                d[i], d[j] = y, x
                for t in (u, v_cols):
                    t[i], t[j] = t[j], t[i]
                continue
            # diag(x, y) -> diag(g, l), over whole rows: add row j to row i, mix
            # columns i and j so row i reads (g, 0), then clear row j's entry.
            g, s, e = _xgcd(x, y)
            wu = (u, [0] * rows, [rows] * rows)
            _subtract(None, 0, wu, i, j, -1)
            _mix((v_cols, [0] * cols, [cols] * cols), i, j, s, e, y // g, x // g)
            _subtract(None, 0, wu, j, i, y * e // g)
            d[i], d[j] = g, x * y // g
    return SnfResult._of(m.data, rows, cols, u, d, v_cols)


def _inverse(u: list, m: tuple = (), v_cols: list = (), d: list = ()) -> list:
    """The inverse of the unimodular matrix held by rows in ``u``, by columns.

    Called with U alone it inverts by the Hermite pass below, so
    ``_inverse(v_cols)`` is V⁻¹ by rows. Called with M's rows, V's columns
    and the diagonal ``d`` = U·M·V, it reads U⁻¹ off that product. A signed
    permutation U is inverted by transposing: ``u`` itself is returned, its
    rows read as columns. Otherwise, since U⁻¹·D = M·V, column j of U⁻¹ is
    (M·V)[:, j] / d[j] for the r nonzero d[j], which come first. The other columns are B = R - A·(U₁·R), where A is the
    first r, U₁ and U₂ are U's first r and last k rows, and U₂·R = I. A
    Hermite pass gives W·U₂ᵀ = [T; 0], T unitriangular as U₂'s rows extend
    to a basis; with T cleared to I, R's columns are W's first rows. The
    pass reads U₂ᵀ bottom up (so R's columns are reversed): the last columns
    of U₂, of rows that became zero, are near unit vectors.
    """
    rows, mul = len(u), operator.mul
    if all(row.count(0) == rows - 1 for row in u):
        return u
    out = [[sum(map(mul, row, vc)) // x for row in m] for x, vc in zip(d, v_cols) if x]
    if (r := len(out)) < rows:
        t, w = list(map(list, zip(*u[r:])))[::-1], _spanned(_identity_lists(rows))
        _hermite(t, w, rows - r)
        for c in range(rows - r - 1, 0, -1):  # from the right: row c of T reads e_c
            for i in range(c):
                _subtract(None, 0, w, i, c, t[i][c])
        a_rows = list(zip(*out)) or [()] * rows
        for col in w[0][:rows - r]:
            x = [sum(map(mul, ur, col[::-1])) for ur in u[:r]]
            out.append([y - sum(map(mul, x, ar)) for y, ar in zip(col[::-1], a_rows)])
    return out


def _identity_lists(n: int) -> list:
    zero = [0] * n
    out = []
    for i in range(n):
        r = zero[:]
        r[i] = 1
        out.append(r)
    return out


def _spanned(t: list) -> tuple:
    """(t, lo, hi) for an identity matrix t, whose row r spans [r, r + 1)."""
    return t, list(range(len(t))), list(range(1, len(t) + 1))


def _is_diagonal(a: list) -> bool:
    for i, r in enumerate(a):  # row i may hold one nonzero, at column i
        if len(r) - r.count(0) != (i < len(r) and r[i] != 0):
            return False
    return True


def _xgcd(x: int, y: int) -> tuple:
    """(g, s, t) with ``s*x + t*y == g == gcd(x, y) >= 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


# In-place row operations. Each step of the reduction applies one to the
# rows of the working matrix and of the transform that follows it: U's rows
# in a row pass, V's columns in a column pass. Only a source row's nonzero
# span is read: in the working matrix, from a column the caller names; in
# the transform, held as (rows, lo, hi), from lo[t] to hi[t] - 1. An
# identity row t spans [t, t+1), and each operation widens its
# destination's span to cover its source's.
# (Indexed loops beat list comprehensions at every row length measured.)


def _subtract(a: list | None, c: int, f: tuple, dst: int, src: int, q: int):
    """Row dst -= q * row src in ``a`` from column c and in ``f``."""
    if a is not None:
        rd, rs = a[dst], a[src]
        for j in range(c, len(rd)):
            rd[j] -= q * rs[j]
    rows, lo, hi = f
    j0, j1 = lo[src], hi[src]
    rd, rs = rows[dst], rows[src]
    for j in range(j0, j1):
        rd[j] -= q * rs[j]
    if j0 < lo[dst]:
        lo[dst] = j0
    if j1 > hi[dst]:
        hi[dst] = j1


def _mix(t: tuple, i: int, k: int, p: int, q: int, r: int, s: int) -> None:
    """Rows (i, k) -> (p*row_i + q*row_k, s*row_k - r*row_i) of t, where ps + qr = 1."""
    rows, lo, hi = t
    j0 = lo[i] = lo[k] = lo[i] if lo[i] < lo[k] else lo[k]
    j1 = hi[i] = hi[k] = hi[i] if hi[i] > hi[k] else hi[k]
    ri, rk = rows[i], rows[k]
    for j in range(j0, j1):
        x, y = ri[j], rk[j]
        ri[j] = p * x + q * y
        rk[j] = s * y - r * x


def _hermite(a: list, follow: tuple, ncols: int) -> None:
    """Row-reduce ``a`` (``ncols`` columns) to an echelon form, in place.

    Rows are inserted in order into the echelon basis of the rows before
    them. ``follow``, a (rows, lo, hi) matrix held by rows, takes every row
    operation applied to ``a``. Each time a pivot (k, c) is set, the entries
    above it are reduced modulo it, and row k's entries in later pivot
    columns modulo those pivots (later steps on row k do not reduce them
    again); pivots are positive. At the end the rows of both matrices, with
    the spans, are reordered: pivot rows in column order, then the zero rows.
    """
    pivot = [-1] * ncols  # pivot[c]: the row whose leading entry is in column c
    pcols, prows = [], []  # the pivot columns in order, and their rows
    zero = []
    for i in range(len(a)):
        row = a[i]
        c = 0
        while True:
            for c in range(c, ncols):
                if row[c]:
                    break
            else:
                zero.append(i)
                break
            x = row[c]
            k = pivot[c]
            if k < 0:
                if x < 0:
                    row = a[i] = [-y for y in row]
                    follow[0][i] = [-y for y in follow[0][i]]
                k = pivot[c] = i
                pos = bisect_left(pcols, c)
                pcols.insert(pos, c)
                prows.insert(pos, i)
            else:
                p = a[k][c]
                if x % p == 0:
                    _subtract(a, c, follow, i, k, x // p)
                    c += 1
                    continue
                # rows (k, i) -> (s*k + e*i, (p/g)*i - (x/g)*k): (g, 0) in column c
                g, s, e = _xgcd(p, x)
                xg, pg = x // g, p // g
                rk = a[k]
                for j in range(c, ncols):  # both rows are zero before column c
                    y, z = rk[j], row[j]
                    rk[j], row[j] = s * y + e * z, pg * z - xg * y
                _mix(follow, k, i, s, e, xg, pg)
                pos = bisect_left(pcols, c)
            p = a[k][c]
            for k2 in prows[:pos]:  # row k is zero before column c
                q = a[k2][c] // p
                if q:
                    _subtract(a, c, follow, k2, k, q)
            for j in range(pos + 1, len(pcols)):
                c2, k2 = pcols[j], prows[j]  # row k2 is zero before column c2
                q = a[k][c2] // a[k2][c2]
                if q:
                    _subtract(a, c2, follow, k, k2, q)
            if k == i:
                break
            c += 1
    order = prows + zero
    if order != list(range(len(a))):
        for t in (a, *follow):
            t[:] = [t[k] for k in order]


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
    rel = IntMatrix.from_rows(dense_rows, cols=len(remaining_cols))
    diag = smith_normal_form(rel.transpose()).diagonal()
    torsion = [x for x in diag if x >= 2]
    return torsion, len(remaining_cols) - sum(1 for x in diag if x != 0)
