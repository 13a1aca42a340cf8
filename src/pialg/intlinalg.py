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
from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Optional, Sequence

from ._record import frozen


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


def _square(lists: Optional[list], by_cols: bool = False) -> Optional[IntMatrix]:
    """The square matrix held by rows (or by columns) in ``lists``; None for None."""
    if lists is None:
        return None
    data = tuple(zip(*lists)) if by_cols else tuple(map(tuple, lists))
    return IntMatrix._of(len(lists), len(lists), data)


@frozen(_FIELDS)
class SnfResult:
    """Smith normal form ``u * m * v == d`` with unimodular ``u``, ``v``.

    ``d`` is diagonal with non-negative entries satisfying the divisibility
    chain d[0] | d[1] | ...; ``u_inv`` and ``v_inv`` are the exact inverses,
    maintained during the reduction so callers never have to invert a
    unimodular matrix themselves; one the reduction did not carry is None.
    A result of ``smith_normal_form`` keeps the reduction's lists and builds
    each of the five fields on its first read. Results are immutable, and
    equality, hashing and repr go by the five fields.
    """

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix,
                 u_inv: Optional[IntMatrix], v_inv: Optional[IntMatrix]):
        vars(self).update(zip(_FIELDS, (u, d, v, u_inv, v_inv)))

    @classmethod
    def _of(cls, rows, cols, u, diag, v_cols, u_inv_cols, v_inv) -> "SnfResult":
        """Trusted construction from a reduction's lists, kept as they are.

        ``u`` and ``v_inv`` hold rows, ``v_cols`` and ``u_inv_cols`` columns;
        ``fgab`` reads them and never changes them.
        """
        s = object.__new__(cls)
        vars(s).update(_rows=rows, _cols=cols, _u=u, _diag=diag, _v_cols=v_cols,
                       _u_inv_cols=u_inv_cols, _v_inv=v_inv)
        return s

    u = cached_property(lambda self: _square(self._u))
    d = cached_property(lambda self: IntMatrix.diagonal(self._diag, self._rows, self._cols))
    v = cached_property(lambda self: _square(self._v_cols, by_cols=True))
    u_inv = cached_property(lambda self: _square(self._u_inv_cols, by_cols=True))
    v_inv = cached_property(lambda self: _square(self._v_inv))

    def diagonal(self) -> list:
        return [self.d[i, i] for i in range(min(self.d.rows, self.d.cols))]

    def solve(self, rhs: Sequence[int]) -> Optional[tuple]:
        """One integer solution x of ``m @ x == rhs`` for the reduced ``m``, or None.

        ``m x = b`` becomes ``d z = u b`` with ``x = v z``: each coordinate of
        ``u b`` must be divisible by its diagonal entry (zero where the entry
        is zero). Reusing one reduction for many right-hand sides costs two
        matrix-vector products per solve.
        """
        if len(rhs) != self.d.rows:
            raise ValueError("right-hand side length mismatch")
        c, diag = self.u.mul_vec(rhs), self.diagonal()
        if any(ci % d if d else ci for ci, d in zip(c, diag)) or any(c[len(diag):]):
            return None
        return self.v.mul_vec([ci // d if d else 0 for ci, d in zip(c, diag)]
                              + [0] * (self.d.cols - len(diag)))

    def kernel(self) -> IntMatrix:
        """A basis of the integer kernel lattice of the reduced ``m``, as columns."""
        n = min(self.d.rows, self.d.cols)
        free = [j for j in range(self.d.cols) if j >= n or self.d[j, j] == 0]
        return IntMatrix._of(self.d.cols, len(free),
                             tuple(tuple(r[j] for j in free) for r in self.v.data))


def smith_normal_form(m: IntMatrix, inverses: bool | str = True) -> SnfResult:
    """Exact Smith normal form over Z, total on all shapes including 0x0.

    Hermite reductions in the manner of Kannan and Bachem (SIAM J. Comput.
    8(4), 1979): a Hermite pass on the rows and one on the columns
    alternate until the matrix is diagonal (dense inputs usually need two),
    then 2x2 swaps and gcd/lcm steps make the diagonal a divisibility chain.
    A pass inserts the rows one at a time into a reduced echelon basis;
    whenever a pivot p is set, the entries above it are reduced into
    [0, p), and so are its row's entries under later pivots. Every step is
    mirrored on ``u``, ``v`` and the inverses carried. Reducing as each
    pivot is fixed is what bounds coefficient growth: Kannan and Bachem
    bound every intermediate number by a polynomial in the size of the
    input, and on dense 32x32 inputs with entries in [-100, 100] the
    witnesses stay within twice the digits of ``|det m|``. The output is
    deterministic.

    ``inverses`` says which inverses are carried: True (both, the default),
    "u" (``u_inv`` only) or False (none). An inverse not carried costs no
    step and reads None; ``u``, ``d`` and ``v`` are the same either way.
    """
    if inverses not in (True, "u", False):
        raise ValueError(f"inverses must be True, 'u' or False, not {inverses!r}")
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u, v_cols = _identity_lists(rows), _identity_lists(cols)
    ui = [_identity_lists(rows)] if inverses else []  # U⁻¹ by columns, when carried
    vi = [_identity_lists(cols)] if inverses and inverses != "u" else []  # V⁻¹ by rows
    # A pass reduces the rows of ``a``, followed by U and mirrored on U⁻¹;
    # ``a`` is then transposed, so the next pass reduces the columns,
    # followed by the columns of V and mirrored on V⁻¹.
    sides = [([u], ui, cols), ([v_cols], vi, rows)]
    diagonal = _is_diagonal(a)
    while not diagonal:
        _hermite(a, *sides[0])
        diagonal = _is_diagonal(a)
        if not diagonal:
            a = list(map(list, zip(*a)))
            sides.reverse()
    # A diagonal input skips the passes, so signs and zeros are fixed here.
    d = [a[i][i] for i in range(min(rows, cols))]
    for i, x in enumerate(d):
        if x < 0:
            d[i] = -x
            for t in (u, *ui):
                t[i] = [-y for y in t[i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y == 0 or (x and y % x == 0):
                continue
            if x == 0 or x % y == 0:
                d[i], d[j] = y, x
                for t in (u, v_cols, *ui, *vi):
                    t[i], t[j] = t[j], t[i]
                continue
            # diag(x, y) -> diag(g, l): add row j to row i, mix columns i
            # and j so that row i reads (g, 0), then clear row j's entry.
            g, s, e = _xgcd(x, y)
            q, yg, xg = y * e // g, y // g, x // g
            _subtract([u], ui, i, j, -1)
            _mix(v_cols, i, j, s, e, yg, xg)
            _subtract([u], ui, j, i, q)
            for t in vi:
                _mix(t, i, j, xg, yg, e, s)
            d[i], d[j] = g, x * y // g
    return SnfResult._of(rows, cols, u, d, v_cols, ui[0] if ui else None, vi[0] if vi else None)


def _identity_lists(n: int) -> list:
    zero = [0] * n
    out = []
    for i in range(n):
        r = zero[:]
        r[i] = 1
        out.append(r)
    return out


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
# rows of some matrices and the mirrored one to the columns of their
# inverses, which are held by columns so that it too is a row operation: if
# rows (i, k) are multiplied by the unimodular [[p, q], [-r, s]], columns
# (i, k) of the inverse are multiplied by [[s, -q], [r, p]], which is
# _mix(inv, i, k, s, r, q, p). (Indexed loops beat list comprehensions here
# at every row length measured, small or big integers.)


def _subtract(rowwise: list, mirror: list, dst: int, src: int, q: int) -> None:
    """Row dst -= q * row src in each of ``rowwise``; column src += q * column dst in ``mirror``."""
    for rows in rowwise:
        rd, rs = rows[dst], rows[src]
        for j in range(len(rd)):
            rd[j] -= q * rs[j]
    for rows in mirror:
        rd, rs = rows[src], rows[dst]
        for j in range(len(rd)):
            rd[j] += q * rs[j]


def _mix(rows: list, i: int, k: int, p: int, q: int, r: int, s: int) -> None:
    """Rows (i, k) -> (p*row_i + q*row_k, s*row_k - r*row_i), where ps + qr = 1."""
    ri, rk = rows[i], rows[k]
    for j in range(len(ri)):
        x, y = ri[j], rk[j]
        ri[j] = p * x + q * y
        rk[j] = s * y - r * x


def _hermite(a: list, follow: list, mirror: list, ncols: int) -> None:
    """Row-reduce ``a`` (``ncols`` columns) to Hermite normal form, in place.

    Rows are inserted in order into the echelon basis of the rows before
    them. Each matrix in ``follow`` (held by rows) takes every row operation
    applied to ``a``; each inverse in ``mirror`` (held by columns) takes the
    mirrored column operation. No other bookkeeping is done, so a caller
    pays only for the matrices it passes. Each time a pivot (k, c) is set,
    the entries above it are reduced modulo it, and row k's entries in later
    pivot columns modulo those pivots; pivots are positive. At the end the
    rows of every matrix are reordered: pivot rows in column order, then
    the zero rows.
    """
    rowwise = [a, *follow]
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
                    for rows in rowwise + mirror:
                        rows[i] = [-y for y in rows[i]]
                    row = a[i]
                k = pivot[c] = i
                pos = bisect_left(pcols, c)
                pcols.insert(pos, c)
                prows.insert(pos, i)
            else:
                p = a[k][c]
                if x % p == 0:
                    _subtract(rowwise, mirror, i, k, x // p)
                    c += 1
                    continue
                # rows (k, i) -> (s*k + e*i, (p/g)*i - (x/g)*k): (g, 0) in column c
                g, s, e = _xgcd(p, x)
                xg, pg = x // g, p // g
                for rows in rowwise:
                    _mix(rows, k, i, s, e, xg, pg)
                for rows in mirror:
                    _mix(rows, k, i, pg, xg, e, s)
                pos = bisect_left(pcols, c)
            p = a[k][c]
            for k2 in prows[:pos]:
                q = a[k2][c] // p
                if q:
                    _subtract(rowwise, mirror, k2, k, q)
            for j in range(pos + 1, len(pcols)):
                c2, k2 = pcols[j], prows[j]
                q = a[k][c2] // a[k2][c2]
                if q:
                    _subtract(rowwise, mirror, k, k2, q)
            if k == i:
                break
            c += 1
    order = prows + zero
    if order != list(range(len(a))):
        for rows in rowwise + mirror:
            rows[:] = [rows[k] for k in order]


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
    diag = smith_normal_form(rel.transpose(), inverses=False).diagonal()
    torsion = [x for x in diag if x >= 2]
    return torsion, len(remaining_cols) - sum(1 for x in diag if x != 0)
