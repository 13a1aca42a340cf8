"""Finitely generated abelian groups and their homomorphisms, exactly.

Groups live in canonical invariant-factor form: ``Z^rank + Z/d1 + ... + Z/dt``
with ``d1 | d2 | ... | dt`` and every ``di >= 2``. Canonical form is unique,
so two groups are isomorphic iff they are equal (labels aside). Elements are
coordinate vectors over the canonical generators, torsion coordinates first,
reduced modulo the invariant factors.

Every operation here reduces to Smith normal form over Z: presentations are
canonicalized by diagonalizing the relation matrix, and questions like "does
eta factor through gamma" become integer linear systems with congruence rows,
solved exactly. ``Congruences`` is the one place such a system becomes a
matrix; it is reduced once and then solved for any number of right-hand
sides. ``Factorizer``, kernels and the coefficients of an element over a
generating family all go through it, so every obstruction label spelled
over one gamma_tilde's semantic generators shares one reduction.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from operator import mul
from typing import Iterator, Optional, Sequence

from ._record import field, lazy, record, trusted
from .intlinalg import IntMatrix, smith_normal_form


class InfiniteEnumerationError(ValueError):
    """Raised when asked to enumerate an infinite set of elements or maps."""


@record
class FgAbGroup:
    """A finitely generated abelian group in canonical invariant-factor form.

    >>> G = FgAbGroup(rank=1, torsion=(2,))
    >>> str(G)
    'Z/2 ⊕ Z'
    >>> G.dim, G.order()
    (2, None)
    >>> FgAbGroup(0, (6,)) == from_cyclic_orders([2, 3])
    True
    """

    rank: int
    torsion: tuple = ()
    gen_labels: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        tor = tuple(int(d) for d in self.torsion)
        object.__setattr__(self, "torsion", tor)
        for d in tor:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {tor}")
        if self.gen_labels is not None:
            labels = tuple(str(x) for x in self.gen_labels)
            if len(labels) != self.rank + len(tor):
                raise ValueError("one label per canonical generator required")
            object.__setattr__(self, "gen_labels", labels)

    # -- structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of canonical generators (torsion ones first, then free)."""
        return len(self.torsion) + self.rank

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        return prod(self.torsion) if self.rank == 0 else None

    def exponent(self) -> int:
        """Smallest e >= 1 with e*x = 0 for all x; 0 when the group is infinite."""
        if self.rank > 0:
            return 0
        return self.torsion[-1] if self.torsion else 1

    def coord_order(self, i: int) -> int:
        """Order of the i-th canonical generator (0 means infinite)."""
        return self.torsion[i] if i < len(self.torsion) else 0

    def labels(self) -> tuple:
        if self.gen_labels is not None:
            return self.gen_labels
        if self.dim == 1 and self.rank == 1:
            return ("1",)
        if self.rank == self.dim:
            return tuple(f"e{i + 1}" for i in range(self.dim))
        return tuple(f"a{i + 1}" for i in range(self.dim))

    def with_labels(self, labels: Sequence[str]) -> "FgAbGroup":
        return FgAbGroup(self.rank, self.torsion, tuple(labels))

    # -- elements -------------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * self.dim

    def reduce(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.dim:
            raise ValueError(f"element has {len(vec)} coordinates, expected {self.dim}")
        t = len(self.torsion)
        return tuple(int(x) % self.torsion[i] if i < t else int(x) for i, x in enumerate(vec))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple:
        return self.reduce([a + b for a, b in zip(x, y)])

    def smul(self, c: int, x: Sequence[int]) -> tuple:
        return self.reduce([c * a for a in x])

    def element_order(self, x: Sequence[int]) -> int:
        """Additive order of x; 0 means infinite."""
        x = self.reduce(x)
        t = len(self.torsion)
        if any(x[i] for i in range(t, self.dim)):
            return 0
        o = 1
        for i in range(t):
            if x[i]:
                d = self.torsion[i]
                oi = d // gcd(d, x[i])
                o = o * oi // gcd(o, oi)
        return o

    def elements(self) -> Iterator:
        """All elements, lexicographically by coordinates. Finite groups only."""
        if self.rank > 0:
            raise InfiniteEnumerationError(f"{self} is infinite")
        return (tuple(c) for c in itertools.product(*[range(d) for d in self.torsion]))

    def elements_killed_by(self, n: int) -> Iterator:
        """Elements x with n*x = 0, in deterministic order. n = 0 means all."""
        if n == 0:
            yield from self.elements()
            return
        # n*x = 0 forces free coordinates to vanish, so this stays finite.
        ranges = []
        for d in self.torsion:
            step = d // gcd(d, n)
            ranges.append(range(0, d, step))
        for tor_part in itertools.product(*ranges):
            yield tuple(tor_part) + (0,) * self.rank

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " ⊕ ".join(parts)


def free_group(rank: int, labels: Optional[Sequence[str]] = None) -> FgAbGroup:
    return FgAbGroup(rank, (), tuple(labels) if labels is not None else None)


def cyclic(n: int, label: Optional[str] = None) -> FgAbGroup:
    """Z/n for n >= 2, Z for n = 0, and the trivial group for n = 1."""
    if n == 0:
        return FgAbGroup(1, (), (label,) if label else None)
    if n == 1:
        return TRIVIAL
    return FgAbGroup(0, (n,), (label,) if label else None)


TRIVIAL = FgAbGroup(0, ())
Z = FgAbGroup(1, ())


def from_cyclic_orders(orders: Sequence[int], labels: Optional[Sequence[str]] = None) -> FgAbGroup:
    """Canonical form of a direct sum of cyclic groups (order 0 meaning Z).

    The summand orders need not form a chain; Z/4 + Z/3 comes back as Z/12.
    Labels, if given, are discarded unless the canonical generators happen to
    coincide with the given summands (use TabulatedGroup in tables to keep
    named non-canonical summands).
    """
    grp = _cyclic_sum(orders).group
    if labels is not None:
        chain = [d for d in orders if d >= 2]
        free = [d for d in orders if d == 0]
        if tuple(chain) == grp.torsion and len(free) == grp.rank and not any(d == 1 for d in orders):
            tor_labels = [l for d, l in zip(orders, labels) if d >= 2]
            free_labels = [l for d, l in zip(orders, labels) if d == 0]
            return grp.with_labels(tor_labels + free_labels)
    return grp


def group_to_json(g: FgAbGroup) -> dict:
    """The document ``group_from_json`` reads; ``labels`` only when the group has them."""
    doc = {"rank": g.rank, "torsion": list(g.torsion)}
    if g.gen_labels is not None:
        doc["labels"] = list(g.gen_labels)
    return doc


def group_from_json(doc: dict) -> FgAbGroup:
    """A group read from ``{"rank": r, "torsion": [...], "labels": [...]}``.

    Rank and torsion must be JSON integers, and labels, when present, a list
    of distinct strings; a missing rank or torsion reads as 0 or (), and any
    other key is refused. Raises ValueError (or TypeError, AttributeError for
    a document of the wrong shape).
    """
    rank, torsion, labels = doc.get("rank", 0), tuple(doc.get("torsion", ())), doc.get("labels")
    if type(rank) is not int or any(type(d) is not int for d in torsion):
        raise ValueError(f"rank and torsion must be integers, got {rank!r} and {list(torsion)!r}")
    if "labels" in doc and (type(labels) is not list or any(type(x) is not str for x in labels)
                            or len(set(labels)) != len(labels)):
        raise ValueError(f"labels must be a list of distinct strings, got {labels!r}")
    if extra := [key for key in doc if key not in ("rank", "torsion", "labels")]:
        raise ValueError(f"unknown key {extra[0]!r}; a group takes only rank, torsion and labels")
    return FgAbGroup(rank, torsion, None if labels is None else tuple(labels))


# -- presentations ------------------------------------------------------


@record
class Presentation:
    """A free presentation: Z^n_generators modulo the rows of ``relations``."""

    n_generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.cols != self.n_generators:
            raise ValueError("relation rows must have one entry per generator")


@record
class Canonicalized:
    """A presentation together with its canonical quotient and a section.

    ``quotient`` maps the free group on the presentation's generators onto
    the canonical group; ``section`` is an integer matrix picking one
    preimage per canonical generator (quotient ∘ section = id).
    """

    group: FgAbGroup
    quotient: "GroupHom"
    section: IntMatrix


def canonicalize_full(p: Presentation) -> Canonicalized:
    """Canonical form of coker(relations), its quotient map and a section.

    The quotient is the kept rows of U and the section the matching columns
    of U⁻¹, read from one Smith normal form of the relations.

    >>> str(canonicalize_full(Presentation(2, IntMatrix.from_rows([[2, 0]], cols=2))).group)
    'Z/2 ⊕ Z'
    """
    n = p.n_generators
    m = p.relations.transpose()  # columns = relators inside Z^n
    s = smith_normal_form(m)
    diag = s._diag
    kept = [i for i in range(n) if i >= len(diag) or diag[i] != 1]
    torsion = [diag[i] for i in kept if i < len(diag) and diag[i] >= 2]
    rank = len(kept) - len(torsion)
    # Torsion positions always precede free ones in `kept` because the SNF
    # diagonal is sorted by divisibility (1s, then >=2s, then 0s).
    group = FgAbGroup(rank, tuple(torsion))
    quotient = GroupHom._of(free_group(n), group, tuple(tuple(s._u[i]) for i in kept))
    cols = [s._u_inv_cols[i] for i in kept]
    section = IntMatrix._of(n, len(kept), tuple(tuple(c[r] for c in cols) for r in range(n)))
    return Canonicalized(group, quotient, section)


def _cyclic_sum(orders: Sequence[int]) -> Canonicalized:
    """The canonical form of the direct sum of Z/d over ``orders`` (0 meaning Z)."""
    return canonicalize_full(Presentation(len(orders), IntMatrix.diagonal(orders)))


# -- homomorphisms ------------------------------------------------------


@record
class GroupHom:
    """A homomorphism as an integer matrix on canonical generators.

    Column j holds the image of the j-th source generator in target
    coordinates. The matrix is stored reduced modulo the target's invariant
    factors, so two equal homomorphisms are field-equal. Construction checks
    well-definedness: a source generator of finite order d must map to an
    element killed by d.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != self.target.dim or m.cols != self.source.dim:
            raise ValueError(
                f"matrix is {m.rows}x{m.cols}, expected {self.target.dim}x{self.source.dim}")
        rm = GroupHom._of(self.source, self.target, m.data).matrix  # reduced, not yet checked
        object.__setattr__(self, "matrix", rm)
        for j in range(self.source.dim):
            d = self.source.coord_order(j)
            if d == 0:
                continue
            for i in range(rm.rows):
                e = self.target.coord_order(i)
                v = d * rm[i, j]
                if (v % e if e else v) != 0:
                    raise ValueError(
                        f"not a homomorphism: generator {j} has order {d} but its "
                        f"image is not killed by {d}")

    @classmethod
    def _of(cls, source: FgAbGroup, target: FgAbGroup, rows: Sequence[tuple]) -> "GroupHom":
        """Trusted construction, for data that is a homomorphism by construction.

        ``rows`` (``target.dim`` tuples of ``source.dim`` ints) is reduced
        modulo the target's torsion; shape and well-definedness are not
        checked. Legal for a ``Factorizer`` solution, a composite, or columns
        from ``elements_killed_by`` their generator's order.
        """
        tor = target.torsion
        return cls._wrap(source, target, IntMatrix._of(target.dim, source.dim, tuple(
            tuple(x % tor[i] for x in r) if i < len(tor) else r for i, r in enumerate(rows))))

    # ``_of`` for a matrix already reduced modulo the target's torsion.
    _wrap = trusted("source", "target", "matrix")

    @staticmethod
    def identity(g: FgAbGroup) -> "GroupHom":
        return GroupHom(g, g, IntMatrix.identity(g.dim))

    @staticmethod
    def zero(source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return GroupHom(source, target, IntMatrix.zeros(target.dim, source.dim))

    @staticmethod
    def from_columns(source: FgAbGroup, target: FgAbGroup, cols: Sequence[Sequence[int]]) -> "GroupHom":
        return GroupHom(source, target, IntMatrix.from_columns(cols, rows=target.dim))

    def apply(self, x: Sequence[int]) -> tuple:
        return self.target.reduce(self.matrix.mul_vec(self.source.reduce(x)))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self ∘ other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom._of(other.source, self.target, (self.matrix * other.matrix).data)

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        return self.compose(other)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_identity(self) -> bool:
        return self.source == self.target and self == GroupHom.identity(self.source)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target} via {self.matrix.to_lists()}"


def multiplication_by(n: int, g: FgAbGroup) -> GroupHom:
    return GroupHom(g, g, IntMatrix.identity(g.dim).scale(n))


def hom_from_images(source: FgAbGroup, target: FgAbGroup, images: Sequence[Sequence[int]],
                    section: IntMatrix) -> GroupHom:
    """The map sending generator j of a presentation of ``source`` to ``images[j]``: images
    times ``section`` (each canonical generator over the presentation's), the only candidate,
    with nothing solved. Trusted: the caller vouches that it is a homomorphism, or checks."""
    rows = tuple(zip(*images)) if images else ((),) * target.dim
    return GroupHom._of(source, target, (IntMatrix._of(target.dim, len(images), rows) * section).data)


# -- congruence systems -------------------------------------------------


class Congruences:
    """Integer unknowns x with ``rows[i]·x ≡ rhs[i] (mod moduli[i])``, reduced once.

    Modulus 0 makes a row an exact equation. Every nonzero modulus gets its
    own slack unknown, in row order, so the system is the one integer
    matrix ``[rows | slack]``, reduced to ``U·M·V = D`` with no inverse.
    Only what ``solve`` and ``kernel`` read is kept, from the reduction's
    lists: ``U``'s columns, the diagonal and ``V``'s first ``n_unknowns``
    rows (slack values are never returned). Each ``solve`` costs ``U·b`` and
    ``V·z`` over the nonzero entries of b and z and a divisibility check;
    its solution is the full reduction's, exactly. This is the library's one
    solver: every solve and kernel goes through it.

    >>> Congruences([[2]], [6], 1).solve([4])  # 2x ≡ 4 (mod 6)
    (2,)
    >>> Congruences([[2]], [6], 1).solve([3]) is None
    True
    """

    def __init__(self, rows: Sequence[Sequence[int]], moduli: Sequence[int], n_unknowns: int):
        self.n = n_unknowns
        width = n_unknowns + sum(1 for m in moduli if m)
        data, slack = [], n_unknowns
        for row, m in zip(rows, moduli):
            data.append(list(row) + [0] * (width - n_unknowns))
            if m:
                data[-1][slack] = m
                slack += 1
        snf = smith_normal_form(IntMatrix._of(len(data), width, tuple(map(tuple, data))))
        self._u_cols = tuple(zip(*snf._u))
        self._diag = tuple(snf._diag) + (0,) * (len(data) - len(snf._diag))
        self._v_cols = tuple(v[:n_unknowns] for v in snf._v_cols)

    @staticmethod
    def spanning(group: FgAbGroup, generators: IntMatrix) -> "Congruences":
        """Coefficients x with ``sum x_j·generators[:, j]`` equal to an element of ``group``."""
        return Congruences(generators.data, [group.coord_order(i) for i in range(group.dim)],
                           generators.cols)

    def solve(self, rhs: Sequence[int]) -> Optional[tuple]:
        """The particular solution read off the Smith normal form, or None."""
        if len(rhs) != len(self._diag):
            raise ValueError("right-hand side length mismatch")
        c = x = None  # U·b and V·z, built from their nonzero terms only
        for b, u in zip(rhs, self._u_cols):
            if b:
                c = [b * y for y in u] if c is None else [ci + b * y for ci, y in zip(c, u)]
        for i, ci in enumerate(c or ()):
            if ci:
                d = self._diag[i]
                if not d or ci % d:
                    return None
                z, v = ci // d, self._v_cols[i]
                x = [z * y for y in v] if x is None else [xi + z * y for xi, y in zip(x, v)]
        return (0,) * self.n if x is None else tuple(x)

    def kernel(self) -> IntMatrix:
        """Columns generating the solutions of the homogeneous system."""
        free = [v for j, v in enumerate(self._v_cols) if j >= len(self._diag) or not self._diag[j]]
        return IntMatrix._of(self.n, len(free), tuple(tuple(v[i] for v in free)
                                                      for i in range(self.n)))


class Factorizer:
    """Solve h ∘ through = f for many f, with h: through.target -> target.

    Row i of h meets only target coordinate i, of order cᵢ: one congruence
    per source generator and one per torsion generator of ``through.target``,
    with f only on the right. So one ``Congruences`` per distinct cᵢ is
    reduced here, and a solve costs ``U·b``, a divisibility check and ``V·z``
    per coordinate. The particular solution is the one a fresh reduction of
    all blocks in one matrix would return: its Hermite passes never combine
    rows or columns of different blocks and keep each block's order, and the
    steps that cross blocks (the chain fix-up's swaps and gcd mixes on nonzero
    diagonal entries, and the sign and permutation steps of an extra pass)
    change U and V, not V·D⁺·U·b.

    ``rows`` is the one solver, on reduced column and row tuples; ``solve``
    and ``factor`` wrap its rows in a ``GroupHom``, a survey row reads them.

    >>> g = GroupHom.from_columns(cyclic(12), cyclic(6), [(1,)])
    >>> fz = Factorizer(g, cyclic(3))
    >>> [fz.factor(GroupHom.from_columns(cyclic(12), cyclic(3), [(x,)])).matrix.to_lists()
    ...  for x in range(3)]
    [[[0]], [[1]], [[2]]]
    """

    def __init__(self, through: "GroupHom", target: FgAbGroup):
        self.through = through
        self.target = target
        b = through.target
        self._cols = [through.matrix.col(a) for a in range(through.source.dim)]
        rows = self._cols + list(IntMatrix.diagonal(b.torsion, b.dim, b.dim).data[:len(b.torsion)])
        self._pad = [0] * len(b.torsion)  # the right-hand sides of well-definedness
        self._moduli = [target.coord_order(i) for i in range(target.dim)]
        systems = {m: Congruences(rows, [m] * len(rows), b.dim) for m in set(self._moduli)}
        self._systems = [systems[m] for m in self._moduli]

    def solve(self, targets: Sequence) -> Optional["GroupHom"]:
        """Some h with h(through(e_j)) = targets[j], one target element per j, or None."""
        return self._hom(self.rows(tuple(map(self.target.reduce, targets))))

    def factor(self, f: "GroupHom") -> Optional["GroupHom"]:
        """Some h with h ∘ through = f, or None; f must share through's source and the target."""
        if f.source != self.through.source or f.target != self.target:
            raise ValueError("factor_through requires a shared source and the factorizer's target")
        return self._hom(self.rows(tuple(zip(*f.matrix.data))))

    def _hom(self, rows: Optional[tuple]) -> Optional["GroupHom"]:
        b = self.through.target  # the systems hold b's well-definedness rows: h is a hom
        return None if rows is None else GroupHom._wrap(
            b, self.target, IntMatrix._of(len(rows), b.dim, rows))

    def rows(self, cols: Sequence[tuple]) -> Optional[tuple]:
        """h's rows, reduced as ``GroupHom._of`` reduces them, for some h ∘ through = f, or
        None; ``cols`` are f's reduced columns. Each row is checked by composing it back:
        times through's columns, modulo the target's torsion, it must give f's row."""
        rows = []
        for i, (system, m) in enumerate(zip(self._systems, self._moduli)):
            want = [c[i] for c in cols]
            row = system.solve(want + self._pad)
            if row is None:
                return None
            row = tuple(x % m for x in row) if m else row
            back = (sum(map(mul, row, col)) for col in self._cols)
            if [x % m if m else x for x in back] != want:
                raise AssertionError("solver returned a non-witness")
            rows.append(row)
        return tuple(rows)


def factor_through(f: GroupHom, g: GroupHom) -> Optional[GroupHom]:
    """Some h with h ∘ g = f, or None when no such h exists.

    f: A -> C and g: A -> B must share their source. The witness is the
    particular solution of the underlying linear system; callers must not
    rely on which one they get.

    >>> f = GroupHom.from_columns(cyclic(12), cyclic(3), [(1,)])
    >>> g = GroupHom.from_columns(cyclic(12), cyclic(6), [(1,)])
    >>> factor_through(f, g).matrix.to_lists()
    [[1]]
    """
    return Factorizer(g, f.target).factor(f)


def is_split_injective(f: GroupHom) -> tuple:
    """(True, retraction) when some r with r ∘ f = id exists, else (False, None)."""
    r = factor_through(GroupHom.identity(f.source), f)
    if r is None:
        return False, None
    assert (r @ f).is_identity()
    return True, r


# -- subgroups, kernels, images, cokernels ------------------------------


def subgroup(ambient: FgAbGroup, generators: Sequence) -> tuple:
    """(S, inclusion) for the subgroup of ``ambient`` the elements generate."""
    cols = [ambient.reduce(g) for g in generators]
    gens = IntMatrix.from_columns(cols, rows=ambient.dim)
    lat = Congruences.spanning(ambient, gens).kernel()
    c = canonicalize_full(Presentation(len(cols), lat.transpose()))
    return c.group, GroupHom(c.group, ambient, gens * c.section)


def kernel(f: GroupHom) -> tuple:
    """(K, inclusion K -> source) of the kernel subgroup."""
    lat = Congruences.spanning(f.target, f.matrix).kernel()
    return subgroup(f.source, [lat.col(j) for j in range(lat.cols)])


def image(f: GroupHom) -> tuple:
    """(I, inclusion I -> target) of the image subgroup."""
    return subgroup(f.target, [f.matrix.col(j) for j in range(f.source.dim)])


def cokernel(f: GroupHom) -> tuple:
    """(C, projection target -> C) of the cokernel."""
    b = f.target
    rel_rows = list(IntMatrix.diagonal(b.torsion, cols=b.dim).data) + f.matrix.columns()
    c = canonicalize_full(Presentation(b.dim, IntMatrix.from_rows(rel_rows, cols=b.dim)))
    proj = GroupHom(b, c.group, c.quotient.matrix)
    return c.group, proj


def two_torsion_subgroup(a: FgAbGroup) -> tuple:
    """({x : 2x = 0}, inclusion); isomorphic to Tor(A, Z/2)."""
    return kernel(multiplication_by(2, a))


@record
class DirectSum:
    """The canonical direct sum of ``summands``; each summand's injection and projection
    are read off the sum's quotient and section when first read."""

    group: FgAbGroup
    summands: tuple
    _canon: Canonicalized = field(compare=False, repr=False)

    def _blocks(self) -> list:  # (summand, its coordinates in the sum's presentation)
        ends = itertools.accumulate(g.dim for g in self.summands)
        return [(g, range(e - g.dim, e)) for g, e in zip(self.summands, ends)]

    injections = lazy(lambda self: tuple(GroupHom.from_columns(
        g, self.group, [self._canon.quotient.matrix.col(j) for j in b]) for g, b in self._blocks()))
    projections = lazy(lambda self: tuple(GroupHom(self.group, g, IntMatrix.from_rows(
        [self._canon.section.row(j) for j in b], cols=self.group.dim)) for g, b in self._blocks()))


def direct_sum(*groups: FgAbGroup) -> DirectSum:
    """Canonical direct sum with its injections and projections."""
    c = _cyclic_sum([d for g in groups for d in g.torsion + (0,) * g.rank])
    return DirectSum(c.group, groups, c)


def stack_homs(fs: Sequence[GroupHom]) -> tuple:
    """Combine maps with a common source into one map to the direct sum.

    Returns (stacked hom, DirectSum of the targets). The stacked map is one
    product, the sum's quotient times the maps' matrices stacked, which skips
    the quotient's zero entries; no injection is built.
    """
    if not fs:
        raise ValueError("need at least one homomorphism")
    src = fs[0].source
    if any(f.source != src for f in fs):
        raise ValueError("stack_homs requires a common source")
    ds = direct_sum(*[f.target for f in fs])
    stacked = tuple(row for f in fs for row in f.matrix.data)
    m = ds._canon.quotient.matrix * IntMatrix._of(len(stacked), src.dim, stacked)
    return GroupHom._of(src, ds.group, m.data), ds


# -- tensor, tor, hom ----------------------------------------------------


@record
class TensorProduct:
    """A ⊗ B in canonical form with bilinear-generator bookkeeping.

    ``pairs`` lists the (i, j) generator pairs in column order of the
    underlying presentation (left-generator major); ``pure(a, b)`` lands the
    elementary tensor of two elements in the canonical group.
    """

    left: FgAbGroup
    right: FgAbGroup
    group: FgAbGroup
    pairs: tuple
    _canon: Canonicalized = field(compare=False, repr=False)

    def pure(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        a = self.left.reduce(a)
        b = self.right.reduce(b)
        vec = [a[i] * b[j] for (i, j) in self.pairs]
        return self.group.reduce(self._canon.quotient.matrix.mul_vec(vec))


def tensor(a: FgAbGroup, b: FgAbGroup) -> TensorProduct:
    """Canonical A ⊗ B.

    >>> str(tensor(cyclic(4), cyclic(6)).group)
    'Z/2'
    """
    pairs = [(i, j) for i in range(a.dim) for j in range(b.dim)]
    left = IntMatrix.diagonal([a.coord_order(i) for i, _ in pairs]).data
    right = IntMatrix.diagonal([b.coord_order(j) for _, j in pairs]).data
    rows = [row for both in zip(left, right) for row in both if any(row)]  # d, then e, per pair
    c = canonicalize_full(Presentation(len(pairs), IntMatrix.from_rows(rows, cols=len(pairs))))
    return TensorProduct(a, b, c.group, tuple(pairs), c)


def tensor_induced(f: GroupHom, g: GroupHom,
                   source: Optional[TensorProduct] = None,
                   target: Optional[TensorProduct] = None) -> GroupHom:
    """The map f ⊗ g between tensor products.

    One product, target quotient · (f ⊗ g on pair coordinates) · source
    section, reduced modulo torsion once (the reduction is additive).
    """
    src = source if source is not None else tensor(f.source, g.source)
    tgt = target if target is not None else tensor(f.target, g.target)
    if (src.left, src.right, tgt.left, tgt.right) != (f.source, g.source, f.target, g.target):
        raise ValueError("tensor_induced: source and target must be tensors of f's and g's groups")
    fm, gm = f.matrix.data, g.matrix.data
    on_pairs = IntMatrix._of(len(tgt.pairs), len(src.pairs), tuple(
        tuple(fm[ki][i] * gm[kj][j] for (i, j) in src.pairs) for (ki, kj) in tgt.pairs))
    return GroupHom._of(src.group, tgt.group,  # f ⊗ g of two homomorphisms is one
                        (tgt._canon.quotient.matrix * on_pairs * src._canon.section).data)


def mod_reduction(a: FgAbGroup, n: int) -> tuple:
    """(A ⊗ Z/n, natural quotient A -> A ⊗ Z/n)."""
    tp = tensor(a, cyclic(n))
    cols = [tp.pure(unit, (1,)) for unit in IntMatrix.identity(a.dim).columns()]
    return tp, GroupHom.from_columns(a, tp.group, cols)


def tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tor_1(A, B) in canonical form: the direct sum of Z/gcd(di, ej).

    >>> str(tor(cyclic(4), cyclic(6)))
    'Z/2'
    """
    orders = [gcd(d, e) for d in a.torsion for e in b.torsion]
    return from_cyclic_orders([o for o in orders if o > 1])


@record
class HomGroup:
    """Hom(A, B) as a group, with enumeration of the maps when finite: ``columns``
    yields each map's reduced columns, and iterating wraps them in ``GroupHom``s.
    ``is_finite`` and ``order()``, which a survey counts by, are closed forms
    (Hom(Z/d, Z/e) = Z/gcd(d, e)); the canonical ``group`` is built when first read."""

    source: FgAbGroup
    target: FgAbGroup

    def _cyclic_orders(self) -> list:
        """Orders of cyclic groups (0 meaning Z) whose direct sum is Hom(A, B)."""
        a, b = self.source, self.target
        orders = [o for d in a.torsion for e in b.torsion if (o := gcd(d, e)) != 1]
        return orders + (list(b.torsion) + [0] * b.rank) * a.rank

    group = lazy(lambda self: from_cyclic_orders(self._cyclic_orders()))

    @property
    def is_finite(self) -> bool:
        return not (self.source.rank and self.target.rank)

    def order(self) -> Optional[int]:
        """|Hom(A, B)|, or None when infinite, as ``group.order()`` without building it."""
        return prod(self._cyclic_orders()) if self.is_finite else None

    def columns(self) -> Iterator[tuple]:
        a, b = self.source, self.target
        if not self.is_finite:
            raise InfiniteEnumerationError(f"Hom({a}, {b}) is infinite")
        # Each column is reduced and killed by its generator's order: a homomorphism.
        return itertools.product(*[list(b.elements_killed_by(a.coord_order(j)))
                                   for j in range(a.dim)])

    def __iter__(self) -> Iterator[GroupHom]:
        a, b = self.source, self.target
        for cols in self.columns():
            yield GroupHom._wrap(a, b, IntMatrix._of(
                b.dim, a.dim, tuple(zip(*cols)) if cols else ((),) * b.dim))


def hom_group(a: FgAbGroup, b: FgAbGroup) -> HomGroup:
    """The abelian group Hom(A, B); a survey counts it by the closed-form ``order()``,
    and the canonical ``group`` (one Smith normal form) is built only when first read.

    >>> hom_group(cyclic(4), cyclic(6)).order()
    2
    >>> str(hom_group(cyclic(4), cyclic(6)).group)
    'Z/2'
    >>> len(list(hom_group(cyclic(4), cyclic(6))))
    2
    """
    return HomGroup(a, b)
