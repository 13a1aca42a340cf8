"""Quadratic modules and the quadratic tensor product.

A quadratic module ``M = (Me -H-> Mee -P-> Me)`` with ``PHP = 2P`` and
``HPH = 2H`` determines a quadratic functor ``A ⊗q M`` on abelian groups,
generated by symbols ``a⊗m`` and ``[a,b]⊗n`` subject to

    (a+b)⊗m = a⊗m + b⊗m + [a,b]⊗H(m)
    a⊗(m+m') = a⊗m + a⊗m'
    [a,a]⊗n = a⊗P(n)
    [a,b]⊗n = [b,a]⊗T(n)          (T = HP - 1)
    [a,b]⊗n linear in a, b and n.

Specializations: ``Z_GAMMA`` gives Whitehead's universal quadratic functor,
``Z_LAMBDA`` the exterior square.

For free A of rank s the relations force the decomposition

    Z^s ⊗q M = (sum of s copies of Me) + (sum of Mee over pairs i<j)

and the expansion rules below push arbitrary integer matrices through it.
In particular scaling one generator expands as

    (c·a)⊗m = c(a⊗m) + binom(c,2)·(a⊗PH(m))

which follows from the addition relation by induction (and holds for
negative c with binom(c,2) = c(c-1)/2). A general group is handled by the
reflexive-coequalizer scheme: present A by invariant factors, induce the
two maps on free quadratic tensors, and take the cokernel of their
difference. ``brute_force_quad_tensor`` is the independent oracle: it
instantiates every relation over all group elements and canonicalizes the
resulting (large, sparse) presentation.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ._record import field, record
from .errors import BoundExceeded, MalformedStructureMap
from .fgab import (
    FgAbGroup,
    GroupHom,
    Presentation,
    TRIVIAL,
    Z,
    canonicalize_full,
    cyclic,
    group_from_json,
    multiplication_by,
)
from .intlinalg import IntMatrix, cokernel_invariants_sparse


@record
class QuadraticModule:
    """(Me, Mee, H, P) with PHP = 2P and HPH = 2H, validated on construction."""

    me: FgAbGroup
    mee: FgAbGroup
    h: GroupHom
    p: GroupHom

    def __post_init__(self):
        if self.h.source != self.me or self.h.target != self.mee:
            raise ValueError("H must map Me to Mee")
        if self.p.source != self.mee or self.p.target != self.me:
            raise ValueError("P must map Mee to Me")
        two_p = multiplication_by(2, self.me) @ self.p
        two_h = multiplication_by(2, self.mee) @ self.h
        if self.p @ self.h @ self.p != two_p or self.h @ self.p @ self.h != two_h:
            raise ValueError("quadratic module axioms PHP = 2P, HPH = 2H violated")

    def involution(self) -> GroupHom:
        """T = HP - 1 on Mee; satisfies T² = 1, PT = P, TH = H."""
        t = GroupHom(self.mee, self.mee,
                     (self.h @ self.p).matrix - IntMatrix.identity(self.mee.dim))
        assert (t @ t).is_identity()
        assert self.p @ t == self.p
        assert t @ self.h == self.h
        return t

    def __str__(self) -> str:
        return f"({self.me} -H-> {self.mee} -P-> {self.me})"


def _qm(me: FgAbGroup, mee: FgAbGroup, h_cols, p_cols) -> QuadraticModule:
    return QuadraticModule(
        me, mee,
        GroupHom.from_columns(me, mee, h_cols),
        GroupHom.from_columns(mee, me, p_cols),
    )


#: Whitehead's quadratic functor: (Z -1-> Z -2-> Z); A ⊗q Z_GAMMA = Gamma(A).
Z_GAMMA = _qm(Z, Z, [(1,)], [(2,)])
#: Exterior square: (0 -> Z -> 0); A ⊗q Z_LAMBDA = Λ²(A).
Z_LAMBDA = _qm(TRIVIAL, Z, [], [()])
#: pi_3{S^2}: Hopf invariant and Whitehead square on the 2-sphere.
PI3_S2 = Z_GAMMA
#: pi_5{S^3} = (Z/2 -0-> Z -0-> Z/2).
PI5_S3 = _qm(cyclic(2, "eta2"), Z, [(0,)], [(0,)])
#: Q_2{S^3}, the quadratic module of indecomposables in the metastable n=3 case.
Q2_S3 = Z_LAMBDA

BUILTIN_QUADRATIC_MODULES = {
    "Z_Gamma": Z_GAMMA,
    "Z_Lambda": Z_LAMBDA,
    "pi3S2": PI3_S2,
    "pi5S3": PI5_S3,
    "Q2S3": Q2_S3,
}


def _binom2(c: int) -> int:
    return c * (c - 1) // 2


@record
class FreeQuadTensor:
    """Z^s ⊗q M in block form, with the expansion rules for map induction.

    Basis order: e-blocks (i, p) for i < s and p over Me generators, then
    ee-blocks (i, j, q) for i < j lexicographically and q over Mee
    generators. Each basis coordinate carries the torsion of its Me/Mee
    generator; the whole thing is a presented group, not a canonical one.
    """

    s: int
    module: QuadraticModule

    @property
    def e_count(self) -> int:
        return self.s * self.module.me.dim

    @property
    def size(self) -> int:
        ge = self.module.me.dim
        gee = self.module.mee.dim
        return self.s * ge + (self.s * (self.s - 1) // 2) * gee

    def e_index(self, i: int, p: int) -> int:
        return i * self.module.me.dim + p

    def ee_index(self, i: int, j: int, q: int) -> int:
        # pairs (i, j), i < j, in lexicographic order
        assert i < j
        pair_pos = i * self.s - i * (i + 1) // 2 + (j - i - 1)
        return self.e_count + pair_pos * self.module.mee.dim + q

    def orders(self) -> list:
        me, mee = self.module.me, self.module.mee
        out = []
        for _ in range(self.s):
            out.extend(me.coord_order(p) for p in range(me.dim))
        for _ in range(self.s * (self.s - 1) // 2):
            out.extend(mee.coord_order(q) for q in range(mee.dim))
        return out

    # -- expansion rules -------------------------------------------------

    def expand_e(self, c: Sequence[int], m_vec: Sequence[int]) -> list:
        """(sum_k c_k e_k) ⊗ m as a basis vector; m given by Me coordinates."""
        me, mee = self.module.me, self.module.mee
        h, p_map = self.module.h, self.module.p
        out = [0] * self.size
        for p, mu in enumerate(m_vec):
            if not mu:
                continue
            h_m = h.apply([1 if r == p else 0 for r in range(me.dim)])
            ph_m = p_map.apply(h_m)
            for k, ck in enumerate(c):
                if not ck:
                    continue
                out[self.e_index(k, p)] += mu * ck
                b = _binom2(ck)
                if b:
                    for r, v in enumerate(ph_m):
                        if v:
                            out[self.e_index(k, r)] += mu * b * v
            for k in range(self.s):
                if not c[k]:
                    continue
                for l in range(k + 1, self.s):
                    m2 = c[k] * c[l]
                    if not m2:
                        continue
                    for q, v in enumerate(h_m):
                        if v:
                            out[self.ee_index(k, l, q)] += mu * m2 * v
        return out

    def expand_ee(self, c: Sequence[int], f: Sequence[int], n_vec: Sequence[int]) -> list:
        """[sum c_k e_k, sum f_l e_l] ⊗ n as a basis vector."""
        mee = self.module.mee
        t = self.module.involution()
        p_map = self.module.p
        out = [0] * self.size
        for q, nu in enumerate(n_vec):
            if not nu:
                continue
            unit_q = [1 if r == q else 0 for r in range(mee.dim)]
            t_n = t.apply(unit_q)
            p_n = p_map.apply(unit_q)
            for k, ck in enumerate(c):
                if not ck:
                    continue
                for l, fl in enumerate(f):
                    m2 = ck * fl
                    if not m2:
                        continue
                    if k < l:
                        out[self.ee_index(k, l, q)] += nu * m2
                    elif k > l:
                        for q2, v in enumerate(t_n):
                            if v:
                                out[self.ee_index(l, k, q2)] += nu * m2 * v
                    else:
                        for r, v in enumerate(p_n):
                            if v:
                                out[self.e_index(k, r)] += nu * m2 * v
        return out

    def induced_matrix(self, phi: IntMatrix, target: "FreeQuadTensor") -> IntMatrix:
        """Matrix of the induced map into ``target`` along phi: Z^s -> Z^s'."""
        if phi.cols != self.s or phi.rows != target.s:
            raise ValueError("shape mismatch in induced map")
        me, mee = self.module.me, self.module.mee
        cols = []
        for i in range(self.s):
            ci = phi.col(i)
            for p in range(me.dim):
                cols.append(target.expand_e(ci, [1 if r == p else 0 for r in range(me.dim)]))
        for i in range(self.s):
            for j in range(i + 1, self.s):
                ci, cj = phi.col(i), phi.col(j)
                for q in range(mee.dim):
                    cols.append(target.expand_ee(ci, cj, [1 if r == q else 0 for r in range(mee.dim)]))
        return IntMatrix.from_columns(cols, rows=target.size)


@record
class QuadTensorResult:
    """A ⊗q M in canonical form, plus where the natural generators landed."""

    left: FgAbGroup
    module: QuadraticModule
    group: FgAbGroup
    e_gens: tuple    # (i, p, label, element)
    ee_gens: tuple   # (i, j, q, label, element)
    _fqt: FreeQuadTensor = field(compare=False, repr=False)
    _canon: object = field(compare=False, repr=False)

    def natural_generators(self) -> list:
        return [(label, elem) for (_, _, label, elem) in self.e_gens] + \
               [(label, elem) for (_, _, _, label, elem) in self.ee_gens]

    def relabel(self, e_label: Callable, ee_label: Callable) -> "QuadTensorResult":
        la = self.left.labels()
        e2 = tuple((i, p, e_label(la[i], p), elem) for (i, p, _, elem) in self.e_gens)
        ee2 = tuple((i, j, q, ee_label(la[i], la[j], q), elem)
                    for (i, j, q, _, elem) in self.ee_gens)
        return QuadTensorResult(self.left, self.module, self.group, e2, ee2,
                                self._fqt, self._canon)


def quad_tensor(a: FgAbGroup, m: QuadraticModule) -> QuadTensorResult:
    """A ⊗q M via the reflexive-coequalizer presentation.

    >>> str(quad_tensor(cyclic(2), Z_GAMMA).group)
    'Z/4'
    >>> str(quad_tensor(cyclic(3), Z_LAMBDA).group)
    '0'
    """
    t = len(a.torsion)
    s = a.dim
    tgt = FreeQuadTensor(s, m)
    src = FreeQuadTensor(t + s, m)
    # (f,1) and (0,1): R + F -> F for the canonical presentation R -f-> F of A.
    cols1 = []
    cols0 = []
    for i in range(t):
        cols1.append([a.torsion[i] if r == i else 0 for r in range(s)])
        cols0.append([0] * s)
    for j in range(s):
        unit = [1 if r == j else 0 for r in range(s)]
        cols1.append(unit)
        cols0.append(unit)
    phi1 = IntMatrix.from_columns(cols1, rows=s)
    phi0 = IntMatrix.from_columns(cols0, rows=s)
    delta = src.induced_matrix(phi1, tgt) - src.induced_matrix(phi0, tgt)

    rows = []
    for pos, d in enumerate(tgt.orders()):
        if d:
            rows.append([d if r == pos else 0 for r in range(tgt.size)])
    for col in range(delta.cols):
        rows.append(list(delta.col(col)))
    c = canonicalize_full(Presentation(tgt.size, IntMatrix.from_rows(rows, cols=tgt.size)))

    la = a.labels()
    lme = m.me.labels() if not m.me.is_trivial else ()
    lmee = m.mee.labels() if not m.mee.is_trivial else ()
    e_gens = []
    for i in range(s):
        for p in range(m.me.dim):
            pos = tgt.e_index(i, p)
            elem = c.group.reduce(c.quotient.matrix.col(pos))
            e_gens.append((i, p, f"{la[i]}⊗{lme[p]}", elem))
    ee_gens = []
    for i in range(s):
        for j in range(i + 1, s):
            for q in range(m.mee.dim):
                pos = tgt.ee_index(i, j, q)
                elem = c.group.reduce(c.quotient.matrix.col(pos))
                ee_gens.append((i, j, q, f"[{la[i]},{la[j]}]⊗{lmee[q]}", elem))
    return QuadTensorResult(a, m, c.group, tuple(e_gens), tuple(ee_gens), tgt, c)


def quad_tensor_induced(f: GroupHom, m: QuadraticModule,
                        source: Optional[QuadTensorResult] = None,
                        target: Optional[QuadTensorResult] = None) -> GroupHom:
    """The induced map f ⊗q M between quadratic tensor products.

    One product, target quotient · (f on the free level) · source section.
    The free-level map is computed from the integer matrix of f; any two
    integer lifts differ by relations and give the same induced map on the
    canonical quotients.
    """
    src = source if source is not None else quad_tensor(f.source, m)
    tgt = target if target is not None else quad_tensor(f.target, m)
    on_free = src._fqt.induced_matrix(f.matrix, tgt._fqt)
    return GroupHom(src.group, tgt.group, tgt._canon.quotient.matrix * on_free * src._canon.section)


def whitehead_gamma(a: FgAbGroup) -> QuadTensorResult:
    """Whitehead's Γ(A) = A ⊗q Z_GAMMA, with γ(a)/[a,b] generator labels.

    >>> str(whitehead_gamma(cyclic(2)).group)
    'Z/4'
    >>> str(whitehead_gamma(Z).group)
    'Z'
    """
    res = quad_tensor(a, Z_GAMMA)
    if a.dim == 1:
        return res.relabel(lambda la, p: "γ", lambda la, lb, q: f"[{la},{lb}]")
    return res.relabel(lambda la, p: f"γ({la})", lambda la, lb, q: f"[{la},{lb}]")


def exterior_square(a: FgAbGroup) -> QuadTensorResult:
    """Λ²(A) = A ⊗q Z_LAMBDA with wedge labels.

    >>> str(exterior_square(FgAbGroup(3, ())).group)
    'Z^3'
    >>> str(exterior_square(cyclic(5)).group)
    '0'
    """
    res = quad_tensor(a, Z_LAMBDA)
    return res.relabel(lambda la, p: "", lambda la, lb, q: f"{la}∧{lb}")


def brute_force_quad_tensor(a: FgAbGroup, m: QuadraticModule,
                            max_symbols: int = 8192) -> FgAbGroup:
    """Independent oracle for A ⊗q M on finite groups.

    One generator per (element, Me-generator) and per (ordered element pair,
    Mee-generator); all five relation families instantiated over all
    elements; the presentation is then canonicalized. Quadratic in |A| many
    symbols and cubic in |A| many relations, so keep |A| small.

    >>> str(brute_force_quad_tensor(cyclic(2), Z_GAMMA))
    'Z/4'
    """
    if a.rank > 0:
        raise BoundExceeded("brute force requires a finite group")
    elems = list(a.elements())
    n = len(elems)
    ge, gee = m.me.dim, m.mee.dim
    n_sym = n * ge + n * n * gee
    if n_sym > max_symbols:
        raise BoundExceeded(f"{n_sym} symbols exceeds the bound {max_symbols}")

    idx_of = {e: i for i, e in enumerate(elems)}
    add = [[idx_of[a.add(x, y)] for y in elems] for x in elems]

    def e_sym(ai: int, p: int) -> int:
        return ai * ge + p

    def ee_sym(ai: int, bi: int, q: int) -> int:
        return n * ge + (ai * n + bi) * gee + q

    h, p_map = m.h, m.p
    t_map = m.involution()
    h_gen = [h.apply([1 if r == p else 0 for r in range(ge)]) for p in range(ge)]
    p_gen = [p_map.apply([1 if r == q else 0 for r in range(gee)]) for q in range(gee)]
    t_gen = [t_map.apply([1 if r == q else 0 for r in range(gee)]) for q in range(gee)]

    rows = []

    def bump(row, key, v):
        if v:
            row[key] = row.get(key, 0) + v

    # (a+b)⊗m = a⊗m + b⊗m + [a,b]⊗H(m)
    for ai in range(n):
        for bi in range(n):
            for p in range(ge):
                row: dict = {}
                bump(row, e_sym(add[ai][bi], p), 1)
                bump(row, e_sym(ai, p), -1)
                bump(row, e_sym(bi, p), -1)
                for q, v in enumerate(h_gen[p]):
                    bump(row, ee_sym(ai, bi, q), -v)
                rows.append(row)
    # linearity of a⊗m in m: torsion of the Me generators
    for ai in range(n):
        for p in range(ge):
            d = m.me.coord_order(p)
            if d:
                rows.append({e_sym(ai, p): d})
    # [a,a]⊗n = a⊗P(n)
    for ai in range(n):
        for q in range(gee):
            row = {ee_sym(ai, ai, q): 1}
            for p, v in enumerate(p_gen[q]):
                bump(row, e_sym(ai, p), -v)
            rows.append(row)
    # [a,b]⊗n = [b,a]⊗T(n)
    for ai in range(n):
        for bi in range(n):
            for q in range(gee):
                row = {ee_sym(ai, bi, q): 1}
                for q2, v in enumerate(t_gen[q]):
                    bump(row, ee_sym(bi, ai, q2), -v)
                rows.append(row)
    # bilinearity of [a,b]⊗n in a and in b, and torsion in n
    for ai in range(n):
        for bi in range(n):
            for ci in range(n):
                for q in range(gee):
                    row = {}
                    bump(row, ee_sym(add[ai][bi], ci, q), 1)
                    bump(row, ee_sym(ai, ci, q), -1)
                    bump(row, ee_sym(bi, ci, q), -1)
                    rows.append(row)
                    row = {}
                    bump(row, ee_sym(ai, add[bi][ci], q), 1)
                    bump(row, ee_sym(ai, bi, q), -1)
                    bump(row, ee_sym(ai, ci, q), -1)
                    rows.append(row)
    for ai in range(n):
        for bi in range(n):
            for q in range(gee):
                d = m.mee.coord_order(q)
                if d:
                    rows.append({ee_sym(ai, bi, q): d})

    torsion, rank = cokernel_invariants_sparse(n_sym, rows)
    return FgAbGroup(rank, tuple(torsion))


def quadratic_module_to_json(m: QuadraticModule) -> dict:
    return {
        "Me": {"rank": m.me.rank, "torsion": list(m.me.torsion)},
        "Mee": {"rank": m.mee.rank, "torsion": list(m.mee.torsion)},
        "H": m.h.matrix.to_lists(),
        "P": m.p.matrix.to_lists(),
    }


def quadratic_module_from_json(doc: dict) -> QuadraticModule:
    """The inverse of ``quadratic_module_to_json``; raises MalformedStructureMap."""
    try:
        me, mee, h, p = group_from_json(doc["Me"]), group_from_json(doc["Mee"]), doc["H"], doc["P"]
    except KeyError as exc:
        raise MalformedStructureMap(f"quadratic module: missing {exc}")
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedStructureMap(f"quadratic module: Me and Mee must be groups: {exc}")
    try:
        h = GroupHom(me, mee, IntMatrix.from_json(mee.dim, me.dim, h))
        p = GroupHom(mee, me, IntMatrix.from_json(me.dim, mee.dim, p))
        return QuadraticModule(me, mee, h, p)
    except ValueError as exc:
        raise MalformedStructureMap(f"quadratic module: {exc}")
