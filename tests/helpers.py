"""Shared test utilities: group enumeration and independent oracles.

The oracles here deliberately avoid the code paths they check: tensor/tor
get a gcd-formula route built on raw prime factorization plus an
element-level presentation route, and factorization questions get settled
by exhaustive search over all homomorphisms.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import gcd, prod

from pialg import FgAbGroup, GroupHom, IntMatrix, from_cyclic_orders, hom_group
from pialg.errors import BoundExceeded
from pialg.fgab import (Congruences, Factorizer, Presentation, direct_sum, factor_through,
                        free_group)
from pialg.intlinalg import (SnfResult, _identity_lists, _is_diagonal, _xgcd,
                             cokernel_invariants_sparse)
from pialg.errors import MalformedStructureMap
from pialg.pi_functors import gamma_tilde
from pialg.quadratic import FreeQuadTensor
from pialg.realizability import (Status, SurveyReport, SurveyRow, TwoStagePiAlgebra,
                                 _gamma_tilde, _gammas, check)


def all_abelian_group_orders_up_to(n: int):
    """Elementary-divisor lists for every abelian group of order <= n."""
    def partitions(m):
        if m == 0:
            yield []
            return
        for first in range(m, 0, -1):
            for rest in partitions(m - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    def factor(o):
        f = {}
        p = 2
        while p * p <= o:
            while o % p == 0:
                f[p] = f.get(p, 0) + 1
                o //= p
            p += 1
        if o > 1:
            f[o] = f.get(o, 0) + 1
        return f

    out = [[]]
    for order in range(2, n + 1):
        per_prime = []
        for p, e in sorted(factor(order).items()):
            per_prime.append([[p ** part for part in pt] for pt in partitions(e)])
        for combo in itertools.product(*per_prime):
            out.append([q for block in combo for q in block])
    return out


def invariant_factors_by_primes(orders):
    """Invariant-factor chain of a sum of cyclic groups, via factorization only."""
    by_prime = {}
    rank = 0
    for d in orders:
        if d == 0:
            rank += 1
            continue
        dd = d
        p = 2
        while p * p <= dd:
            e = 0
            while dd % p == 0:
                dd //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(p ** e)
            p += 1
        if dd > 1:
            by_prime.setdefault(dd, []).append(dd)
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    height = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for level in range(height):
        chain.append(prod(v[level] for v in by_prime.values() if len(v) > level))
    chain.reverse()
    return rank, tuple(c for c in chain if c > 1)


def gcd_formula_tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    orders = [gcd(d, e) for d in a.torsion for e in b.torsion]
    orders += list(a.torsion) * b.rank + list(b.torsion) * a.rank
    orders += [0] * (a.rank * b.rank)
    rank, torsion = invariant_factors_by_primes([o for o in orders if o != 1])
    return FgAbGroup(rank, torsion)


def gcd_formula_tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    orders = [gcd(d, e) for d in a.torsion for e in b.torsion]
    rank, torsion = invariant_factors_by_primes([o for o in orders if o != 1])
    return FgAbGroup(rank, torsion)


def elementwise_tensor_presentation(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """A ⊗ B presented on (element of A, generator of B) symbols.

    Bilinearity in the first slot is instantiated over all element pairs;
    linearity in the second slot reduces to the torsion of B's generators.
    Finite A only.
    """
    elems = list(a.elements())
    idx = {e: i for i, e in enumerate(elems)}
    nb = b.dim
    n_sym = len(elems) * nb

    def sym(ai, j):
        return ai * nb + j

    rows = []
    for x in elems:
        for y in elems:
            s = idx[a.add(x, y)]
            for j in range(nb):
                row = {}
                for key, v in ((sym(s, j), 1), (sym(idx[x], j), -1), (sym(idx[y], j), -1)):
                    row[key] = row.get(key, 0) + v
                rows.append(row)
    for ai in range(len(elems)):
        for j in range(nb):
            d = b.coord_order(j)
            if d:
                rows.append({sym(ai, j): d})
    torsion, rank = cokernel_invariants_sparse(n_sym, rows)
    return FgAbGroup(rank, tuple(torsion))


def exhaustive_factor_exists(f: GroupHom, g: GroupHom):
    """Search all h in Hom(B, C) for h ∘ g = f; None when Hom is infinite."""
    homs = hom_group(g.target, f.target)
    if not homs.is_finite:
        return None
    for h in homs:
        if h @ g == f:
            return h
    return False


def exhaustive_retraction(f: GroupHom):
    homs = hom_group(f.target, f.source)
    if not homs.is_finite:
        return None
    ident = GroupHom.identity(f.source)
    for r in homs:
        if r @ f == ident:
            return r
    return False


def survey_by_checks(k, tables, max_cyclic_order, max_summands, targets,
                     include_free=True, max_checks=20000, check=check):
    """``survey_stem``'s report, each case decided by its own ``check`` call.

    The plain path the survey's verdict-free tally must equal: the same
    rows, in the same order, and one full verdict per eta in ``hom_group``
    order. Pass a wrapper of ``check`` or ``check_stable`` as ``check`` to
    see each (problem, verdict).
    """
    n = k + 2
    orders = ([0] if include_free else []) + list(range(2, max_cyclic_order + 1))
    groups = []
    for size in range(1, max_summands + 1):
        for combo in itertools.combinations_with_replacement(orders, size):
            g = from_cyclic_orders(list(combo))
            if g not in groups:
                groups.append(g)
    rows = []
    totals = {}
    budget = 0
    for a_n in groups:
        gt = _gamma_tilde(tables, n, k, a_n)
        for target in targets:
            homs = hom_group(gt.group, target)
            if not homs.is_finite:
                continue
            budget += homs.group.order()
            if budget > max_checks:
                raise BoundExceeded(
                    f"survey needs more than {max_checks} checks; tighten the bounds")
            counts = {}
            for eta in homs:
                v = check(TwoStagePiAlgebra(n, k, a_n, target, eta), tables)
                counts[v.status.value] = counts.get(v.status.value, 0) + 1
                totals[v.status.value] = totals.get(v.status.value, 0) + 1
            rows.append(SurveyRow(a_n, target, tuple(sorted(counts.items()))))
    return SurveyReport(k, n, tuple(rows), tuple(sorted(totals.items())))


def forced_dead_elements(n: int, k: int, a_n: FgAbGroup, tables) -> list:
    """Generators of certificate mode's forced-dead subgroup of gamma_tilde, built plainly.

    x ⊗ m·q for each named generator q of stem k with m·q != 0, m from
    ``GammaKnowledge.kill_multiplier``, and each canonical generator x of
    A_n, in that order; from the tensor's pure elements, with no subgroup
    and no memo.
    """
    entry, cod = tables.q_stable_entry(k), tables.em(k + 1)
    tp, out = gamma_tilde(n, k, a_n, tables)._tensor, []
    for d, name in entry.summands:
        if (know := tables.gamma.get((k, name))) is not None:
            m = know.kill_multiplier(cod, d)
            mq = entry.group.reduce([m * c for c in entry.element_of(name)])
            if any(mq):
                out += [tp.pure([int(r == i) for r in range(a_n.dim)], mq)
                        for i in range(a_n.dim)]
    return out


def plain_status(pa: TwoStagePiAlgebra, tables) -> Status:
    """``check``'s status for a problem of stem 1 or 2 or of the stable range, per completion.

    The plain path the shared decider must equal: k = 1, k = 2 and a zero
    eta are realizable; with the stem and its codomain tabulated, eta is
    factored through every completion's gamma_c ⊗ A_n by ``factor_through``,
    equal maps included; otherwise eta is non-realizable exactly when it
    does not kill one of the ``forced_dead_elements``.
    """
    if pa.k <= 2 or pa.eta.is_zero():
        return Status.REALIZABLE
    entry, cod = tables.q_stable_entry(pa.k), tables.em(pa.k + 1)
    if entry.complete and cod is not None:
        factorable = [factor_through(pa.eta, g) is not None
                      for g in _gammas(tables, pa.n, pa.k, pa.a_n)]
        return (Status.REALIZABLE if all(factorable) else
                Status.UNDETERMINED if any(factorable) else Status.NON_REALIZABLE)
    dead = forced_dead_elements(pa.n, pa.k, pa.a_n, tables)
    return (Status.NON_REALIZABLE if any(any(pa.eta.apply(y)) for y in dead)
            else Status.UNDETERMINED)


def candidate_images_by_state(know, d, cod):
    """The images of a generator of order d that each gamma knowledge state admits.

    The plain path: one filter per state over the elements killed by d,
    without ``GammaKnowledge.kill_multiplier``.
    """
    elems = list(cod.elements_killed_by(d))
    if know is None:
        return elems
    if know.state == "known":
        v = cod.reduce(know.value)
        return [v] if v in elems else []
    if know.state == "zero":
        return [cod.zero()]
    if know.state == "nonzero":
        return [e for e in elems if cod.element_order(e) == know.order]
    # unknown with order bound
    return [e for e in elems if (know.bound % (cod.element_order(e) or 1)) == 0]


def random_group(rng, max_order=16, max_summands=2, allow_free=True):
    orders = []
    for _ in range(rng.randrange(1, max_summands + 1)):
        if allow_free and rng.random() < 0.25:
            orders.append(0)
        else:
            orders.append(rng.randrange(2, max_order + 1))
    return from_cyclic_orders(orders)


def random_hom(rng, a: FgAbGroup, b: FgAbGroup) -> GroupHom:
    cols = []
    for j in range(a.dim):
        d = a.coord_order(j)
        candidates = list(b.elements_killed_by(d)) if d else None
        if candidates is not None:
            cols.append(rng.choice(candidates))
        else:
            cols.append(b.reduce([rng.randrange(-4, 5) for _ in range(b.dim)]))
    return GroupHom.from_columns(a, b, cols)


# -- plain paths that optimized ones must equal -------------------------


def snf_plain(m):
    """``smith_normal_form`` with every row operation over the full row.

    The same Kannan-Bachem steps in the same order, with no span
    bookkeeping, and with each step mirrored on the inverses (held by
    columns for U⁻¹, by rows for V⁻¹) instead of deriving them: the
    reference the span-skipping kernel must equal in all five fields.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u, v_cols = _identity_lists(rows), _identity_lists(cols)
    ui, vi = [_identity_lists(rows)], [_identity_lists(cols)]
    sides = [([u], ui, cols), ([v_cols], vi, rows)]
    diagonal = _is_diagonal(a)
    while not diagonal:
        _hermite_plain(a, *sides[0])
        diagonal = _is_diagonal(a)
        if not diagonal:
            a = list(map(list, zip(*a)))
            sides.reverse()
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
            g, s, e = _xgcd(x, y)
            q, yg, xg = y * e // g, y // g, x // g
            _subtract_plain([u], ui, i, j, -1)
            _mix_plain(v_cols, i, j, s, e, yg, xg)
            _subtract_plain([u], ui, j, i, q)
            for t in vi:
                _mix_plain(t, i, j, xg, yg, e, s)
            d[i], d[j] = g, x * y // g
    return SnfResult(IntMatrix(rows, rows, u), IntMatrix.diagonal(d, rows, cols),
                     IntMatrix(cols, cols, list(zip(*v_cols))),
                     IntMatrix(rows, rows, list(zip(*ui[0]))), IntMatrix(cols, cols, vi[0]))


def snf_solve(s, rhs):
    """One integer solution x of ``m @ x == rhs`` for the ``m`` that ``s`` reduces, or None.

    ``m x = b`` becomes ``d z = u b`` with ``x = v z``: each coordinate of
    ``u b`` must be divisible by its diagonal entry (zero where the entry
    is zero). The dense full-reduction oracle for ``Congruences.solve``.
    """
    if len(rhs) != s.d.rows:
        raise ValueError("right-hand side length mismatch")
    c, diag = s.u.mul_vec(rhs), s.diagonal()
    if any(ci % d if d else ci for ci, d in zip(c, diag)) or any(c[len(diag):]):
        return None
    return s.v.mul_vec([ci // d if d else 0 for ci, d in zip(c, diag)]
                       + [0] * (s.d.cols - len(diag)))


def snf_kernel(s):
    """A basis of the integer kernel lattice of the ``m`` that ``s`` reduces, as columns."""
    n = min(s.d.rows, s.d.cols)
    free = [j for j in range(s.d.cols) if j >= n or s.d[j, j] == 0]
    return IntMatrix._of(s.d.cols, len(free),
                         tuple(tuple(r[j] for j in free) for r in s.v.data))


def _subtract_plain(rowwise, mirror, dst, src, q):
    for rows in rowwise:
        rd, rs = rows[dst], rows[src]
        for j in range(len(rd)):
            rd[j] -= q * rs[j]
    for rows in mirror:
        rd, rs = rows[src], rows[dst]
        for j in range(len(rd)):
            rd[j] += q * rs[j]


def _mix_plain(rows, i, k, p, q, r, s):
    ri, rk = rows[i], rows[k]
    for j in range(len(ri)):
        x, y = ri[j], rk[j]
        ri[j] = p * x + q * y
        rk[j] = s * y - r * x


def _hermite_plain(a, follow, mirror, ncols):
    rowwise = [a, *follow]
    pivot = [-1] * ncols
    pcols, prows = [], []
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
                    _subtract_plain(rowwise, mirror, i, k, x // p)
                    c += 1
                    continue
                g, s, e = _xgcd(p, x)
                xg, pg = x // g, p // g
                for rows in rowwise:
                    _mix_plain(rows, k, i, s, e, xg, pg)
                for rows in mirror:
                    _mix_plain(rows, k, i, pg, xg, e, s)
                pos = bisect_left(pcols, c)
            p = a[k][c]
            for k2 in prows[:pos]:
                q = a[k2][c] // p
                if q:
                    _subtract_plain(rowwise, mirror, k2, k, q)
            for j in range(pos + 1, len(pcols)):
                c2, k2 = pcols[j], prows[j]
                q = a[k][c2] // a[k2][c2]
                if q:
                    _subtract_plain(rowwise, mirror, k, k2, q)
            if k == i:
                break
            c += 1
    order = prows + zero
    if order != list(range(len(a))):
        for rows in rowwise + mirror:
            rows[:] = [rows[k] for k in order]


def factor_interleaved(through, target, images):
    """Some h with h(through(e_j)) = images[j], from one interleaved system, or None.

    ``Factorizer`` before it split the system by target coordinate: unknown
    i * nb + j is h's entry (i, j), and the rows are the congruences of each
    (source generator, target coordinate), then the well-definedness rows
    of each (torsion generator of through.target, target coordinate).
    """
    b, nb, nc = through.target, through.target.dim, target.dim

    def in_row(i, block):
        return [0] * (i * nb) + block + [0] * ((nc - 1 - i) * nb)

    rows, moduli = [], []
    for a in range(through.source.dim):
        col = list(through.matrix.col(a))
        for i in range(nc):
            rows.append(in_row(i, col))
            moduli.append(target.coord_order(i))
    for j in range(nb):
        d = b.coord_order(j)
        if d == 0:
            continue
        for i in range(nc):
            rows.append(in_row(i, [d if u == j else 0 for u in range(nb)]))
            moduli.append(target.coord_order(i))
    rhs = [x for a in range(through.source.dim) for x in target.reduce(images[a])]
    sol = Congruences(rows, moduli, nc * nb).solve(rhs + [0] * (len(rows) - len(rhs)))
    if sol is None:
        return None
    return GroupHom._of(b, target, [sol[i * nb:(i + 1) * nb] for i in range(nc)])


def completion_homs_by_solve(k, tables, completions):
    """Each completion's hom solved for: ``Factorizer`` on the named generators' map.

    The plain path ``admissible_gamma_completions`` read off the section instead:
    the h with h(named generator) = its image in ``completions``' assignment.
    """
    entry, cod = tables.q_stable_entry(k), tables.em(k + 1)
    named = GroupHom(free_group(len(entry.summands)), entry.group, entry._canon.quotient.matrix)
    solver = Factorizer(named, cod)
    return [solver.solve([image for _, image in c.assignment]) for c in completions]


def structure_map_by_solve(gt, columns, target):
    """``build_structure_map`` as one ``Factorizer`` solve over the semantic generators."""
    if len(columns) != len(gt.generators):
        raise MalformedStructureMap(
            f"expected {len(gt.generators)} columns ({', '.join(gt.labels())}), "
            f"got {len(columns)}")
    semantic = GroupHom.from_columns(free_group(len(gt.generators)), gt.group,
                                     [g.element for g in gt.generators])
    h = Factorizer(semantic, target).solve(list(columns))
    if h is None:
        raise MalformedStructureMap(
            "requested generator images do not define a homomorphism on "
            f"{gt.group} (generators {', '.join(gt.labels())})")
    return h


def stacked_by_injections(fs):
    """``stack_homs(fs)[0]`` as the validated sum of each injection times its map."""
    ds = direct_sum(*[f.target for f in fs])
    m = IntMatrix.zeros(ds.group.dim, fs[0].source.dim)
    for f, inj in zip(fs, ds.injections):
        m = m + (inj.matrix * f.matrix)
    return GroupHom(fs[0].source, ds.group, m)


def quad_tensor_presentation_with_zero_rows(a, m):
    """The presentation of A ⊗q M that ``quad_tensor`` canonicalized when it kept every
    column of delta, zero columns (those on the free block only) included."""
    t, s = len(a.torsion), a.dim
    tgt, src = FreeQuadTensor(s, m), FreeQuadTensor(t + s, m)
    units = IntMatrix.identity(s).columns()
    phi1 = IntMatrix.from_columns(IntMatrix.diagonal(a.torsion, s, t).columns() + units, rows=s)
    phi0 = IntMatrix.from_columns([(0,) * s] * t + units, rows=s)
    delta = src.induced_matrix(phi1, tgt) - src.induced_matrix(phi0, tgt)
    orders = tgt.orders()
    rows = [row for row, d in zip(IntMatrix.diagonal(orders).data, orders) if d]
    return Presentation(tgt.size, IntMatrix.from_rows(rows + delta.columns(), cols=tgt.size))
