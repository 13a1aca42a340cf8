"""Shared test utilities: group enumeration and independent oracles.

The oracles here deliberately avoid the code paths they check: tensor/tor
get a gcd-formula route built on raw prime factorization plus an
element-level presentation route, and factorization questions get settled
by exhaustive search over all homomorphisms.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from pialg import FgAbGroup, GroupHom, from_cyclic_orders, hom_group
from pialg.errors import BoundExceeded
from pialg.intlinalg import cokernel_invariants_sparse
from pialg.realizability import (SurveyReport, SurveyRow, TwoStagePiAlgebra, _gamma_tilde,
                                 check_stable)


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
                     include_free=True, max_checks=20000, check=check_stable):
    """``survey_stem``'s report, each case decided by its own ``check`` call.

    The plain path the survey's verdict-free tally must equal: the same
    rows, in the same order, and one full verdict per eta in ``hom_group``
    order. Pass a wrapper of ``check_stable`` as ``check`` to see each
    (problem, verdict).
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
