"""Reference checks, run outside the timed region.

None of them goes through the solver's congruence path (``hom_solve``,
``factor_through``, ``solve_linear``): the survey totals come from an
exhaustive recount over explicit cyclic decompositions, check certificates
are re-evaluated generator by generator, and Smith forms are checked by
randomized matrix identities plus SymPy's invariant factors.
"""

from __future__ import annotations

import itertools
import json
from math import gcd, prod

# -- survey: exhaustive recount ------------------------------------------------


def _prime_power_type(orders):
    """Isomorphism type of a sum of cyclic groups: (rank, sorted prime powers)."""
    rank, powers = 0, []
    for d in orders:
        if d == 0:
            rank += 1
            continue
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                powers.append(q)
            p += 1
    return rank, tuple(sorted(powers))


def _homs(gen_orders, t):
    """All maps from (+)_i Z/gen_orders[i] (0 = Z) to Z/t, as image tuples."""
    choices = [[v for v in range(t) if (d * v) % t == 0] for d in gen_orders]
    return itertools.product(*choices)


def survey_recount(stem_orders, gammas, em_orders, max_order, max_summands, targets):
    """Status totals of the survey, recounted by brute force.

    ``stem_orders`` are the named summand orders of Q_k^S, ``gammas`` lists
    every admissible completion as one image tuple per named summand in
    (+)_j Z/em_orders[j], and ``targets`` are the cyclic target orders. For
    each A_n, each target and each eta in Hom(A_n (x) Q_k^S, target), eta
    factors through completion c iff it lies in {h o gamma_c}, with h ranging
    over all of Hom(A_n (x) HZ_{k+1}HZ, target).
    """
    seen = set()
    groups = []
    orders = [0] + list(range(2, max_order + 1))
    for size in range(1, max_summands + 1):
        for combo in itertools.combinations_with_replacement(orders, size):
            key = _prime_power_type(combo)
            if key not in seen:
                seen.add(key)
                groups.append(combo)
    totals = {}
    for a in groups:
        # A (x) Q: generators a_i (x) q_j of order gcd(a_i, q_j); same for A (x) HZ.
        src = [(i, j, gcd(ai, qj)) for i, ai in enumerate(a) for j, qj in enumerate(stem_orders)]
        mid = [(i, m, gcd(ai, em)) for i, ai in enumerate(a) for m, em in enumerate(em_orders)]
        for t in targets:
            factorable_sets = []
            for gamma in gammas:
                images = set()
                for h in _homs([d for _, _, d in mid], t):
                    hv = {(i, m): v for (i, m, _), v in zip(mid, h)}
                    # h(a_i (x) gamma(q_j)) = sum_m gamma(q_j)_m * h(a_i (x) e_m)
                    images.add(tuple(sum(gamma[j][m] * hv[(i, m)] for m in range(len(em_orders))) % t
                                     for i, j, _ in src))
                factorable_sets.append(images)
            for eta in _homs([d for _, _, d in src], t):
                ok = [eta in s for s in factorable_sets]
                status = ("realizable" if all(ok) else
                          "non-realizable" if not any(ok) else "undetermined")
                totals[status] = totals.get(status, 0) + 1
    return totals


def survey_reference(pialg, tables, targets):
    """Totals for the benchmark survey, from the default stem-3 tables."""
    k = 3
    entry = tables.q_stable_entry(k)
    stem_orders = [d for d, _ in entry.summands]
    em_orders = [2, 3]  # HZ_4HZ = Z/2 + Z/3, named summand by summand
    # Admissible images, read off the knowledge states directly.
    per_gen = []
    for d, name in entry.summands:
        know = tables.gamma[(k, name)]
        cands = []
        for v in itertools.product(*[range(e) for e in em_orders]):
            order = prod(e // gcd(e, x) for e, x in zip(em_orders, v))
            if d % order:
                continue
            if know.state == "nonzero" and order != know.order:
                continue
            if know.state == "unknown" and know.bound % order:
                continue
            if know.state == "zero" and order != 1:
                continue
            cands.append(v)
        per_gen.append(cands)
    gammas = list(itertools.product(*per_gen))
    return survey_recount(stem_orders, gammas, em_orders, 6, 2, targets)


# -- checks: certificates re-evaluated -------------------------------------------

EXIT_OF = {"realizable": 0, "non-realizable": 1, "undetermined": 2}
EXHAUSTIVE_CAP = 4096  # largest Hom set searched to confirm a non-factorization


def _reduce(group, vec):
    t = len(group.torsion)
    return tuple(x % group.torsion[i] if i < t else x for i, x in enumerate(vec))


def _apply(matrix, group, vec):
    return _reduce(group, [sum(a * x for a, x in zip(row, vec)) for row in matrix])


def _combine(group, coeffs, vecs, dim):
    out = [0] * dim
    for c, v in zip(coeffs, vecs):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return _reduce(group, out)


def _same_group(doc, g) -> bool:
    return doc["rank"] == g.rank and list(doc["torsion"]) == list(g.torsion)


class _StableContext:
    """gamma_tilde, its semantic generators and the eta columns of one problem."""

    def __init__(self, pialg, item):
        doc = item.doc
        self.tables = pialg.load_tables([item.overlay_path])
        self.n, self.k = doc["n"], doc["k"]
        self.a_n = pialg.FgAbGroup(doc["A_n"]["rank"], tuple(doc["A_n"]["torsion"]))
        self.a_nk = pialg.FgAbGroup(doc["A_nk"]["rank"], tuple(doc["A_nk"]["torsion"]))
        self.gt = pialg.gamma_tilde(self.n, self.k, self.a_n, self.tables)
        self.cols = [_reduce(self.a_nk, c) for c in item.cols]
        self.entry = self.tables.q_stable_entry(self.k)
        self.cod = self.tables.em(self.k + 1)
        self._pialg = pialg

    def express(self, x):
        """Coefficients over the semantic generators summing to x (brute force)."""
        gens = [g.element for g in self.gt.generators]
        orders = [g.order for g in self.gt.generators]
        if any(o == 0 for o in orders):
            raise ValueError("infinite semantic generator")
        x = _reduce(self.gt.group, x)
        for c in itertools.product(*[range(o) for o in orders]):
            if _combine(self.gt.group, c, gens, self.gt.group.dim) == x:
                return c
        raise ValueError(f"{x} is not in the span of the semantic generators")

    def eta_of(self, coeffs):
        return _combine(self.a_nk, coeffs, self.cols, self.a_nk.dim)

    def gamma_images(self, assignment):
        """gamma_c(a_i (x) q) = a_i (x) gamma_c(q), one per semantic generator."""
        tp = self._pialg.tensor(self.a_n, self.cod)
        image = dict((name, tuple(v)) for name, v in assignment)
        out = []
        for i in range(self.a_n.dim):
            unit = [1 if r == i else 0 for r in range(self.a_n.dim)]
            for name in self.entry.names:
                out.append(tp.pure(unit, image[name]))
        return tp, out


def _witness_ok(ctx, witness, tp, gamma_imgs) -> bool:
    if not (_same_group(witness["source"], tp.group) and _same_group(witness["target"], ctx.a_nk)):
        return False
    m = witness["matrix"]
    return all(_apply(m, ctx.a_nk, g) == c for g, c in zip(gamma_imgs, ctx.cols))


def _no_factorization(ctx, tp, gamma_imgs) -> bool:
    """True when no h: A (x) cod -> A_nk has h o gamma_c = eta; None if too big."""
    mid, tgt = tp.group, ctx.a_nk
    if tgt.rank or mid.rank:
        return None
    choices = [[v for v in itertools.product(*[range(t) for t in tgt.torsion])
                if all((mid.coord_order(j) * x) % t == 0 for x, t in zip(v, tgt.torsion))]
               for j in range(mid.dim)]
    if prod(len(c) for c in choices) > EXHAUSTIVE_CAP:
        return None
    for cols in itertools.product(*choices):
        m = [[c[i] for c in cols] for i in range(tgt.dim)]
        if all(_apply(m, tgt, g) == c for g, c in zip(gamma_imgs, ctx.cols)):
            return False
    return True


def _forced_dead(ctx):
    """Elements of gamma_tilde killed by every admissible gamma (certificate mode)."""
    gens = []
    for d, name in ctx.entry.summands:
        know = ctx.tables.gamma.get((ctx.k, name))
        if know is None:
            continue
        mult = {"zero": 1, "nonzero": know.order, "unknown": know.bound}.get(know.state)
        if mult is None:
            mult = ctx.cod.element_order(know.value) or 1
        q = ctx.entry.group.smul(mult, ctx.entry.element_of(name))
        for i in range(ctx.a_n.dim):
            unit = [1 if r == i else 0 for r in range(ctx.a_n.dim)]
            gens.append(ctx.gt._tensor.pure(unit, q))
    span = {ctx.gt.group.zero()}
    frontier = list(span)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _reduce(ctx.gt.group, [a + b for a, b in zip(x, g)])
                if y not in span:
                    span.add(y)
                    nxt.append(y)
        frontier = nxt
    return span


def _check_stable_report(pialg, item, result) -> str:
    ctx = _StableContext(pialg, item)
    status = result["status"]
    comps = result.get("completions", [])
    eta_zero = all(not any(c) for c in ctx.cols)
    if eta_zero:
        return "" if status == "realizable" else "zero eta not realizable"
    rebuilt = [(c, *ctx.gamma_images(c["assignment"])) for c in comps]
    for c, tp, imgs in rebuilt:
        if c["factorable"]:
            if c["witness"] is None or not _witness_ok(ctx, c["witness"], tp, imgs):
                return "completion witness fails h o gamma_c == eta"
        elif _no_factorization(ctx, tp, imgs) is False:
            return "completion reported non-factorable but a factorization exists"
    factorable = [c["factorable"] for c in comps]
    if status == "realizable":
        if not comps or not all(factorable):
            return "realizable needs every completion to factor"
        if result.get("witness") != comps[0]["witness"]:
            return "top-level witness differs from the first completion's"
    elif status == "non-realizable":
        if any(factorable):
            return "non-realizable with a factorable completion"
        elem = (result.get("obstruction") or {}).get("element")
        if elem is not None:
            coeffs = ctx.express(elem)
            if not any(ctx.eta_of(coeffs)):
                return "obstruction element has eta(x) == 0"
            if comps:
                for _, tp, imgs in rebuilt:
                    if any(_combine(tp.group, coeffs, imgs, tp.group.dim)):
                        return "obstruction element survives a completion"
            elif _reduce(ctx.gt.group, elem) not in _forced_dead(ctx):
                return "obstruction element is not forced dead"
        elif not comps:
            return "certificate-mode non-realizable without an element"
    elif status == "undetermined":
        if comps and (all(factorable) or not any(factorable)):
            return "undetermined needs mixed completions"
        if not comps and not result.get("blocking"):
            return "undetermined without blockers"
    return ""


def _three_stage_expected(pialg, doc) -> str:
    """Status from the composite obstruction on every two-torsion element."""
    g = [pialg.FgAbGroup(doc[key]["rank"], tuple(doc[key]["torsion"]))
         for key in ("A_n", "A_n1", "A_n2")]
    tp1, _ = pialg.mod_reduction(g[0], 2)
    tp2, _ = pialg.mod_reduction(g[1], 2)
    halves = [[0, t // 2] if t % 2 == 0 else [0] for t in g[0].torsion] + [[0]] * g[0].rank
    for y in itertools.product(*halves):
        z = _apply(doc["eta1"], g[1], tp1.pure(y, (1,)))
        w = _apply(doc["eta2"], g[2], tp2.pure(z, (1,)))
        if any(w):
            return "non-realizable"
    return "realizable"


def check_item(pialg, item, code, out, err) -> str:
    """'' when the outcome of one check is right, else the reason it is not."""
    if item.kind.startswith("malformed"):
        return "" if code >= 3 else f"malformed problem exited {code}, expected >= 3"
    if item.kind == "metastable":
        if any(any(c) for c in item.cols):
            ok = code == 3 and "unstable gamma data" in err
            return "" if ok else f"metastable eta != 0 exited {code}, expected 3"
        if code != 0:
            return f"metastable eta == 0 exited {code}, expected 0"
    if code not in (0, 1, 2):
        return f"exit {code}: {err.strip()[:200]}"
    result = json.loads(out)["results"][0]
    if EXIT_OF[result["status"]] != code:
        return f"exit {code} does not match status {result['status']}"
    if item.kind in ("k1", "k2", "metastable"):
        return "" if result["status"] == "realizable" else f"{item.kind} must be realizable"
    if item.kind == "three":
        want = _three_stage_expected(pialg, item.doc)
        return "" if result["status"] == want else f"three-stage status {result['status']} != {want}"
    return _check_stable_report(pialg, item, result)


# -- snf ----------------------------------------------------------------------

SYMPY_MAX_DIM = 28  # SymPy's own SNF takes minutes on some dense 40x40 inputs


def _freivalds(rng, left, right, rows, cols, trials=2) -> bool:
    """Probabilistic test of left(x) == right(x) for x in Z^cols."""
    for _ in range(trials):
        x = [rng.getrandbits(48) for _ in range(cols)]
        if left(x) != right(x):
            return False
    return True


def _mv(data, x):
    return [sum(a * b for a, b in zip(row, x) if a) for row in data]


def snf_item(rows, cols, data, res, rng) -> str:
    """U M V = D, U U^-1 = I, V V^-1 = I, and D a non-negative divisibility chain."""
    u, d, v = res.u.data, res.d.data, res.v.data
    n = min(rows, cols)
    diag = [d[i][i] for i in range(n)]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "D is not diagonal"
    if any(x < 0 for x in diag):
        return "negative invariant factor"
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b):
            return "D is not a divisibility chain"
    if not _freivalds(rng, lambda x: _mv(u, _mv(data, _mv(v, x))),
                      lambda x: [diag[i] * x[i] if i < n else 0 for i in range(rows)],
                      rows, cols):
        return "U M V != D"
    if not _freivalds(rng, lambda x: _mv(u, _mv(res.u_inv.data, x)), lambda x: x, rows, rows):
        return "U is not invertible over Z"
    if not _freivalds(rng, lambda x: _mv(v, _mv(res.v_inv.data, x)), lambda x: x, cols, cols):
        return "V is not invertible over Z"
    return ""


def sympy_invariant_factors():
    """SymPy's invariant_factors over ZZ, or None when SymPy is not installed."""
    try:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return None
    return lambda data: [int(x) for x in invariant_factors(Matrix(data), domain=ZZ)]


def snf_sympy(factors, rows, cols, data, diag) -> str:
    if max(rows, cols) > SYMPY_MAX_DIM:
        return ""
    theirs = [x for x in factors(data) if x != 0]
    ours = [x for x in diag if x != 0]
    return "" if theirs == ours else f"invariant factors differ from SymPy: {ours} vs {theirs}"
