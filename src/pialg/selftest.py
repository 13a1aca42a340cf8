"""Built-in regression suite over the published example values.

Each check recomputes one of the worked examples the tables and checker are
calibrated against (the smallest non-realizable system, the alpha-family
detections, the three-stage obstruction, whole-stem answers, the quadratic
sanity table) and compares exactly. ``pialg selftest`` runs all of them.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .fgab import (
    FgAbGroup,
    GroupHom,
    Z,
    cyclic,
    from_cyclic_orders,
    mod_reduction,
)
from .pi_functors import Regime, gamma_tilde
from .quadratic import (
    Z_LAMBDA,
    brute_force_quad_tensor,
    exterior_square,
    quad_tensor,
    whitehead_gamma,
)
from .realizability import (
    Status,
    StemAnswer,
    ThreeStageProblem,
    TwoStagePiAlgebra,
    all_realizable_in_stem,
    build_structure_map,
    check,
    check_stable,
    three_stage_obstruction,
)
from .tables import StableTables, verify_pi_ring_relations


def _expect(cond: bool, detail: str) -> Tuple[bool, str]:
    return (True, "") if cond else (False, detail)


def _smallest_instance(tables):
    gt = gamma_tilde(5, 3, Z, tables)
    eta = build_structure_map(gt, [(1,), (0,)], cyclic(4))
    return TwoStagePiAlgebra(5, 3, Z, cyclic(4), eta)


def run_selftest(tables: StableTables) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, Callable]] = []

    def add(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @add("tables: Q_3^S = Z/4<nu> + Z/3<alpha>")
    def _():
        e = tables.q_stable_entry(3)
        return _expect(e.group == from_cyclic_orders([12])
                       and e.names == ("nu", "alpha")
                       and [d for d, _ in e.summands] == [4, 3],
                       f"got {e}")

    @add("tables: HZ_4HZ = Z/2 + Z/3")
    def _():
        return _expect(tables.em(4) == from_cyclic_orders([2, 3]), f"got {tables.em(4)}")

    @add("tables: Q_2^S = 0 and Q_{k,2} = 0 for k >= 2")
    def _():
        ok = tables.q_stable_entry(2).group.is_trivial
        ok = ok and all(tables.q_unstable_group(k, 2).is_trivial for k in range(2, 8))
        return _expect(ok, "nontrivial entry found")

    @add("tables: stable stems 0..6 match the published list")
    def _():
        want = {0: (0, ()), 1: (0, (2,)), 2: (0, (2,)), 3: (0, (24,)),
                4: (0, ()), 5: (0, ()), 6: (0, (2,))}
        for i, (rank, torsion) in want.items():
            g = tables.pi_stable[i].group
            if g != FgAbGroup(rank if i else 1, torsion):
                return False, f"pi_{i}^S = {g}"
        return True, ""

    @add("tables: ring relations hold")
    def _():
        bad = verify_pi_ring_relations(tables)
        return _expect(not bad, "; ".join(bad))

    @add("tables: metastable quadratic modules are Z_Gamma and Z_Lambda")
    def _():
        from .quadratic import Z_GAMMA, Z_LAMBDA
        ok = tables.metastable_module(2) == Z_GAMMA
        ok = ok and tables.metastable_module(3) == Z_LAMBDA
        return _expect(ok, "builtin metastable modules altered")

    @add("tables: default gamma knowledge states")
    def _():
        g = tables.gamma
        want = {(1, "eta"): ("nonzero", 2), (3, "alpha"): ("nonzero", 3),
                (3, "nu"): ("unknown", 2), (7, "alpha_2"): ("zero", None),
                (11, "alpha_3/2"): ("unknown", 3), (15, "alpha_4"): ("zero", None)}
        for key, (state, num) in want.items():
            k = g.get(key)
            if k is None or k.state != state or (k.order or k.bound) != num:
                return False, f"{key} is {k}"
        return True, ""

    @add("gamma_tilde(2,1,Z/2) = Z/4 labeled γ")
    def _():
        r = gamma_tilde(2, 1, cyclic(2), tables)
        return _expect(r.group == cyclic(4) and r.labels() == ("γ",)
                       and r.regime is Regime.K1, f"got {r.group} {r.labels()}")

    @add("gamma_tilde(3,2,Z^2) = Z labeled e1∧e2")
    def _():
        r = gamma_tilde(3, 2, FgAbGroup(2, ()), tables)
        return _expect(r.group == Z and r.labels() == ("e1∧e2",), f"got {r.group}")

    @add("gamma_tilde(n,3,Z) = Z/4<nu> + Z/3<alpha>, independent of n >= 5")
    def _():
        r5 = gamma_tilde(5, 3, Z, tables)
        r9 = gamma_tilde(9, 3, Z, tables)
        ok = r5.group == from_cyclic_orders([12]) == r9.group
        ok = ok and r5.labels() == ("1⊗nu", "1⊗alpha") == r9.labels()
        orders = tuple(g.order for g in r5.generators)
        return _expect(ok and orders == (4, 3), f"got {r5.group} {r5.labels()} {orders}")

    @add("gamma_tilde(4,2,-) = 0")
    def _():
        r = gamma_tilde(4, 2, from_cyclic_orders([8, 5]), tables)
        return _expect(r.group.is_trivial, f"got {r.group}")

    @add("quadratic: Gamma values Z, Z/2, Z/3 and the (Z/2,Z/2) cross term")
    def _():
        ok = whitehead_gamma(Z).group == Z
        ok = ok and whitehead_gamma(cyclic(2)).group == cyclic(4)
        ok = ok and whitehead_gamma(cyclic(3)).group == cyclic(3)
        ok = ok and whitehead_gamma(from_cyclic_orders([2, 2])).group \
            == from_cyclic_orders([4, 4, 2])
        return _expect(ok, "a Gamma value is off")

    @add("quadratic: A ⊗q Z_Lambda is the exterior square on small groups")
    def _():
        for orders in [(2,), (3,), (4,), (2, 2), (2, 4)]:
            a = from_cyclic_orders(list(orders))
            if quad_tensor(a, Z_LAMBDA).group != brute_force_quad_tensor(a, Z_LAMBDA):
                return False, f"mismatch at {orders}"
        if exterior_square(FgAbGroup(2, ())).group != Z:
            return False, "Λ²(Z²) != Z"
        return True, ""

    @add("check: smallest non-realizable instance (stem 3, target Z/4)")
    def _():
        v = check(_smallest_instance(tables), tables)
        ok = v.status is Status.NON_REALIZABLE and v.obstruction is not None
        ok = ok and v.obstruction.label == "2·nu"
        return _expect(ok, f"got {v.status.value}, obstruction "
                           f"{v.obstruction.label if v.obstruction else None}")

    @add("check: alpha detection (stem 3, target Z/3) realizable")
    def _():
        gt = gamma_tilde(5, 3, Z, tables)
        eta = build_structure_map(gt, [(0,), (1,)], cyclic(3))
        v = check(TwoStagePiAlgebra(5, 3, Z, cyclic(3), eta), tables)
        ok = v.status is Status.REALIZABLE and v.witness is not None
        return _expect(ok, f"got {v.status.value}")

    @add("check: alpha_2 at p=3 (stem 7) non-realizable")
    def _():
        gt = gamma_tilde(9, 7, Z, tables)
        eta = build_structure_map(gt, [(1,)], cyclic(3))
        v = check(TwoStagePiAlgebra(9, 7, Z, cyclic(3), eta), tables)
        return _expect(v.status is Status.NON_REALIZABLE, f"got {v.status.value}")

    @add("check: divided alpha_{3/2} at p=3 (stem 11, target Z/9) non-realizable")
    def _():
        gt = gamma_tilde(13, 11, Z, tables)
        eta = build_structure_map(gt, [(1,)], cyclic(9))
        v = check(TwoStagePiAlgebra(13, 11, Z, cyclic(9), eta), tables)
        ok = v.status is Status.NON_REALIZABLE and v.obstruction is not None
        ok = ok and v.obstruction.label == "3·alpha_3/2"
        return _expect(ok, f"got {v.status.value}")

    @add("check: zero structure map realizable in the stable range")
    def _():
        gt = gamma_tilde(6, 4, from_cyclic_orders([8]), tables)
        eta = GroupHom.zero(gt.group, cyclic(5))
        v = check(TwoStagePiAlgebra(6, 4, from_cyclic_orders([8]), cyclic(5), eta), tables)
        return _expect(v.status is Status.REALIZABLE, f"got {v.status.value}")

    @add("check: k=1 and k=2 instances realizable")
    def _():
        gt1 = gamma_tilde(2, 1, cyclic(2), tables)
        eta1 = build_structure_map(gt1, [(1,)], cyclic(4))
        v1 = check(TwoStagePiAlgebra(2, 1, cyclic(2), cyclic(4), eta1), tables)
        gt2 = gamma_tilde(3, 2, FgAbGroup(2, ()), tables)
        eta2 = build_structure_map(gt2, [(1,)], Z)
        v2 = check(TwoStagePiAlgebra(3, 2, FgAbGroup(2, ()), Z, eta2), tables)
        return _expect(v1.status is Status.REALIZABLE and v2.status is Status.REALIZABLE,
                       f"got {v1.status.value}, {v2.status.value}")

    @add("three-stage: (Z/2, Z/2, Z/2) with identity maps non-realizable")
    def _():
        c2 = cyclic(2)
        tp, _ = mod_reduction(c2, 2)
        e = GroupHom.from_columns(tp.group, c2, [(1,)])
        o, v = three_stage_obstruction(ThreeStageProblem(4, c2, c2, c2, e, e))
        ok = v.status is Status.NON_REALIZABLE and not o.is_zero()
        ez = GroupHom.zero(tp.group, c2)
        _, v2 = three_stage_obstruction(ThreeStageProblem(4, c2, c2, c2, e, ez))
        ok = ok and v2.status is Status.REALIZABLE
        return _expect(ok, f"got {v.status.value} / {v2.status.value}")

    @add("stems: all realizable in stem 1 and 2, not in stem 3")
    def _():
        a1 = all_realizable_in_stem(1, tables).answer
        a2 = all_realizable_in_stem(2, tables).answer
        a3 = all_realizable_in_stem(3, tables).answer
        return _expect((a1, a2, a3) == (StemAnswer.YES, StemAnswer.YES, StemAnswer.NO),
                       f"got {a1.value}, {a2.value}, {a3.value}")

    @add("partial knowledge: stem-3 eta(nu)=1 into Z/2 is undetermined on gamma(nu)")
    def _():
        gt = gamma_tilde(5, 3, Z, tables)
        eta = build_structure_map(gt, [(1,), (0,)], cyclic(2))
        v = check_stable(TwoStagePiAlgebra(5, 3, Z, cyclic(2), eta), tables)
        return _expect(v.status is Status.UNDETERMINED and v.blocking == ("stem3.nu",),
                       f"got {v.status.value} blocking {v.blocking}")

    @add("survey: stem 2 sweep is 100% realizable")
    def _():
        from .realizability import survey_stem
        rep = survey_stem(2, tables, max_cyclic_order=3, max_summands=1,
                          targets=[cyclic(2)])
        return _expect(dict(rep.totals) == {"realizable": rep.total_cases()}
                       and rep.total_cases() > 0, f"totals {rep.totals}")

    @add("survey: stem 3 over A_n = Z into Z/4 hits non-realizable instances")
    def _():
        from .realizability import survey_stem
        rep = survey_stem(3, tables, max_cyclic_order=2, max_summands=1,
                          targets=[cyclic(4)])
        z_rows = [r for r in rep.rows if r.a_n == Z]
        ok = bool(z_rows) and dict(z_rows[0].counts).get("non-realizable", 0) > 0
        return _expect(ok, f"rows {rep.rows}")

    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
