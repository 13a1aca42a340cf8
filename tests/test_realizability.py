"""The checker: verdicts, certificates, quantification over completions."""

import functools
import itertools
import re
import unittest.mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pialg import (
    BoundExceeded,
    FgAbGroup,
    GroupHom,
    InconsistentTables,
    MalformedStructureMap,
    MissingTableData,
    NotStableRange,
    Status,
    StemAnswer,
    ThreeStageProblem,
    TwoStagePiAlgebra,
    UnsupportedRegime,
    Verdict,
    Z,
    all_realizable_in_stem,
    build_structure_map,
    check,
    check_stable,
    cyclic,
    from_cyclic_orders,
    gamma_tilde,
    gamma_tilde_induced,
    hom_group,
    load_defaults,
    loads_tables,
    merge,
    mod_reduction,
    problem_from_json,
    survey_stem,
    tensor,
    tensor_induced,
    three_stage_obstruction,
    two_torsion_subgroup,
    verdict_from_json,
    verdict_to_json,
)
from pialg import realizability
from pialg.realizability import format_semantic
from pialg.tables import admissible_gamma_completions, alpha_family_overlay

from helpers import (forced_dead_elements, plain_status, random_hom, structure_map_by_solve,
                     survey_by_checks)


def smallest_problem(tables, target=None, nu_to=1, alpha_to=0):
    gt = gamma_tilde(5, 3, Z, tables)
    target = target if target is not None else cyclic(4)
    eta = build_structure_map(gt, [(nu_to,), (alpha_to,)], target)
    return TwoStagePiAlgebra(5, 3, Z, target, eta), gt


# -- the published instances ----------------------------------------------

def test_smallest_non_realizable(tables):
    pa, gt = smallest_problem(tables)
    v = check_stable(pa, tables)
    assert v.status is Status.NON_REALIZABLE
    assert v.obstruction.label == "2·nu"
    # obstruction element is 2·nu in canonical coordinates
    e = tables.q_stable_entry(3)
    assert v.obstruction.element == gt.group.smul(2, e.element_of("nu"))
    assert len(v.completions) == 4 and not any(o.factorable for o in v.completions)


def test_alpha_detection_realizable(tables):
    pa, _ = smallest_problem(tables, target=cyclic(3), nu_to=0, alpha_to=1)
    v = check_stable(pa, tables)
    assert v.status is Status.REALIZABLE
    assert all(o.factorable for o in v.completions)
    assert v.witness is not None


def test_zero_eta_realizable_everywhere(tables):
    # metastable (4,3) needs its quadratic module supplied as table data
    t = merge(tables, loads_tables("[metastable_qm]\n4 = pi5S3\n", "m"))
    for n, k in [(5, 3), (8, 6), (2, 1), (3, 2), (4, 3), (2, 7)]:
        gt = gamma_tilde(n, k, cyclic(2), t)
        eta = GroupHom.zero(gt.group, cyclic(6))
        v = check(TwoStagePiAlgebra(n, k, cyclic(2), cyclic(6), eta), t)
        assert v.status is Status.REALIZABLE, (n, k)


def test_alpha2_stem7(tables):
    gt = gamma_tilde(9, 7, Z, tables)
    eta = build_structure_map(gt, [(1,)], cyclic(3))
    v = check(TwoStagePiAlgebra(9, 7, Z, cyclic(3), eta), tables)
    assert v.status is Status.NON_REALIZABLE
    assert v.obstruction.label == "alpha_2"


def test_divided_alpha_stem11(tables):
    gt = gamma_tilde(13, 11, Z, tables)
    eta = build_structure_map(gt, [(1,)], cyclic(9))
    v = check(TwoStagePiAlgebra(13, 11, Z, cyclic(9), eta), tables)
    assert v.status is Status.NON_REALIZABLE
    assert v.obstruction.label == "3·alpha_3/2"
    # eta(3·alpha_{3/2}) = 3 is indeed nonzero in Z/9
    assert eta.apply(v.obstruction.element) == (3,)


def test_k1_k2_always_realizable(tables):
    gt = gamma_tilde(2, 1, cyclic(2), tables)
    eta = build_structure_map(gt, [(1,)], cyclic(4))
    assert check(TwoStagePiAlgebra(2, 1, cyclic(2), cyclic(4), eta), tables).status \
        is Status.REALIZABLE
    gt = gamma_tilde(3, 2, FgAbGroup(2, ()), tables)
    eta = build_structure_map(gt, [(1,)], Z)
    assert check(TwoStagePiAlgebra(3, 2, FgAbGroup(2, ()), Z, eta), tables).status \
        is Status.REALIZABLE
    # malformed structure maps are rejected: gamma(Z/2) = Z/4 has a generator
    # of order 4, which cannot land on an element of order 8
    gt = gamma_tilde(2, 1, cyclic(2), tables)
    with pytest.raises(MalformedStructureMap):
        build_structure_map(gt, [(1,)], cyclic(8))


def test_eta_source_validated(tables):
    eta = GroupHom.zero(cyclic(2), cyclic(4))  # wrong source group
    with pytest.raises(MalformedStructureMap):
        check(TwoStagePiAlgebra(2, 1, cyclic(2), cyclic(4), eta), tables)


def test_problem_inputs_are_validated(tables):
    gt = gamma_tilde(5, 3, Z, tables)
    eta = build_structure_map(gt, [(1,), (0,)], cyclic(4))
    with pytest.raises(ValueError, match="need n >= 2 and k >= 1"):
        TwoStagePiAlgebra(1, 3, Z, cyclic(4), eta)
    with pytest.raises(MalformedStructureMap, match=re.escape("eta must land in A_{n+k}")):
        TwoStagePiAlgebra(5, 3, Z, cyclic(2), eta)
    with pytest.raises(MalformedStructureMap,
                       match=re.escape("expected 2 columns (1⊗nu, 1⊗alpha), got 1")):
        build_structure_map(gt, [(1,)], cyclic(4))


def test_undetermined_blocks_on_nu(tables):
    pa, _ = smallest_problem(tables, target=cyclic(2), nu_to=1, alpha_to=0)
    v = check_stable(pa, tables)
    assert v.status is Status.UNDETERMINED
    assert v.blocking == ("stem3.nu",)
    assert {o.factorable for o in v.completions} == {True, False}


def test_overlay_resolves_undetermined(tables):
    pa, _ = smallest_problem(tables, target=cyclic(2), nu_to=1, alpha_to=0)
    t_known = merge(tables, loads_tables("[gamma]\n3.nu = known [3]\n", "o"))
    assert check_stable(pa, t_known).status is Status.REALIZABLE
    t_zero = merge(tables, loads_tables("[gamma]\n3.nu = zero\n", "o2"))
    assert check_stable(pa, t_zero).status is Status.NON_REALIZABLE


def test_monotonicity_under_refinement(tables):
    refinements = [
        merge(tables, loads_tables("[gamma]\n3.nu = zero\n", "r0")),
        merge(tables, loads_tables("[gamma]\n3.nu = known [3]\n", "r1")),
        merge(tables, loads_tables("[gamma]\n3.alpha = known [2]\n", "r2")),
        merge(tables, loads_tables("[gamma]\n3.nu = zero\n3.alpha = known [4]\n", "r3")),
    ]
    gt = gamma_tilde(5, 3, Z, tables)
    for target in (cyclic(2), cyclic(4), cyclic(3), cyclic(12)):
        for eta in hom_group(gt.group, target):
            pa = TwoStagePiAlgebra(5, 3, Z, target, eta)
            before = check_stable(pa, tables).status
            for t in refinements:
                after = check_stable(pa, t).status
                if before is Status.REALIZABLE:
                    assert after is Status.REALIZABLE
                if before is Status.NON_REALIZABLE:
                    assert after is Status.NON_REALIZABLE


def test_naturality_under_automorphisms(tables):
    # precomposing eta with gamma_tilde(f) for an automorphism f of A_n
    # cannot change the verdict
    pa, gt = smallest_problem(tables)
    minus = GroupHom.from_columns(Z, Z, [(-1,)])
    ind = gamma_tilde_induced(5, 3, minus, tables)
    pa2 = TwoStagePiAlgebra(5, 3, Z, pa.a_nk, pa.eta @ ind)
    assert check_stable(pa2, tables).status is check_stable(pa, tables).status
    a = from_cyclic_orders([4, 3])
    gt = gamma_tilde(6, 3, a, tables)
    eta = build_structure_map(gt, [(1,), (0,)], cyclic(4))
    pa3 = TwoStagePiAlgebra(6, 3, a, cyclic(4), eta)
    aut = GroupHom.from_columns(a, a, [(5,)])  # multiplication by 5 on Z/12
    ind = gamma_tilde_induced(6, 3, aut, tables)
    pa4 = TwoStagePiAlgebra(6, 3, a, cyclic(4), eta @ ind)
    assert check_stable(pa4, tables).status is check_stable(pa3, tables).status


def test_certificate_soundness(tables):
    # every witness re-verifies; every obstruction is killed by every completion
    gt = gamma_tilde(5, 3, Z, tables)
    tgt_tp = tensor(Z, tables.em(4))
    for target in (cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(12)):
        for eta in hom_group(gt.group, target):
            pa = TwoStagePiAlgebra(5, 3, Z, target, eta)
            v = check_stable(pa, tables)
            comps = admissible_gamma_completions(3, tables)
            gammas = [tensor_induced(GroupHom.identity(Z), c.hom,
                                     source=gt._tensor, target=tgt_tp) for c in comps]
            for outcome, gamma_a in zip(v.completions, gammas):
                if outcome.witness is not None:
                    assert outcome.witness @ gamma_a == eta
            if v.status is Status.NON_REALIZABLE and v.obstruction.element is not None:
                x = v.obstruction.element
                assert any(eta.apply(x))
                for gamma_a in gammas:
                    assert not any(gamma_a.apply(x))


def test_top_detect_consistency(tables):
    # projection onto a generator is realizable iff gamma is nonzero on it
    # in every completion (alpha), non-realizable iff zero in every one
    pa, _ = smallest_problem(tables, target=cyclic(3), nu_to=0, alpha_to=1)
    assert check_stable(pa, tables).status is Status.REALIZABLE
    t_zero = merge(tables, loads_tables("[gamma]\n3.nu = zero\n", "z"))
    pa2, _ = smallest_problem(t_zero, target=cyclic(4), nu_to=1, alpha_to=0)
    assert check_stable(pa2, t_zero).status is Status.NON_REALIZABLE


def test_not_stable_range(tables):
    gt = gamma_tilde(4, 3, cyclic(2), merge(tables, loads_tables(
        "[metastable_qm]\n4 = pi5S3\n", "m")))
    eta = GroupHom.zero(gt.group, cyclic(2))
    with pytest.raises(NotStableRange):
        check_stable(TwoStagePiAlgebra(4, 3, cyclic(2), cyclic(2), eta), tables)


def test_metastable_needs_unstable_gamma(tables):
    t = merge(tables, loads_tables("[metastable_qm]\n4 = pi5S3\n", "m"))
    gt = gamma_tilde(4, 3, cyclic(2), t)
    assert gt.group == cyclic(2)
    eta = build_structure_map(gt, [(1,)], cyclic(2))
    with pytest.raises(UnsupportedRegime):
        check(TwoStagePiAlgebra(4, 3, cyclic(2), cyclic(2), eta), t)
    # but the zero map is still realizable
    v = check(TwoStagePiAlgebra(4, 3, cyclic(2), cyclic(2),
                                GroupHom.zero(gt.group, cyclic(2))), t)
    assert v.status is Status.REALIZABLE


def test_unstable_trivial_regimes_realizable(tables):
    # n = 2, k >= 2: trivial operations, everything realizable
    gt = gamma_tilde(2, 5, cyclic(12), tables)
    v = check(TwoStagePiAlgebra(2, 5, cyclic(12), cyclic(7),
                                GroupHom.zero(gt.group, cyclic(7))), tables)
    assert v.status is Status.REALIZABLE


# -- three-stage ------------------------------------------------------------

def test_three_stage_example(tables):
    c2 = cyclic(2)
    tp, q = mod_reduction(c2, 2)
    e = GroupHom.from_columns(tp.group, c2, [(1,)])
    o, v = three_stage_obstruction(ThreeStageProblem(4, c2, c2, c2, e, e))
    assert v.status is Status.NON_REALIZABLE
    assert not o.is_zero()
    assert o.source == two_torsion_subgroup(c2)[0]
    _, v2 = three_stage_obstruction(
        ThreeStageProblem(4, c2, c2, c2, e, GroupHom.zero(tp.group, c2)))
    assert v2.status is Status.REALIZABLE
    # no two-torsion in A_n kills the obstruction
    tpz, _ = mod_reduction(Z, 2)
    ez = GroupHom.from_columns(tpz.group, c2, [(1,)])
    _, v3 = three_stage_obstruction(ThreeStageProblem(4, Z, c2, c2, ez, e))
    assert v3.status is Status.REALIZABLE


def test_three_stage_validation(tables):
    c2 = cyclic(2)
    tp, _ = mod_reduction(c2, 2)
    e = GroupHom.from_columns(tp.group, c2, [(1,)])
    with pytest.raises(ValueError):
        three_stage_obstruction(ThreeStageProblem(3, c2, c2, c2, e, e))
    bad = GroupHom.from_columns(cyclic(4), c2, [(1,)])
    with pytest.raises(MalformedStructureMap):
        three_stage_obstruction(ThreeStageProblem(4, c2, c2, c2, bad, e))
    with pytest.raises(MalformedStructureMap,
                       match=re.escape("eta2 must map A_{n+1} ⊗ Z/2 to A_{n+2}")):
        three_stage_obstruction(ThreeStageProblem(4, c2, c2, c2, e, bad))


# -- whole stems -------------------------------------------------------------

def test_all_realizable_stems(tables):
    assert all_realizable_in_stem(1, tables).answer is StemAnswer.YES
    assert all_realizable_in_stem(2, tables).answer is StemAnswer.YES
    v3 = all_realizable_in_stem(3, tables)
    assert v3.answer is StemAnswer.NO
    assert len(v3.completions) == 4 and not any(s for _, s in v3.completions)
    for k in (4, 5, 6):
        assert all_realizable_in_stem(k, tables).answer is StemAnswer.YES
    assert all_realizable_in_stem(7, tables).answer is StemAnswer.NO
    assert all_realizable_in_stem(15, tables).answer is StemAnswer.NO
    with pytest.raises(MissingTableData):
        all_realizable_in_stem(8, tables)
    with pytest.raises(ValueError):
        all_realizable_in_stem(0, tables)


def test_stem11_divided_alpha_forces_no(tables):
    # gamma(3·alpha_{3/2}) = 0 with 3·alpha_{3/2} != 0 is an order drop
    assert all_realizable_in_stem(11, tables).answer is StemAnswer.NO


def test_stem1_by_enumeration(tables):
    # With HZ_2HZ tabulated, stem 1 is decided over the completions, not by rule.
    t = merge(tables, loads_tables("[em_homology]\n2 = Z/2\n", "em2"))
    v = all_realizable_in_stem(1, t)
    assert v.answer is StemAnswer.YES and v.completions == (((("eta", (1,)),), True),)
    t = merge(t, loads_tables("[gamma]\n1.eta = unknown(2)\n", "eta?"))
    v = all_realizable_in_stem(1, t)
    assert v.answer is StemAnswer.UNDETERMINED and v.blocking == ("stem1.eta",)
    assert [split for _, split in v.completions] == [False, True]


def test_stem_answer_with_full_knowledge(tables):
    # make stem 3 fully known: still No (the codomain is too small)
    t = merge(tables, loads_tables("[gamma]\n3.nu = known [3]\n3.alpha = known [2]\n", "k"))
    assert all_realizable_in_stem(3, t).answer is StemAnswer.NO


# -- surveys ------------------------------------------------------------------

def test_survey_stem2_all_realizable(tables):
    rep = survey_stem(2, tables, max_cyclic_order=4, max_summands=2,
                      targets=[cyclic(2), cyclic(3)])
    assert rep.total_cases() > 0
    assert dict(rep.totals) == {"realizable": rep.total_cases()}


def test_survey_stem3_contains_non_realizable(tables):
    rep = survey_stem(3, tables, max_cyclic_order=2, max_summands=1,
                      targets=[cyclic(4)])
    totals = dict(rep.totals)
    assert totals.get("non-realizable", 0) > 0
    # the smallest instance appears: A_n = Z, target Z/4
    z_rows = [r for r in rep.rows if r.a_n == Z]
    assert z_rows and dict(z_rows[0].counts).get("non-realizable", 0) > 0


def test_refused_survey_canonicalizes_only_the_groups_it_reaches(tables, monkeypatch):
    # The budget is read as each A_n is produced: the survey below is refused
    # at its first row, so it must not canonicalize the ~12k groups its
    # bounds allow (it did, before raising BoundExceeded).
    calls = []
    real = realizability.from_cyclic_orders
    monkeypatch.setattr(realizability, "from_cyclic_orders",
                        lambda orders, *rest: calls.append(orders) or real(orders, *rest))
    with pytest.raises(BoundExceeded):
        survey_stem(3, tables, max_cyclic_order=40, max_summands=3,
                    targets=[cyclic(2), cyclic(4)], max_checks=1)
    assert 1 <= len(calls) <= 5


def test_warm_survey_pass_counts_hom_groups_in_closed_form(monkeypatch):
    # The survey reads only |Hom(gamma_tilde, T)| and its finiteness, both in
    # closed form: a warm pass on the bench's bounds canonicalizes no Hom group,
    # and its 27 Smith normal forms are the A_n enumeration's (105 when every
    # row also canonicalized its Hom group).
    from pialg import fgab
    snfs, reads = [], []
    real_snf, real_group = fgab.smith_normal_form, vars(fgab.HomGroup)["group"]
    monkeypatch.setattr(fgab, "smith_normal_form", lambda m: snfs.append(m) or real_snf(m))
    monkeypatch.setattr(fgab.HomGroup, "group", property(
        lambda self: reads.append(self) or real_group.__get__(self, fgab.HomGroup)))
    tables = load_defaults()
    survey = functools.partial(survey_stem, 3, tables, max_cyclic_order=6, max_summands=2,
                               targets=[cyclic(2), cyclic(4), cyclic(12)])
    first = survey()
    snfs.clear()
    assert survey() == first and dict(first.totals) == {
        "non-realizable": 324, "realizable": 148, "undetermined": 245}
    assert len(snfs) == 27 and reads == []


def _tallies(rep):
    # group equality ignores labels, so the target's labels are compared too
    return [(r.a_n, r.target, r.target.gen_labels, r.counts) for r in rep.rows], rep.totals


def test_survey_reuse_matches_fresh_checks(tables):
    # The per-eta loop decides every case of the survey's rows through the
    # memo on its tables; each of those verdicts, witnesses included, must
    # equal check_stable's on a new tables object, whose memo is empty, and
    # the row counts must be the tally of the fresh verdicts. The two Z/4
    # targets differ only in labels, which reach the witness JSON.
    import json
    decided = []

    def recording(pa, tables):
        v = check_stable(pa, tables)
        decided.append((pa, v))
        return v

    targets = [cyclic(2), cyclic(4), cyclic(4, "t"), cyclic(3)]
    rep = survey_by_checks(3, tables, max_cyclic_order=4, max_summands=2, targets=targets,
                           check=recording)
    assert _tallies(rep) == _tallies(
        survey_stem(3, load_defaults(), max_cyclic_order=4, max_summands=2, targets=targets))
    assert len(decided) == rep.total_cases() > 0
    counts: dict = {}
    for pa, v in decided:
        fresh = check_stable(pa, load_defaults())
        assert (json.dumps(verdict_to_json(v), sort_keys=True)
                == json.dumps(verdict_to_json(fresh), sort_keys=True))
        row = counts.setdefault((pa.a_n, pa.a_nk.gen_labels, pa.a_nk), {})
        row[fresh.status.value] = row.get(fresh.status.value, 0) + 1
    assert [((r.a_n, r.target.gen_labels, r.target), dict(r.counts)) for r in rep.rows] \
        == list(counts.items())
    statuses = {v.status for _, v in decided}
    assert statuses == {Status.REALIZABLE, Status.NON_REALIZABLE, Status.UNDETERMINED}
    assert any(v.witness is not None and v.witness.target.gen_labels == ("t",)
               for _, v in decided)


def test_merged_tables_decide_with_their_own_gamma():
    # The memo lives on the tables object; an overlay merged onto tables that
    # already decided a problem starts empty and decides with its own gamma.
    t = load_defaults()
    pa, _ = smallest_problem(t, target=cyclic(2))
    assert check(pa, t).status is Status.UNDETERMINED and t._memo
    merged = merge(t, loads_tables("[gamma]\n3.nu = known [3]\n", "fix"))
    assert merged._memo == {}
    assert check(pa, merged).status is Status.REALIZABLE
    assert check(pa, t).status is Status.UNDETERMINED


def _counting(monkeypatch, name):
    from pialg import realizability
    calls = []
    original = getattr(realizability, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(realizability, name, counting)
    return calls


def test_tables_memoize_gamma_tilde(monkeypatch):
    calls = _counting(monkeypatch, "gamma_tilde")
    t = load_defaults()
    pa, _ = smallest_problem(t)
    assert check(pa, t) == check(pa, t)
    assert len(calls) == 1
    calls.clear()
    t = load_defaults()
    bounds = dict(max_cyclic_order=3, max_summands=1, targets=[cyclic(2), cyclic(4)])
    assert survey_stem(3, t, **bounds) == survey_stem(3, t, **bounds)
    assert [a for _, _, a, _ in calls] == [Z, cyclic(2), cyclic(3)]


def test_stem_answer_and_checks_share_completions(monkeypatch):
    calls = _counting(monkeypatch, "admissible_gamma_completions")
    t = load_defaults()
    assert all_realizable_in_stem(3, t).answer is StemAnswer.NO
    pa, _ = smallest_problem(t)
    assert check_stable(pa, t).status is Status.NON_REALIZABLE
    assert [k for k, _ in calls] == [3]


def test_one_factorizer_per_distinct_gamma_map(monkeypatch):
    # What-if stem 5 = Z/2 + Z/3 with unconstrained gamma into Z/6 has six
    # completions; gamma_c ⊗ A_n forgets the part of gamma_c that A_n kills.
    from pialg.realizability import _factorizers, _gammas
    t = merge(load_defaults(), loads_tables(
        "[q_stable]\n5 = Z/2<x> + Z/3<y>\n[em_homology]\n6 = Z/6\n", "what-if"))
    calls = _counting(monkeypatch, "Factorizer")
    for a_n, distinct in ((Z, 6), (cyclic(3), 3), (cyclic(2), 2)):
        calls.clear()
        gammas = _gammas(t, 7, 5, a_n)
        fzs = _factorizers(t, 7, 5, a_n, cyclic(6))
        assert len(gammas) == 6 and len(set(gammas)) == distinct
        assert len(calls) == distinct and len(set(map(id, fzs))) == distinct
        assert [fz.through for fz in fzs] == list(gammas)


def test_threads_sharing_tables_get_equal_verdicts():
    # Threads may race to build the same memo entry; every build is equal.
    import sys
    import threading
    t = load_defaults()
    pa, _ = smallest_problem(t)
    expected = check(pa, load_defaults())
    results = []
    threads = [threading.Thread(target=lambda: results.append(check(pa, t))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 4


def _verdicts_digest(verdicts) -> str:
    import hashlib
    import json
    doc = json.dumps([verdict_to_json(v) for v in verdicts], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_survey_verdict_bytes_pinned(tables):
    # Every verdict of the 717 cases of the stem-3 survey, witnesses and
    # obstruction labels included, in decision order. Refactors of the
    # solver path must keep these bytes, and survey_stem, which builds no
    # verdict, must tally the same statuses.
    decided = []

    def recording(pa, tables):
        v = check_stable(pa, tables)
        decided.append(v)
        return v

    bounds = dict(max_cyclic_order=6, max_summands=2, targets=[cyclic(2), cyclic(4), cyclic(12)])
    rep = survey_by_checks(3, tables, **bounds, check=recording)
    assert _tallies(rep) == _tallies(survey_stem(3, tables, **bounds))
    assert len(decided) == 717
    assert _verdicts_digest(decided) == \
        "2358f521fa366820cc7b7371b346dc06e404a79e73e55417c5b2954c5e6f940b"


def test_certificate_mode_verdict_bytes_pinned(tables):
    # Partially tabulated stems 7 and 11 decide in certificate mode; every
    # eta is decided by its own check_stable call, in hom_group order.
    verdicts = []
    for k in (7, 11):
        for a_n in (Z, cyclic(3), cyclic(9), from_cyclic_orders([3, 9])):
            gt = gamma_tilde(k + 2, k, a_n, tables)
            for target in (cyclic(3), cyclic(9)):
                for eta in hom_group(gt.group, target):
                    verdicts.append(check_stable(
                        TwoStagePiAlgebra(k + 2, k, a_n, target, eta), tables))
    assert len(verdicts) == 102
    assert _verdicts_digest(verdicts) == \
        "fc44158304c4d4100334ff07c90227ac548d5d5560190f30d2b335fbeb920947"


def _obstruction_by_full_scan(eta, dead_incl):
    """The obstruction element as found before candidates were sorted once:
    scan every dead element, keep the lightest image eta does not kill (the
    first found among equals), or the first such generator's image."""
    composite = eta @ dead_incl
    if composite.is_zero():
        return None
    dead, best = dead_incl.source, None
    if dead.rank == 0 and (dead.order() or 0) <= 4096:
        for x in dead.elements():
            if any(composite.apply(x)):
                y = dead_incl.apply(x)
                if best is None or sum(abs(c) for c in y) < best[0]:
                    best = (sum(abs(c) for c in y), y)
        return best[1]
    for j in range(dead.dim):
        unit = [1 if r == j else 0 for r in range(dead.dim)]
        if any(composite.apply(unit)):
            return dead_incl.apply(unit)


def test_sorted_obstruction_candidates_match_the_full_scan(tables):
    # The dead subgroups are rebuilt here: the kernel of the stacked gammas,
    # and the span of the plainly built forced-dead elements.
    from pialg.fgab import kernel, stack_homs, subgroup
    from pialg.realizability import _gammas
    decided = []

    def recording(pa, tables):
        v = check_stable(pa, tables)
        stacked, _ = stack_homs(list(_gammas(tables, pa.n, pa.k, pa.a_n)))
        decided.append((pa, v, kernel(stacked)[1]))
        return v

    bounds = dict(max_cyclic_order=6, max_summands=2, targets=[cyclic(2), cyclic(4), cyclic(12)])
    rep = survey_by_checks(3, tables, **bounds, check=recording)
    assert _tallies(rep) == _tallies(survey_stem(3, tables, **bounds))
    for k in (7, 11):  # certificate mode: the forced-dead subgroup
        for a_n in (Z, cyclic(3), cyclic(9), from_cyclic_orders([3, 9])):
            gt = gamma_tilde(k + 2, k, a_n, tables)
            incl = subgroup(gt.group, forced_dead_elements(k + 2, k, a_n, tables))[1]
            for target in (cyclic(3), cyclic(9)):
                for eta in hom_group(gt.group, target):
                    pa = TwoStagePiAlgebra(k + 2, k, a_n, target, eta)
                    decided.append((pa, check_stable(pa, tables), incl))
    obstructed = [(pa, v, incl) for pa, v, incl in decided if v.status is Status.NON_REALIZABLE]
    assert len(obstructed) > 100
    for pa, v, incl in obstructed:
        assert v.obstruction.element == _obstruction_by_full_scan(pa.eta, incl)


@functools.cache
def _oracle_tables(name):
    # one object per name, so memos stay warm across examples
    base = load_defaults()
    if name == "what-if":  # 48 completions, every gamma unknown
        return merge(base, loads_tables(
            "[q_stable]\n5 = Z/2<a> + Z/2<b> + Z/3<c>\n[em_homology]\n6 = Z/2 + Z/6\n", "what-if"))
    if name == "alpha":
        return merge(base, alpha_family_overlay(5, 2))
    if name == "free-q":  # gamma_tilde is infinite when A_n has a Z summand
        return merge(base, loads_tables("[q_stable]\n5 = Z<x>\n[em_homology]\n6 = Z/2\n",
                                        "free-q"))
    return base

# (tables, stem, target orders, largest max_checks): enumerating and
# certificate mode, a what-if stem whose checks are dear, and a free
# generator whose rows into Z (order 0) are infinite
_ORACLE_CASES = [("defaults", 1, (2, 4, 6), 2000), ("defaults", 2, (2, 3, 4), 2000),
                 ("defaults", 3, (2, 3, 4, 6, 12), 2000), ("defaults", 7, (3, 9, 27), 2000),
                 ("defaults", 11, (3, 9, 27), 2000), ("what-if", 5, (2, 3, 6), 150),
                 ("alpha", 7, (3, 5, 15, 25), 2000), ("alpha", 15, (3, 5, 25), 2000),
                 ("free-q", 5, (0, 2, 4), 2000)]


def _outcome(survey, *args, **kwargs):
    try:
        return _tallies(survey(*args, **kwargs))
    except (BoundExceeded, InconsistentTables, MissingTableData) as exc:
        return type(exc), str(exc)


@st.composite
def _survey_problems(draw):
    name, k, orders, most = draw(st.sampled_from(_ORACLE_CASES))
    # an empty orders list is the trivial target: every eta has zero-row columns
    targets = draw(st.lists(st.lists(st.sampled_from(orders), min_size=0, max_size=2)
                            .map(from_cyclic_orders), min_size=1, max_size=2))
    return _oracle_tables(name), k, dict(
        max_cyclic_order=draw(st.integers(2, 6)), max_summands=draw(st.integers(1, 2)),
        targets=targets, include_free=draw(st.booleans()),
        max_checks=draw(st.just(most) | st.integers(1, most)))


@given(_survey_problems())
@settings(max_examples=100, deadline=None)
def test_survey_rows_equal_the_per_eta_tallies(problem):
    # survey_stem tallies statuses without building verdicts; the per-eta
    # loop over plain_status, which factors eta through each completion in
    # turn, is the plain path. BoundExceeded trips at the same max_checks on both.
    tables, k, bounds = problem
    assert _outcome(survey_stem, k, tables, **bounds) == _outcome(
        survey_by_checks, k, tables, **bounds, check=lambda pa, t: Verdict(plain_status(pa, t)))


# (tables, stem, target orders, max_cyclic_order): surveys of at most two
# summands in which many rows read the same gamma_tilde data, so a later row
# reuses an earlier row's tally; order 0 is a Z target summand
_REPEATED_KEY_CASES = [("defaults", 3, (0, 2, 4, 12), 12), ("defaults", 7, (0, 3, 9), 9),
                       ("defaults", 11, (0, 3, 9), 9), ("what-if", 5, (0, 2, 6), 4),
                       ("free-q", 5, (0, 2, 4), 4), ("alpha", 7, (0, 3, 5, 15), 6)]


def _nonzero_rows_and_deciders(tables, k, **bounds):
    """(rows with a nonzero eta, ``_decider`` builds) of one survey_stem call."""
    built, real = [], realizability._decider
    with unittest.mock.patch.object(realizability, "_decider",
                                    lambda *args: built.append(args) or real(*args)):
        rep = survey_stem(k, tables, **bounds)
    return sum(sum(c for _, c in r.counts) > 1 for r in rep.rows), len(built)


@pytest.mark.parametrize("name, k, orders, most", _REPEATED_KEY_CASES)
def test_repeated_key_cases_repeat_keys(name, k, orders, most):
    # Each case's survey over all its cyclic targets decides fewer rows than it
    # counts. Under Q_5^S = Z<x>, gamma_tilde(A_n) = A_n: no two rows share data.
    targets = [from_cyclic_orders([d]) for d in orders] + [from_cyclic_orders([])]
    rows, deciders = _nonzero_rows_and_deciders(_oracle_tables(name), k, targets=targets,
                                                max_cyclic_order=most, max_summands=2)
    assert 0 < deciders <= rows and (deciders < rows) == (name != "free-q")


@given(case=st.sampled_from(_REPEATED_KEY_CASES), data=st.data())
@settings(max_examples=25, deadline=None)
def test_shared_row_tallies_equal_the_per_eta_tallies(case, data):
    # survey_stem tallies each distinct (gamma_tilde data, target) once and
    # reuses the count for every later row with the same data; the per-eta
    # loop over plain_status decides every row of its own. The trivial
    # target (an empty orders list) and Z targets are drawn too.
    name, k, orders, most = case
    targets = data.draw(st.lists(st.lists(st.sampled_from(orders), max_size=2)
                                 .map(from_cyclic_orders), min_size=1, max_size=3, unique=True))
    tables, bounds = _oracle_tables(name), dict(
        max_cyclic_order=most, max_summands=2, targets=targets,
        include_free=data.draw(st.booleans()), max_checks=10**6)
    rows, deciders = _nonzero_rows_and_deciders(tables, k, **bounds)
    assert deciders <= rows
    assert _outcome(survey_stem, k, tables, **bounds) == _outcome(
        survey_by_checks, k, tables, **bounds, check=lambda pa, t: Verdict(plain_status(pa, t)))


def test_survey_decides_each_distinct_row_once_per_call(monkeypatch):
    # The bench's survey has 78 rows and 54 distinct (gamma_tilde data, target)
    # keys, 7 of them rows whose only map is zero: 47 deciders are built, not
    # one per row with a nonzero eta (66), and 154 Congruences are reduced on
    # fresh tables, not 216. The tallies live in one call, so a warm pass
    # decides the same 47 rows again, from the memoized factorizers.
    from pialg.fgab import Congruences
    built = _counting(monkeypatch, "_decider")
    reduced, init = [], Congruences.__init__
    monkeypatch.setattr(Congruences, "__init__",
                        lambda self, *args: reduced.append(args) or init(self, *args))
    tables = load_defaults()
    survey = functools.partial(survey_stem, 3, tables, max_cyclic_order=6, max_summands=2,
                               targets=[cyclic(4), cyclic(2), cyclic(12)])
    rep = survey()
    assert (len(rep.rows), len(built), len(reduced)) == (78, 47, 154)
    built.clear(), reduced.clear()
    assert survey() == rep and (len(built), len(reduced)) == (47, 0)


@st.composite
def _oracle_problems(draw):
    name, k, orders, _ = draw(st.sampled_from(_ORACLE_CASES))
    tables = _oracle_tables(name)
    a_n = from_cyclic_orders(draw(st.lists(st.sampled_from([0, 2, 3, 4, 5, 6, 9]),
                                           min_size=1, max_size=2)))
    target = from_cyclic_orders(draw(st.lists(st.sampled_from(orders), max_size=2)))
    homs = hom_group(gamma_tilde(k + 2, k, a_n, tables).group, target)
    assume(homs.is_finite)
    eta = next(itertools.islice(homs, draw(st.integers(0, homs.order() - 1)), None))
    return tables, TwoStagePiAlgebra(k + 2, k, a_n, target, eta)


@given(_oracle_problems())
@settings(max_examples=150, deadline=None)
def test_check_status_equals_the_plain_status(problem):
    # check decides a stable eta through the shared decider; plain_status
    # factors through every completion, or reads the forced-dead generators.
    tables, pa = problem
    assert check(pa, tables).status is plain_status(pa, tables)


@functools.cache
def _regime_tables():
    # A composite stable stem, metastable modules at n = 4 and 5, and Q_{5,3}.
    return merge(load_defaults(), loads_tables(
        "[q_stable]\n5 = Z/2<a> + Z/2<b> + Z/3<c>\n[em_homology]\n6 = Z/2 + Z/6\n"
        "[metastable_qm]\n4 = pi5S3\n5 = Z_Gamma\n[q_unstable]\n5,3 = Z/2 + Z/4\n", "regimes"))


# (n, k): stable (stems 3, 5 and 7), K1 at n = 2 and n >= 3, K2, metastable, unstable tabulated
_REGIMES = [(5, 3), (7, 5), (9, 7), (2, 1), (3, 1), (5, 1), (3, 2), (4, 2), (4, 3), (5, 4),
            (3, 5), (2, 3)]


@given(n_k=st.sampled_from(_REGIMES), a=st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=2),
       b=st.lists(st.sampled_from([0, 2, 3, 4, 6, 12]), max_size=2), data=st.data())
@settings(max_examples=300, deadline=None)
def test_structure_map_equals_the_factorizer_solve(n_k, a, b, data):
    # eta is read off gamma_tilde's semantic section and checked; the solve over
    # the semantic generators is the plain path. Columns that are no homomorphism's
    # images raise the same MalformedStructureMap on both.
    tables, (n, k) = _regime_tables(), n_k
    gt, target = gamma_tilde(n, k, from_cyclic_orders(a), tables), from_cyclic_orders(b)
    if data.draw(st.booleans()):
        rng = data.draw(st.randoms(use_true_random=False))
        h = random_hom(rng, gt.group, target)
        columns = [h.apply(g.element) for g in gt.generators]
    else:
        columns = [tuple(data.draw(st.integers(-13, 13)) for _ in range(target.dim))
                   for _ in gt.generators]

    def outcome(build):
        try:
            return build(gt, columns, target)
        except MalformedStructureMap as exc:
            return str(exc)
    got = outcome(build_structure_map)
    assert got == outcome(structure_map_by_solve)
    assert isinstance(got, str) or [got.apply(g.element) for g in gt.generators] == [
        target.reduce(c) for c in columns]


def test_completions_and_structure_maps_are_not_solved_for(monkeypatch):
    # Both are read off a section of their generators: no Congruences (the one
    # solver, under every Factorizer) is reduced for either.
    from pialg.fgab import Congruences
    reduced, init = [], Congruences.__init__
    monkeypatch.setattr(Congruences, "__init__",
                        lambda self, *args: reduced.append(args) or init(self, *args))
    tables = _regime_tables()
    assert len(admissible_gamma_completions(5, tables)) == 48
    for n, k in _REGIMES:
        gt = gamma_tilde(n, k, from_cyclic_orders([0, 4]), tables)
        build_structure_map(gt, [(0,)] * len(gt.generators), cyclic(2))
    assert reduced == []


def test_free_generator_survey_skips_infinite_rows():
    # Q_5^S = Z<x>: gamma_tilde is infinite when A_n has a Z summand, so its
    # rows into Z are skipped; the other 37 rows are counted.
    tables = _oracle_tables("free-q")
    bounds = dict(max_cyclic_order=4, max_summands=2, targets=[Z, cyclic(2), cyclic(4)])
    rep = survey_stem(5, tables, **bounds)
    assert len(rep.rows) == 37
    assert dict(rep.totals) == {"non-realizable": 52, "realizable": 37, "undetermined": 48}
    assert not [r for r in rep.rows if r.a_n.rank and r.target == Z]
    assert _tallies(rep) == _tallies(survey_by_checks(5, tables, **bounds))


def test_survey_and_per_eta_loop_agree_on_errors(tables):
    # Unvalidated tables with no admissible completion in stem 5 raise the
    # same InconsistentTables both ways, at the first nonzero eta; the
    # budget trips at the same max_checks.
    bounds = dict(max_cyclic_order=3, max_summands=1, targets=[cyclic(2)])
    broken = loads_tables("[q_stable]\n5 = Z/2<x>\n[em_homology]\n6 = Z/3\n"
                          "[gamma]\n5.x = nonzero(2)\n", "broken")
    error = (InconsistentTables, "no admissible gamma completion exists in stem 5; "
                                 "the tables are contradictory")
    assert _outcome(survey_stem, 5, broken, **bounds) == error
    assert _outcome(survey_by_checks, 5, broken, **bounds) == error
    bounds = dict(max_cyclic_order=6, max_summands=2, targets=[cyclic(2), cyclic(4), cyclic(12)])
    for max_checks in (1, 10, 100, 716, 717):
        plain = _outcome(survey_by_checks, 3, tables, **bounds, max_checks=max_checks)
        assert _outcome(survey_stem, 3, tables, **bounds, max_checks=max_checks) == plain
        assert (plain[0] is BoundExceeded) == (max_checks < 717)


def test_contradictory_stem_is_met_only_past_the_zero_eta():
    # The zero structure map is realizable without looking at the stem's
    # completions; a nonzero eta and the whole-stem answer both reach them
    # and raise. Unvalidated tables leave stem 5 with no admissible completion.
    broken = loads_tables("[q_stable]\n5 = Z/2<x>\n[em_homology]\n6 = Z/3\n"
                          "[gamma]\n5.x = nonzero(2)\n", "broken")
    a_n = target = cyclic(2)
    gt = gamma_tilde(7, 5, a_n, broken)
    zero = TwoStagePiAlgebra(7, 5, a_n, target, GroupHom.zero(gt.group, target))
    assert check(zero, broken).status is Status.REALIZABLE
    nonzero = TwoStagePiAlgebra(7, 5, a_n, target, build_structure_map(gt, [(1,)], target))
    message = "no admissible gamma completion exists in stem 5"
    with pytest.raises(InconsistentTables, match=message):
        check(nonzero, broken)
    with pytest.raises(InconsistentTables, match=message):
        all_realizable_in_stem(5, broken)


def test_each_distinct_factorizer_is_asked_once_per_eta(monkeypatch):
    # Completions with equal gamma_c ⊗ A_n share one Factorizer; check_stable
    # and a survey row ask each distinct one once per eta, not once per
    # completion. Both reach the solver through Factorizer.rows, on eta's
    # reduced columns.
    tables, k = _oracle_tables("what-if"), 5
    asked = []
    rows = realizability.Factorizer.rows
    monkeypatch.setattr(realizability.Factorizer, "rows",
                        lambda fz, cols: asked.append((id(fz), tuple(cols))) or rows(fz, cols))

    def pairs(a_n, target):
        """(etas, each distinct factorizer with each nonzero eta's columns, once)."""
        fzs = realizability._factorizers(tables, k + 2, k, a_n, target)
        assert len(fzs) == 48 and len(set(fzs)) == 16
        etas = list(hom_group(gamma_tilde(k + 2, k, a_n, tables).group, target))
        return etas, sorted((id(fz), tuple(eta.matrix.columns())) for fz in set(fzs)
                            for eta in etas if not eta.is_zero())

    for a_n, target in ((cyclic(2), cyclic(6)), (from_cyclic_orders([2, 2]), cyclic(2))):
        etas, once = pairs(a_n, target)
        asked.clear()
        for eta in etas:
            check_stable(TwoStagePiAlgebra(k + 2, k, a_n, target, eta), tables)
        assert sorted(asked) == once
    asked.clear()
    survey_stem(k, tables, max_cyclic_order=2, max_summands=1, targets=[cyclic(2)],
                include_free=False)
    assert sorted(asked) == pairs(cyclic(2), cyclic(2))[1]


def test_survey_bounds_and_empty_targets(tables):
    with pytest.raises(BoundExceeded):
        survey_stem(3, tables, max_cyclic_order=6, max_summands=2,
                    targets=[cyclic(12)], max_checks=10)
    rep = survey_stem(3, tables, max_cyclic_order=3, max_summands=1, targets=[])
    assert rep.rows == () and rep.total_cases() == 0


# -- serialization -------------------------------------------------------------

def test_verdict_json_round_trip(tables):
    cases = []
    pa, _ = smallest_problem(tables)
    cases.append(check_stable(pa, tables))
    pa, _ = smallest_problem(tables, target=cyclic(3), nu_to=0, alpha_to=1)
    cases.append(check_stable(pa, tables))
    pa, _ = smallest_problem(tables, target=cyclic(2), nu_to=1, alpha_to=0)
    cases.append(check_stable(pa, tables))
    import json
    for v in cases:
        doc = json.loads(json.dumps(verdict_to_json(v)))
        assert verdict_from_json(doc) == v


def test_problem_from_json(tables):
    doc = {"n": 5, "k": 3, "A_n": {"rank": 1, "torsion": []},
           "A_nk": {"rank": 0, "torsion": [4]}, "eta": [[1, 0]]}
    pa = problem_from_json(doc, tables)
    assert isinstance(pa, TwoStagePiAlgebra)
    assert check(pa, tables).status is Status.NON_REALIZABLE
    doc3 = {"n": 4,
            "A_n": {"rank": 0, "torsion": [2]},
            "A_n1": {"rank": 0, "torsion": [2]},
            "A_n2": {"rank": 0, "torsion": [2]},
            "eta1": [[1]], "eta2": [[1]]}
    p3 = problem_from_json(doc3, tables)
    assert isinstance(p3, ThreeStageProblem)
    _, v = three_stage_obstruction(p3)
    assert v.status is Status.NON_REALIZABLE
    bad = dict(doc, eta=[[1, 0], [0, 0]])
    with pytest.raises(MalformedStructureMap):
        problem_from_json(bad, tables)


def test_format_semantic(tables):
    gt = gamma_tilde(5, 3, Z, tables)
    e = tables.q_stable_entry(3)
    assert format_semantic(gt, gt.group.zero()) == "0"
    assert format_semantic(gt, e.element_of("nu")) == "nu"
    assert format_semantic(gt, gt.group.smul(2, e.element_of("nu"))) == "2·nu"
    both = gt.group.add(e.element_of("nu"), e.element_of("alpha"))
    assert format_semantic(gt, both) in ("nu + alpha", "alpha + nu")
    # Every element of a few finite gamma_tilde groups, labelled through one
    # shared reduction per group, must read back as itself: parse each label
    # into c·label terms and add c·generator without going near the solver.
    for k, a_n in itertools.product((3, 7, 11), (from_cyclic_orders([4, 6]),
                                                 from_cyclic_orders([3, 9]))):
        gt = gamma_tilde(k + 2, k, a_n, tables)
        by_label = {g.label[2:] if g.label.startswith("1⊗") else g.label: g.element
                    for g in gt.generators}
        elements = list(gt.group.elements())
        assert len(elements) > 1
        for x in elements:
            label = format_semantic(gt, x)
            assert not label.startswith("["), (k, a_n, x, label)
            total = gt.group.zero()
            for term in label.split(" + ") if label != "0" else ():
                c, _, name = term.rpartition("·")
                total = gt.group.add(total, gt.group.smul(int(c or 1), by_label[name]))
            assert total == x, (k, a_n, x, label)


def test_checker_against_exhaustive_factorization(tables):
    # Independent route for the whole stem-3 pipeline: per completion,
    # search every h in Hom(A ⊗ HZ, A_nk) for h ∘ gamma_A = eta and compare
    # the quantified verdict with check_stable's.
    from helpers import exhaustive_factor_exists
    cod = tables.em(4)
    targets = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), from_cyclic_orders([2, 2])]
    for a_n in (Z, cyclic(2), cyclic(4), from_cyclic_orders([2, 2]), cyclic(9)):
        gt = gamma_tilde(5, 3, a_n, tables)
        src_tp = gt._tensor
        tgt_tp = tensor(a_n, cod)
        gammas = [tensor_induced(GroupHom.identity(a_n), c.hom,
                                 source=src_tp, target=tgt_tp)
                  for c in admissible_gamma_completions(3, tables)]
        for target in targets:
            for eta in hom_group(gt.group, target):
                pa = TwoStagePiAlgebra(5, 3, a_n, target, eta)
                v = check_stable(pa, tables)
                flags = [exhaustive_factor_exists(eta, g) is not False for g in gammas]
                if all(flags):
                    expected = Status.REALIZABLE
                elif not any(flags):
                    expected = Status.NON_REALIZABLE
                else:
                    expected = Status.UNDETERMINED
                assert v.status is expected, (a_n, target, eta.matrix.to_lists())
                if not eta.is_zero():  # the zero map short-circuits enumeration
                    assert [o.factorable for o in v.completions] == flags
