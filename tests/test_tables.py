"""Table defaults, the overlay format, merging, and consistency validation."""

import pytest

from pialg import (
    FgAbGroup,
    GammaKnowledge,
    InconsistentTables,
    MissingTableData,
    StableTables,
    TRIVIAL,
    TableFormatError,
    TabulatedGroup,
    Z,
    admissible_gamma_completions,
    alpha_family_overlay,
    cyclic,
    dumps_tables,
    from_cyclic_orders,
    loads_tables,
    merge,
    verify_pi_ring_relations,
)


def test_default_values(tables):
    assert tables.q_stable_entry(3).group == from_cyclic_orders([12])
    assert [d for d, _ in tables.q_stable_entry(3).summands] == [4, 3]
    assert tables.q_stable_entry(3).names == ("nu", "alpha")
    assert tables.em(4) == from_cyclic_orders([2, 3])
    assert tables.q_stable_entry(2).group.is_trivial
    assert tables.q_stable_entry(0).group == Z
    assert tables.pi_stable[3].group == from_cyclic_orders([24])
    assert tables.pi_stable[6].group == cyclic(2)
    assert not tables.q_stable_entry(7).complete
    assert tables.q_stable_entry(7).order_of("alpha_2") == 3
    assert tables.q_stable_entry(11).order_of("alpha_3/2") == 9
    assert tables.gamma[(7, "alpha_2")].state == "zero"
    assert tables.gamma[(3, "nu")] == GammaKnowledge.unknown(2)
    assert tables.gamma[(3, "alpha")] == GammaKnowledge.nonzero(3)
    assert tables.exponent_rule_enabled


def test_unstable_rule(tables):
    assert tables.q_unstable_group(2, 2) == TRIVIAL
    for k in (2, 3, 9):
        assert tables.q_unstable_group(k, 2) == TRIVIAL
    assert tables.q_unstable_group(4, 3) is None


def test_tabulated_group_bookkeeping(tables):
    e = tables.q_stable_entry(3)
    nu = e.element_of("nu")
    alpha = e.element_of("alpha")
    assert e.group.element_order(nu) == 4
    assert e.group.element_order(alpha) == 3
    assert e.group.add(nu, alpha) != e.group.zero()


def test_tabulated_group_validation():
    with pytest.raises(InconsistentTables):
        TabulatedGroup(((2, "x"), (4, "x")))  # duplicate names
    with pytest.raises(InconsistentTables):
        TabulatedGroup(((1, "x"),))
    with pytest.raises(InconsistentTables):
        TabulatedGroup(((2, "bad name"),))


def test_ring_relations(tables):
    assert verify_pi_ring_relations(tables) == []
    broken = merge(tables, StableTables(
        pi_products={((1, "eta"), (2, "eta^2")): (0, 0)}))
    assert any("eta^3" in msg for msg in verify_pi_ring_relations(broken))


def test_completion_counts(tables):
    assert len(admissible_gamma_completions(3, tables)) == 4
    assert len(admissible_gamma_completions(2, tables)) == 1
    with pytest.raises(MissingTableData):
        admissible_gamma_completions(1, tables)  # HZ_2HZ untabulated
    with pytest.raises(MissingTableData):
        admissible_gamma_completions(7, tables)  # partial stem
    with pytest.raises(MissingTableData):
        admissible_gamma_completions(9, tables)  # no entry at all


def test_known_entries_are_fixed_points(tables):
    t = merge(tables, loads_tables("[gamma]\n3.nu = known [3]\n3.alpha = known [2]\n", "k"))
    comps = admissible_gamma_completions(3, t)
    assert len(comps) == 1
    assert dict(comps[0].assignment) == {"nu": (3,), "alpha": (2,)}


def test_completions_respect_states(tables):
    cod = tables.em(4)
    for comp in admissible_gamma_completions(3, tables):
        a = dict(comp.assignment)
        assert cod.element_order(a["alpha"]) == 3
        assert cod.element_order(a["nu"]) in (1, 2)
        # the hom actually sends the named generators there
        e = tables.q_stable_entry(3)
        assert comp.hom.apply(e.element_of("nu")) == a["nu"]
        assert comp.hom.apply(e.element_of("alpha")) == a["alpha"]


def test_round_trip(tables):
    text = dumps_tables(tables)
    again = loads_tables(text, "rt")
    assert again == tables
    assert dumps_tables(again) == text


def test_merge_overrides_and_identity(tables):
    assert merge(tables, loads_tables("", "empty")) == tables
    t2 = merge(tables, loads_tables("[gamma]\n3.nu = zero\n", "o"))
    assert t2.gamma[(3, "nu")].state == "zero"
    assert t2.gamma[(3, "alpha")] == tables.gamma[(3, "alpha")]
    comps = admissible_gamma_completions(3, t2)
    assert len(comps) == 2
    # zero entries are reproduced exactly in every completion
    for c in comps:
        assert dict(c.assignment)["nu"] == (0,)


def test_table_mappings_are_read_only():
    gamma = {(1, "eta"): GammaKnowledge.nonzero(2)}
    t = StableTables(q_stable={1: TabulatedGroup(((2, "eta"),))}, gamma=gamma)
    gamma[(1, "eta")] = GammaKnowledge.zero()  # the tables hold a copy
    assert t.gamma[(1, "eta")] == GammaKnowledge.nonzero(2)
    for name in ("pi_stable", "q_stable", "q_unstable", "em_homology", "metastable_qm",
                 "gamma", "pi_products"):
        with pytest.raises(TypeError):
            getattr(t, name)[0] = None


def test_unknown_bound_must_divide_codomain_exponent(tables):
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[gamma]\n3.nu = unknown(4)\n", "b"))
    ok = merge(tables, loads_tables("[gamma]\n3.nu = unknown(1)\n", "o"))
    comps = admissible_gamma_completions(3, ok)
    assert len(comps) == 2  # bound 1 forces gamma(nu) = 0


def test_inconsistency_rejections(tables):
    # order bound exceeding the codomain exponent
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[em_homology]\n2 = Z/2\n[gamma]\n1.eta = nonzero(4)\n", "b"))
    # generator order incompatible
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[gamma]\n3.alpha = nonzero(2)\n", "b2"))
    # gamma for an absent stem / generator
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[gamma]\n9.sigma = zero\n", "b3"))
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[gamma]\n3.sigma = zero\n", "b4"))
    # a known value of compatible order is accepted
    ok = merge(tables, loads_tables("[em_homology]\n2 = Z/2\n[gamma]\n1.eta = known [1]\n", "ok"))
    assert ok.gamma[(1, "eta")].state == "known"
    # known entries require the codomain to be tabulated
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[gamma]\n7.alpha_2 = known [1]\n", "b5"))


def test_exponent_rule(tables):
    with pytest.raises(InconsistentTables):
        merge(tables, loads_tables("[em_homology]\n2 = Z/4\n", "b"))
    ok = merge(tables, loads_tables("[em_homology]\n2 = Z/2\n", "o"))
    assert ok.em(2) == cyclic(2)
    off = merge(tables, loads_tables("[options]\ntorsion_exponent_rule = off\n"
                                     "[em_homology]\n2 = Z/4\n", "o2"))
    assert off.em(2) == cyclic(4)
    assert not off.exponent_rule_enabled


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TableFormatError) as exc:
        loads_tables("[q_stable]\n3 = Z/nope\n", "file.tbl")
    assert "file.tbl:2" in str(exc.value)
    with pytest.raises(TableFormatError):
        loads_tables("stray = 1\n", "f")
    with pytest.raises(TableFormatError):
        loads_tables("[nonsense]\n", "f")
    with pytest.raises(TableFormatError):
        loads_tables("[gamma]\n3.nu = maybe\n", "f")


def test_group_literal_grammar():
    from pialg.tables import group_from_text, parse_group_text
    assert group_from_text("0") == TRIVIAL
    assert group_from_text("Z") == Z
    assert group_from_text("Z^3") == FgAbGroup(3, ())
    assert group_from_text("Z/4 + Z/3") == from_cyclic_orders([12])
    assert parse_group_text("Z/4<nu> + Z/3<alpha>") == [(4, "nu"), (3, "alpha")]
    assert group_from_text('{"rank": 1, "torsion": [2]}') == FgAbGroup(1, (2,))
    with pytest.raises(TableFormatError):
        group_from_text("Z/1")
    with pytest.raises(TableFormatError):
        group_from_text("Z^2<x>")


def test_alpha_family_overlay(tables):
    with pytest.raises(InconsistentTables):
        alpha_family_overlay(3, 2)
    with pytest.raises(InconsistentTables):
        alpha_family_overlay(6, 2)
    ov = alpha_family_overlay(5, 3)
    t = merge(tables, ov)
    # stem 7 now carries both the 3- and 5-primary generators
    assert t.q_stable_entry(7).names == ("alpha_2", "alpha_1_p5")
    assert t.gamma[(7, "alpha_1_p5")] == GammaKnowledge.nonzero(5)
    assert t.gamma[(7, "alpha_2")].state == "zero"
    # stem 23 is new: alpha_3 at p=5
    assert t.q_stable_entry(23).names == ("alpha_3_p5",)
    assert t.gamma[(23, "alpha_3_p5")].state == "zero"
    # i = 5 would give alpha_{5/2}; check the divided-order bookkeeping
    ov2 = alpha_family_overlay(5, 5)
    assert ov2.q_stable[39].order_of("alpha_5/2_p5") == 25
    assert ov2.gamma[(39, "alpha_5/2_p5")] == GammaKnowledge.unknown(5)


def test_metastable_qm_overlay_json(tables):
    text = ('[metastable_qm]\n'
            '4 = {"Me": {"rank": 0, "torsion": [2]}, "Mee": {"rank": 1, "torsion": []}, '
            '"H": [[0]], "P": [[0]]}\n')
    t = merge(tables, loads_tables(text, "qm"))
    qm = t.metastable_module(4)
    assert qm.me == cyclic(2) and qm.mee == Z
    # a non-module is rejected at parse time
    bad = ('[metastable_qm]\n'
           '4 = {"Me": {"rank": 1, "torsion": []}, "Mee": {"rank": 1, "torsion": []}, '
           '"H": [[1]], "P": [[1]]}\n')
    with pytest.raises(TableFormatError):
        loads_tables(bad, "qm2")
