"""Table defaults, the overlay format, merging, and consistency validation."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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
    gamma_tilde,
    loads_tables,
    merge,
    verify_pi_ring_relations,
)
from pialg.tables import _candidate_images

from helpers import candidate_images_by_state, completion_homs_by_solve


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


_KNOWLEDGE = st.one_of(
    st.none(), st.just(GammaKnowledge.zero()), st.integers(2, 12).map(GammaKnowledge.nonzero),
    st.integers(1, 12).map(GammaKnowledge.unknown), st.just("known"))


@given(orders=st.lists(st.integers(2, 12), max_size=3), d=st.integers(0, 12), know=_KNOWLEDGE,
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_candidate_images_equal_the_per_state_filter(orders, d, know, data):
    # Codomains with and without squarefree torsion (Z/4, Z/12, ...), generator
    # orders including 0 (infinite) and 1, and every knowledge state.
    cod = from_cyclic_orders(orders)
    if know == "known":
        know = GammaKnowledge.known(data.draw(st.lists(st.integers(-30, 30), min_size=cod.dim,
                                                       max_size=cod.dim)))
    assert _candidate_images(know, d, cod) == candidate_images_by_state(know, d, cod)


# The what-if stems of the benchmark's checks stream, and a free generator beside a
# composite-order one: (Q_k^S, HZ_{k+1}HZ), each generator's gamma state drawn below.
_WHAT_IF = (("Z/2<a> + Z/2<b> + Z/3<c>", "Z/2 + Z/6"), ("Z/2<a> + Z/3<c>", "Z/2 + Z/6"),
            ("Z/6<a>", "Z/2 + Z/6"), ("Z/4<a> + Z/2<b> + Z/3<c>", "Z/6"),
            ("Z<x> + Z/6<y>", "Z/2 + Z/6"), ("Z/4<nu> + Z/3<alpha>", "Z/2 + Z/3"))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _completions_match_the_solve(t):
    stems = [k for k, entry in t.q_stable.items() if entry.complete and t.em(k + 1) is not None]
    for k in stems:
        comps = admissible_gamma_completions(k, t)
        assert [c.hom for c in comps] == completion_homs_by_solve(k, t, comps)
    return stems


@given(case=st.sampled_from(_WHAT_IF), stem=st.sampled_from((4, 5, 6)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_completion_homs_equal_the_factorizer_solve(tables, case, stem, data):
    # Each completion's hom is read off Q_k^S's section; the solve it replaced must agree.
    q_text, em_text = case
    cod = loads_tables(f"[em_homology]\n1 = {em_text}\n", "em").em(1)
    e = cod.exponent()
    lines = ["[q_stable]", f"{stem} = {q_text}", "[em_homology]", f"{stem + 1} = {em_text}",
             "[gamma]"]
    for d, name in loads_tables(f"[q_stable]\n{stem} = {q_text}\n", "q").q_stable[stem].summands:
        states = [None, "zero", *(f"unknown({b})" for b in _divisors(e)),
                  *(f"nonzero({q})" for q in _divisors(gcd(d, e)) if q > 1),
                  *(f"known [{', '.join(map(str, x))}]" for x in cod.elements_killed_by(d))]
        state = data.draw(st.sampled_from(states))
        if state is not None:
            lines.append(f"{stem}.{name} = {state}")
    t = merge(tables, loads_tables("\n".join(lines) + "\n", "what-if"))
    assert stem in _completions_match_the_solve(t)


def test_completion_homs_equal_the_solve_on_the_default_and_alpha_stems(tables):
    assert _completions_match_the_solve(tables) == [3]
    # The alpha family at p = 5 over the 3-primary one, each stem made complete over Z/15.
    t = merge(tables, alpha_family_overlay(5, 3))
    partial = {k: e for k, e in t.q_stable.items() if not e.complete}
    t = merge(t, StableTables(q_stable={k: TabulatedGroup(e.summands) for k, e in partial.items()},
                              em_homology={k + 1: from_cyclic_orders([15]) for k in partial}))
    assert sorted(partial) == [7, 11, 15, 23]
    assert _completions_match_the_solve(t) == [3, 7, 11, 15, 23]


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
    # The rule always holds: there is no [options] section to switch it off.
    with pytest.raises(TableFormatError, match=r"^o2:1: unknown section 'options'"):
        loads_tables("[options]\ntorsion_exponent_rule = off\n[em_homology]\n2 = Z/4\n", "o2")


@pytest.mark.parametrize("overlay", ["[q_stable]\n5 = Z<x>\n[em_homology]\n6 = Z\n",
                                     "[em_homology]\n4 = Z\n"], ids=["stem5", "stem3"])
def test_infinite_em_homology_rejected(tables, overlay):
    # HZ_mHZ is finite for m >= 1, so a free summand there is an error in
    # the tables, not a group to enumerate completions into.
    with pytest.raises(InconsistentTables, match="is infinite"):
        merge(tables, loads_tables(overlay, "inf"))
    assert merge(tables, loads_tables("[em_homology]\n0 = Z\n", "hz0")).em(0) == Z


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
    with pytest.raises(TableFormatError, match=r"^ov\.tbl:2: duplicate generator names"):
        loads_tables("[em_homology]\n4 = Z/2<x> + Z/3<x>\n", "ov.tbl")
    # JSON nested past the recursion limit, where json.loads raises RecursionError.
    for section, head in (("metastable_qm", ""), ("em_homology", '{"torsion": ')):
        with pytest.raises(TableFormatError, match=r"^deep\.tbl:2: maximum recursion depth"):
            loads_tables(f"[{section}]\n4 = {head}{'[' * 100_000}\n", "deep.tbl")


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
    with pytest.raises(TableFormatError, match="duplicate generator names"):
        group_from_text("Z/2<x> + Z/4<x>")
    assert group_from_text("Z/2 + Z/4").gen_labels is None


@pytest.mark.parametrize("literal", [
    '{"rank": 1.5}', '{"rank": -1}', '{"rank": true}', '{"rank": "1"}',
    '{"torsion": 4}', '{"torsion": [2.0]}', '{"torsion": [1]}', '{"torsion": [0]}',
    '{"torsion": [true]}',
    # only rank and torsion: names go in the text form, and a misspelled key is no default
    '{"rank": 1, "labels": ["x"]}', '{"torsoin": [2]}',
])
def test_json_group_literals_must_hold_integers(literal):
    from pialg.tables import group_from_text
    with pytest.raises(TableFormatError):
        group_from_text(literal)
    with pytest.raises(TableFormatError):
        loads_tables(f"[em_homology]\n4 = {literal}\n", "f")


def test_json_group_literal_orders_need_not_chain():
    from pialg.tables import group_from_text
    assert group_from_text('{"torsion": [2, 3]}') == cyclic(6)
    assert group_from_text('{"rank": 2}') == FgAbGroup(2, ())


def test_defaults_are_built_once_per_process(monkeypatch):
    from pialg import fgab, load_defaults

    def groups(t):
        return ([e.group for e in (*t.pi_stable.values(), *t.q_stable.values())]
                + list(t.em_homology.values()))

    first = load_defaults()
    groups(first)
    calls = []
    original = fgab.canonicalize_full
    monkeypatch.setattr(fgab, "canonicalize_full", lambda p: calls.append(p) or original(p))
    second = load_defaults()
    assert groups(second) == groups(first)
    assert calls == []
    assert second == first and second is not first
    assert second._memo == {} and first._memo is not second._memo


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


@pytest.mark.parametrize("body", ["[q_stable]\n5 = Z/2<x> + Z/3<x>\n",
                                  "[gamma]\n5.x = nonzero(1)\n",
                                  "[gamma]\n3.nu = unknown(0)\n"])
def test_inconsistent_overlay_lines_name_their_file_and_line(body):
    with pytest.raises(InconsistentTables, match=r"^ov\.tbl:2: "):
        loads_tables(body, "ov.tbl")


def test_defaults_dump_is_pinned(tables):
    import hashlib
    assert hashlib.sha256(dumps_tables(tables).encode()).hexdigest() == \
        "3fc56e5d62a0a479e0c12d6d014024f2016da7d43d4f99674f2f31022e5d4df8"


EVERY_SECTION = """[pi_stable]
7 = Z/240<sigma>

[q_stable]
5 = Z/2<x> + Z/3<y> (partial)

[q_unstable]
4,3 = Z/2

[em_homology]
6 = Z/2 + Z/12

[metastable_qm]
4 = {"Me": {"rank": 1, "torsion": []}, "Mee": {"rank": 1, "torsion": []}, "H": [[2]], "P": [[1]]}
5 = Z_Lambda

[gamma]
5.x = nonzero(2)
5.y = known [0, 4]

[pi_products]
1.eta * 1.eta = [1]
1.eta * 3.nu = []
"""


def test_round_trip_of_every_section(tables):
    t = loads_tables(EVERY_SECTION, "every")
    assert dumps_tables(t) == EVERY_SECTION.rstrip("\n") + "\n"
    assert loads_tables(dumps_tables(t), "again") == t
    assert t.metastable_qm[5] == tables.metastable_qm[3]
    assert t.gamma[(5, "y")] == GammaKnowledge.known([0, 4])
    assert t.pi_products[((1, "eta"), (3, "nu"))] == ()


@pytest.mark.parametrize("mee", ['{"rank": 1, "torsion": []}', '{"rank": 0, "torsion": [2]}'])
def test_round_trip_keeps_quadratic_module_labels(tables, mee):
    # Me = Z/2<x> with H = P = 0: for Mee = Z this equals the builtin pi5S3
    # (Me = Z/2<eta2>) up to labels, so a dump that wrote the builtin's name,
    # or Me without its labels, would relabel gamma_tilde.
    t = loads_tables('[metastable_qm]\n4 = {"Me": {"rank": 0, "torsion": [2], "labels": ["x"]}, '
                     f'"Mee": {mee}, "H": [[0]], "P": [[0]]}}\n', "qm")
    for u in (t, loads_tables(dumps_tables(t), "again")):
        assert gamma_tilde(4, 3, cyclic(2), merge(tables, u)).labels() == ("a1⊗x",)


def test_coordinate_lists():
    t = loads_tables("[gamma]\n3.nu = known[ 1 , -2 ]\n3.alpha = known []\n"
                     "[pi_products]\n1.eta * 3.nu = [ ]\n", "ok")
    assert t.gamma[(3, "nu")].value == (1, -2) and t.gamma[(3, "alpha")].value == ()
    assert t.pi_products[((1, "eta"), (3, "nu"))] == ()
    for value in ("known [3,]", "known [,3]", "known 3", "known [1 2]", "known [[1]]",
                  "known [1_0]"):
        with pytest.raises(TableFormatError, match=r"^ov\.tbl:2: "):
            loads_tables(f"[gamma]\n3.nu = {value}\n", "ov.tbl")
    for value in ("1", "[[1]]", "[1,]", "[1", "(1)", "[a]"):
        with pytest.raises(TableFormatError, match=r"^ov\.tbl:2: "):
            loads_tables(f"[pi_products]\n1.eta * 1.eta = {value}\n", "ov.tbl")
