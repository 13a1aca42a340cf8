"""Regime dispatch and functoriality of gamma_tilde."""

import random

import pytest

from pialg import (
    FgAbGroup,
    GroupHom,
    MissingTableData,
    Regime,
    TRIVIAL,
    Z,
    cyclic,
    direct_sum,
    from_cyclic_orders,
    gamma_tilde,
    gamma_tilde_induced,
    loads_tables,
    merge,
    multiplication_by,
    tensor,
)

from pialg.tables import group_from_text

from helpers import random_group, random_hom


def test_k1_dispatch(tables):
    r = gamma_tilde(2, 1, cyclic(2), tables)
    assert r.group == cyclic(4) and r.regime is Regime.K1
    assert r.labels() == ("γ",)
    r = gamma_tilde(3, 1, cyclic(4), tables)
    assert r.group == cyclic(2)
    assert r.labels() == ("a1⊗eta",)
    r = gamma_tilde(7, 1, Z, tables)
    assert r.group == cyclic(2)


def test_k2_dispatch(tables):
    assert gamma_tilde(2, 2, cyclic(8), tables).group == TRIVIAL
    r = gamma_tilde(3, 2, FgAbGroup(2, ()), tables)
    assert r.group == Z and r.labels() == ("e1∧e2",) and r.regime is Regime.K2
    assert gamma_tilde(4, 2, from_cyclic_orders([8, 5]), tables).group == TRIVIAL
    assert gamma_tilde(9, 2, Z, tables).group == TRIVIAL


def test_stable_dispatch(tables):
    r = gamma_tilde(5, 3, Z, tables)
    assert r.regime is Regime.STABLE
    assert r.group == from_cyclic_orders([12])
    assert r.labels() == ("1⊗nu", "1⊗alpha")
    assert tuple(g.order for g in r.generators) == (4, 3)
    # independent of n in the stable range
    r9 = gamma_tilde(9, 3, Z, tables)
    assert (r9.group, r9.labels()) == (r.group, r.labels())
    assert [g.element for g in r9.generators] == [g.element for g in r.generators]


def test_stable_tensor_formula(tables):
    a = from_cyclic_orders([8])
    r = gamma_tilde(6, 3, a, tables)
    # Z/8 ⊗ Q_3^S = Z/8 ⊗ Z/12 = Z/4
    assert r.group == tensor(a, from_cyclic_orders([12])).group == from_cyclic_orders([4])


def test_metastable_dispatch(tables):
    r = gamma_tilde(2, 1, cyclic(2), tables)  # n=2, k=1 is the Gamma case
    assert r.group == cyclic(4)
    with pytest.raises(MissingTableData):
        gamma_tilde(4, 3, cyclic(2), tables)  # Q_3{S^4} not tabulated
    qm_overlay = loads_tables("[metastable_qm]\n4 = pi5S3\n", "qm")
    t2 = merge(tables, qm_overlay)
    r = gamma_tilde(4, 3, cyclic(2), t2)
    assert r.regime is Regime.METASTABLE
    assert r.group == cyclic(2)  # Z/2 ⊗q pi5S3


def test_unstable_dispatch(tables):
    assert gamma_tilde(2, 2, Z, tables).group == TRIVIAL  # Q_{2,2} = 0, K2 regime
    r = gamma_tilde(2, 5, Z, tables)  # Q_{5,2} = 0 by the eta rule
    assert r.group == TRIVIAL and r.regime is Regime.UNSTABLE_TABULATED
    with pytest.raises(MissingTableData):
        gamma_tilde(3, 4, Z, tables)  # Q_{4,3} not tabulated
    overlay = loads_tables("[q_unstable]\n4,3 = Z/2\n", "qu")
    t2 = merge(tables, overlay)
    r = gamma_tilde(3, 4, Z, t2)
    assert r.group == cyclic(2) and r.regime is Regime.UNSTABLE_TABULATED


def test_input_validation(tables):
    with pytest.raises(ValueError):
        gamma_tilde(1, 1, Z, tables)
    with pytest.raises(ValueError):
        gamma_tilde(2, 0, Z, tables)


def test_missing_stem_errors(tables):
    with pytest.raises(MissingTableData):
        gamma_tilde(12, 8, Z, tables)  # Q_8^S not tabulated


def test_induced_identity_and_stable(tables):
    a = from_cyclic_orders([4, 3])
    ind = gamma_tilde_induced(6, 3, GroupHom.identity(a), tables)
    assert ind.is_identity()
    f = multiplication_by(2, Z)
    ind = gamma_tilde_induced(6, 3, f, tables)
    # stable regime is additive: f ⊗ id multiplies by 2
    assert ind == multiplication_by(2, gamma_tilde(6, 3, Z, tables).group)


def test_induced_metastable_quadratic(tables):
    ind = gamma_tilde_induced(2, 1, multiplication_by(2, Z), tables)
    assert ind.matrix.to_lists() == [[4]]  # Gamma is quadratic


def test_induced_unstable_tabulated(tables):
    t = merge(tables, loads_tables("[q_unstable]\n4,3 = Z/2\n", "qu"))
    f = GroupHom.from_columns(cyclic(4), cyclic(2), [(1,)])
    ind = gamma_tilde_induced(3, 4, f, t)
    assert ind.source == gamma_tilde(3, 4, cyclic(4), t).group
    assert ind.target == gamma_tilde(3, 4, cyclic(2), t).group
    assert ind.matrix.to_lists() == [[1]]
    with pytest.raises(MissingTableData):
        gamma_tilde_induced(3, 5, f, tables)


def test_named_group_literals_keep_their_labels(tables):
    def labels(text):
        return gamma_tilde(5, 3, group_from_text(text), tables).labels()

    assert labels("Z/4<x>") == ("x⊗nu", "x⊗alpha")
    # canonical order is torsion first; the names follow their summands
    assert labels("Z<x> + Z/4<t>") == ("t⊗nu", "t⊗alpha", "x⊗nu", "x⊗alpha")
    # Z/2 + Z/3 is canonically Z/6, a generator neither name belongs to
    assert labels("Z/2<a> + Z/3<b>") == ("a1⊗nu", "a1⊗alpha")


def test_induced_composition(tables):
    rng = random.Random(23)
    tables = merge(tables, loads_tables("[metastable_qm]\n4 = pi5S3\n", "meta4"))
    for n, k in [(6, 3), (2, 1), (3, 2), (6, 1), (4, 2), (4, 3)]:
        for _ in range(8):
            a = random_group(rng, 6, allow_free=False)
            b = random_group(rng, 6, allow_free=False)
            c = random_group(rng, 6, allow_free=False)
            f = random_hom(rng, a, b)
            g = random_hom(rng, b, c)
            lhs = gamma_tilde_induced(n, k, g @ f, tables)
            rhs = gamma_tilde_induced(n, k, g, tables) @ gamma_tilde_induced(n, k, f, tables)
            assert lhs == rhs, (n, k, a, b, c)


def test_stable_additivity_vs_metastable_failure(tables):
    a, b = cyclic(2), cyclic(6)
    # stable: gamma_tilde(A + B) = gamma_tilde(A) + gamma_tilde(B)
    ds = direct_sum(a, b)
    whole = gamma_tilde(6, 3, ds.group, tables).group
    parts = direct_sum(gamma_tilde(6, 3, a, tables).group,
                       gamma_tilde(6, 3, b, tables).group).group
    assert whole == parts
    # metastable n=2, k=1: additivity fails and the defect is A ⊗ B
    whole = gamma_tilde(2, 1, direct_sum(a, a).group, tables).group
    parts = direct_sum(gamma_tilde(2, 1, a, tables).group,
                       gamma_tilde(2, 1, a, tables).group).group
    assert whole != parts
    cross = tensor(a, a).group
    assert whole == direct_sum(parts, cross).group


def test_q2_consistency(tables):
    # Q_{2,2} = 0 and Q_2^S = 0 agree with the k=2 dispatch being zero
    assert tables.q_unstable_group(2, 2).is_trivial
    assert tables.q_stable_entry(2).group.is_trivial
    for n in (2, 4, 5, 9):
        assert gamma_tilde(n, 2, from_cyclic_orders([4]), tables).group.is_trivial
