"""Quadratic modules and quadratic tensor products against the brute-force oracle."""

import random

import pytest

from pialg import (
    BoundExceeded,
    FgAbGroup,
    GroupHom,
    PI5_S3,
    QuadraticModule,
    TRIVIAL,
    Z,
    Z_GAMMA,
    Z_LAMBDA,
    brute_force_quad_tensor,
    cyclic,
    direct_sum,
    exterior_square,
    from_cyclic_orders,
    kernel,
    multiplication_by,
    quad_tensor,
    quad_tensor_induced,
    stack_homs,
    tensor,
    whitehead_gamma,
)
from pialg.intlinalg import IntMatrix
from pialg.quadratic import quadratic_module_from_json, quadratic_module_to_json

from helpers import all_abelian_group_orders_up_to, random_hom

MODULES = {"Z_Gamma": Z_GAMMA, "Z_Lambda": Z_LAMBDA, "pi5S3": PI5_S3}


def test_axioms_validated():
    # H = P = id on Z violates PHP = 2P
    with pytest.raises(ValueError):
        QuadraticModule(Z, Z, GroupHom.identity(Z), GroupHom.identity(Z))
    for m in MODULES.values():
        m.involution()  # also asserts T^2 = 1, PT = P, TH = H


def test_involution_values():
    assert Z_GAMMA.involution().matrix.to_lists() == [[1]]
    assert Z_LAMBDA.involution().matrix.to_lists() == [[-1]]
    assert PI5_S3.involution().matrix.to_lists() == [[-1]]


def test_free_decomposition():
    assert quad_tensor(FgAbGroup(1, ()), Z_GAMMA).group == Z
    assert quad_tensor(FgAbGroup(2, ()), Z_LAMBDA).group == Z
    assert quad_tensor(FgAbGroup(0, ()), PI5_S3).group == TRIVIAL
    # s copies of Me plus one Mee per unordered pair
    r = quad_tensor(FgAbGroup(3, ()), PI5_S3)
    assert r.group == from_cyclic_orders([2, 2, 2, 0, 0, 0])
    assert len(r.e_gens) == 3 and len(r.ee_gens) == 3


def test_quad_tensor_key_values():
    assert quad_tensor(cyclic(2), Z_GAMMA).group == cyclic(4)
    assert quad_tensor(cyclic(3), Z_LAMBDA).group == TRIVIAL
    assert whitehead_gamma(Z).group == Z
    assert whitehead_gamma(TRIVIAL).group == TRIVIAL
    assert exterior_square(FgAbGroup(3, ())).group == FgAbGroup(3, ())
    assert brute_force_quad_tensor(from_cyclic_orders([2, 2]), Z_LAMBDA) == cyclic(2)
    assert brute_force_quad_tensor(TRIVIAL, Z_GAMMA) == TRIVIAL


def test_oracle_equivalence_sample():
    # the acceptance suite sweeps every group of order <= 16; spot-check here
    for orders in [(), (2,), (3,), (4,), (2, 2), (6,), (2, 4), (9,)]:
        a = from_cyclic_orders(list(orders))
        for m in MODULES.values():
            assert quad_tensor(a, m).group == brute_force_quad_tensor(a, m)


def test_gamma_is_not_additive():
    a = cyclic(2)
    sum_group = from_cyclic_orders([2, 2])
    gamma_sum = brute_force_quad_tensor(sum_group, Z_GAMMA)
    gamma_parts = from_cyclic_orders([4, 4])
    assert gamma_sum != gamma_parts
    assert gamma_sum == from_cyclic_orders([4, 4, 2])  # cross term Z/2


def _cross_term(a, b, m):
    ds = direct_sum(a, b)
    pa = quad_tensor_induced(ds.projections[0], m)
    pb = quad_tensor_induced(ds.projections[1], m)
    stacked, _ = stack_homs([pa, pb])
    k, _ = kernel(stacked)
    return k


def test_cross_term_is_biadditive():
    groups = [cyclic(2), cyclic(3), cyclic(4), from_cyclic_orders([2, 2])]
    for m in (Z_GAMMA, Z_LAMBDA):
        for a in groups[:3]:
            for b in groups[:3]:
                # Gamma's cross term is the plain tensor product
                if m is Z_GAMMA:
                    assert _cross_term(a, b, m) == tensor(a, b).group
        a1, a2, b = cyclic(2), cyclic(3), cyclic(4)
        left = _cross_term(from_cyclic_orders([2, 3]), b, m)
        split = from_cyclic_orders(
            list(_cross_term(a1, b, m).torsion) + list(_cross_term(a2, b, m).torsion))
        assert left == split


def test_quadratic_scaling():
    # gamma(c·a) = c²·gamma(a) on Z
    for c in (-3, -1, 0, 2, 5):
        ind = quad_tensor_induced(multiplication_by(c, Z), Z_GAMMA)
        assert ind.matrix.to_lists() == [[c * c]]
    # the exterior square scales by c² on rank 2 as well
    ind = quad_tensor_induced(multiplication_by(3, FgAbGroup(2, ())), Z_LAMBDA)
    assert ind.matrix.to_lists() == [[9]]


def test_induced_functoriality():
    rng = random.Random(17)
    groups = [cyclic(2), cyclic(4), from_cyclic_orders([2, 2]), cyclic(3), cyclic(6)]
    for m in MODULES.values():
        for _ in range(12):
            a, b, c = (rng.choice(groups) for _ in range(3))
            f = random_hom(rng, a, b)
            g = random_hom(rng, b, c)
            assert quad_tensor_induced(g @ f, m) == \
                quad_tensor_induced(g, m) @ quad_tensor_induced(f, m)
        assert quad_tensor_induced(GroupHom.identity(cyclic(4)), m).is_identity()


def _quad_tensor_induced_per_column(f, m):
    # The per-column construction quad_tensor_induced replaced, kept as its reference.
    src, tgt = quad_tensor(f.source, m), quad_tensor(f.target, m)
    ind = src._fqt.induced_matrix(f.matrix, tgt._fqt)
    cols = [tgt.group.reduce(tgt._canon.quotient.matrix.mul_vec(ind.mul_vec(src._canon.section.col(g))))
            for g in range(src.group.dim)]
    return GroupHom.from_columns(src.group, tgt.group, cols)


def test_quad_tensor_induced_equals_the_per_column_lift():
    rng = random.Random(31)
    groups = [TRIVIAL, Z, cyclic(2), cyclic(4), cyclic(6), from_cyclic_orders([2, 2]),
              from_cyclic_orders([0, 2])]
    for m in MODULES.values():
        for _ in range(20):
            f = random_hom(rng, rng.choice(groups), rng.choice(groups))
            assert quad_tensor_induced(f, m) == _quad_tensor_induced_per_column(f, m)


def test_induced_functoriality_exhaustive_at_order_four():
    # every composable pair of maps among Z/2 and Z/4
    from pialg import hom_group
    small = [cyclic(2), cyclic(4)]
    for m in (Z_GAMMA, Z_LAMBDA):
        for a in small:
            for b in small:
                for c in small:
                    for f in hom_group(a, b):
                        for g in hom_group(b, c):
                            assert quad_tensor_induced(g @ f, m) == \
                                quad_tensor_induced(g, m) @ quad_tensor_induced(f, m)


def test_induced_lift_independence():
    # replacing the matrix of f by another integer lift of the same map
    # cannot change the induced map; simulate by comparing f with f + order
    a = cyclic(2)
    f = GroupHom.from_columns(a, cyclic(4), [(2,)])
    qa = quad_tensor(a, Z_GAMMA)
    qb = quad_tensor(cyclic(4), Z_GAMMA)
    ind = quad_tensor_induced(f, Z_GAMMA, source=qa, target=qb)
    shifted = GroupHom(a, cyclic(4), IntMatrix.from_rows([[6]]))  # 6 = 2 mod 4
    assert quad_tensor_induced(shifted, Z_GAMMA, source=qa, target=qb) == ind


def test_natural_generator_bookkeeping():
    r = whitehead_gamma(cyclic(2))
    (label, elem), = r.natural_generators()
    assert label == "γ" and r.group.element_order(elem) == 4
    r = exterior_square(FgAbGroup(2, ()))
    (label, elem), = r.natural_generators()
    assert label == "e1∧e2" and elem == (1,)


def test_brute_force_bounds():
    with pytest.raises(BoundExceeded):
        brute_force_quad_tensor(Z, Z_GAMMA)
    with pytest.raises(BoundExceeded):
        brute_force_quad_tensor(from_cyclic_orders([16, 16]), Z_GAMMA, max_symbols=100)


def test_module_json_round_trip():
    for m in MODULES.values():
        doc = quadratic_module_to_json(m)
        back = quadratic_module_from_json(doc)
        assert back.me == m.me and back.mee == m.mee
        assert back.h == m.h and back.p == m.p


def test_all_small_groups_match_oracle_for_pi5s3():
    for orders in all_abelian_group_orders_up_to(8):
        a = from_cyclic_orders(orders)
        assert quad_tensor(a, PI5_S3).group == brute_force_quad_tensor(a, PI5_S3)


def test_modules_with_torsion_coefficients():
    # no builtin has torsion in Mee; build valid modules that do and compare
    # against the oracle on all groups of order <= 8
    lambda_mod2 = QuadraticModule(TRIVIAL, cyclic(2),
                                  GroupHom.zero(TRIVIAL, cyclic(2)),
                                  GroupHom.zero(cyclic(2), TRIVIAL))
    h_id = QuadraticModule(cyclic(2), cyclic(2),
                           GroupHom.identity(cyclic(2)),
                           GroupHom.zero(cyclic(2), cyclic(2)))
    mixed = QuadraticModule(cyclic(2), from_cyclic_orders([0, 2]),
                            GroupHom.from_columns(cyclic(2), from_cyclic_orders([0, 2]),
                                                  [(1, 0)]),
                            GroupHom.zero(from_cyclic_orders([0, 2]), cyclic(2)))
    for m in (lambda_mod2, h_id, mixed):
        m.involution()
        for orders in all_abelian_group_orders_up_to(8):
            a = from_cyclic_orders(orders)
            assert quad_tensor(a, m).group == brute_force_quad_tensor(a, m), (orders, m)
    # exterior square with Z/2 coefficients on a free group: one pair block
    assert quad_tensor(FgAbGroup(3, ()), lambda_mod2).group == from_cyclic_orders([2, 2, 2])
