"""The homotopy-operation functor for two-stage input data.

``gamma_tilde(n, k, A)`` is the abelian group whose maps into A_{n+k}
classify the operation structure of a system concentrated in degrees n and
n + k. The regimes:

    k = 1:        Gamma(A) for n = 2, A ⊗ Z/2 for n >= 3
    k = 2:        exterior square for n = 3, zero otherwise
    k = n - 1:    A ⊗q Q_{n-1}{S^n}   (metastable; quadratic module from tables)
    k <= n - 2:   A ⊗ Q_k^S           (stable; independent of n)
    otherwise:    A ⊗ Q_{k,n} when tabulated

Pairs (n, k) outside every resolved regime raise MissingTableData rather
than silently returning zero: absence of a table entry is not a theorem.

Results carry semantic generators: a labeled generating family (for example
``1⊗nu`` or ``e1∧e2``) in canonical coordinates, against which structure
maps are written column by column.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ._record import field, lazy, record
from .errors import MissingTableData
from .fgab import Congruences, FgAbGroup, GroupHom, TRIVIAL, cyclic, tensor, tensor_induced
from .intlinalg import IntMatrix
from .quadratic import (
    QuadTensorResult,
    exterior_square,
    quad_tensor,
    quad_tensor_induced,
    whitehead_gamma,
)
from .tables import StableTables, TabulatedGroup


class Regime(str, Enum):
    K1 = "K1"
    K2 = "K2"
    STABLE = "STABLE"
    METASTABLE = "METASTABLE"
    UNSTABLE_TABULATED = "UNSTABLE_TABULATED"


@record
class SemanticGenerator:
    """A named generator of gamma_tilde in canonical coordinates."""

    label: str
    element: tuple
    order: int  # 0 = infinite


@record
class GammaTildeResult:
    group: FgAbGroup
    regime: Regime
    generators: tuple
    n: int
    k: int
    _tensor: Optional[object] = field(default=None, compare=False, repr=False)
    _quad: Optional[QuadTensorResult] = field(default=None, compare=False, repr=False)
    # Each of the tensor's coefficient generators over the named ones; None: they coincide.
    _coeff_section: Optional[IntMatrix] = field(default=None, compare=False, repr=False)

    def labels(self) -> tuple:
        return tuple(g.label for g in self.generators)

    @lazy
    def spanning(self) -> Congruences:
        """Coefficients over the semantic generators: one reduction serves every element."""
        return Congruences.spanning(self.group, IntMatrix.from_columns(
            [g.element for g in self.generators], rows=self.group.dim))

    @lazy
    def section(self) -> IntMatrix:
        """Each canonical generator over the semantic generators, a column each: the quadratic
        tensor's section, or the tensor's with each pair a_i ⊗ e_j spelled over the a_i ⊗ q_s."""
        if self._tensor is None:  # the quadratic tensor's generators are the semantic ones
            return self._quad._canon.section if self._quad else IntMatrix.identity(0)
        t, c = self._tensor._canon.section, self._coeff_section
        if c is None:
            return t
        zero, a = (0,) * c.cols, self._tensor.left.dim  # a_i ⊗ e_j = sum_s c[s][j]·(a_i ⊗ q_s)
        blocks = tuple(zero * i + row + zero * (a - 1 - i) for i in range(a) for row in c.data)
        return IntMatrix._of(len(blocks), t.rows, blocks) * t


def _resolve_regime(n: int, k: int) -> Regime:
    if k == 1:
        return Regime.K1
    if k == 2:
        return Regime.K2
    if k == n - 1:
        return Regime.METASTABLE
    if k <= n - 2:
        return Regime.STABLE
    return Regime.UNSTABLE_TABULATED


def _from_quad(res: QuadTensorResult, regime: Regime, n: int, k: int) -> GammaTildeResult:
    gens = tuple(
        SemanticGenerator(label, elem, res.group.element_order(elem))
        for label, elem in res.natural_generators())
    return GammaTildeResult(res.group, regime, gens, n, k, _quad=res)


def _from_tensor(a: FgAbGroup, coeff: FgAbGroup, coeff_gens, regime: Regime,
                 n: int, k: int, coeff_section: Optional[IntMatrix] = None) -> GammaTildeResult:
    """Tensor regimes; coeff_gens is a list of (name, element of coeff), and coeff_section
    spells coeff's canonical generators over them (None: they are those generators)."""
    tp = tensor(a, coeff)
    la = a.labels()
    gens = []
    for i, unit in enumerate(IntMatrix.identity(a.dim).columns()):
        for name, elem in coeff_gens:
            img = tp.pure(unit, elem)
            gens.append(SemanticGenerator(f"{la[i]}⊗{name}", img,
                                          tp.group.element_order(img)))
    return GammaTildeResult(tp.group, regime, tuple(gens), n, k, _tensor=tp,
                            _coeff_section=coeff_section)


def _tabulated_gens(entry: TabulatedGroup):
    return [(name, entry.element_of(name)) for name in entry.names]


def _plain_group_gens(g: FgAbGroup):
    return list(zip(g.labels(), IntMatrix.identity(g.dim).columns()))


def gamma_tilde(n: int, k: int, a: FgAbGroup, tables: StableTables) -> GammaTildeResult:
    """Compute gamma_tilde with canonical generator labels.

    Raises MissingTableData when the (n, k) regime needs a table entry
    (Q_k^S, Q_{k,n} or a metastable quadratic module) that is absent.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    regime = _resolve_regime(n, k)
    if regime is Regime.K1:
        if n == 2:
            return _from_quad(whitehead_gamma(a), regime, n, k)
        return _from_tensor(a, cyclic(2, "eta"), [("eta", (1,))], regime, n, k)
    if regime is Regime.K2:
        if n == 3:
            return _from_quad(exterior_square(a), regime, n, k)
        return GammaTildeResult(TRIVIAL, regime, (), n, k)
    if regime is Regime.METASTABLE:
        qm = tables.metastable_module(n)
        return _from_quad(quad_tensor(a, qm), regime, n, k)
    if regime is Regime.STABLE:
        entry = tables.q_stable_entry(k)
        return _from_tensor(a, entry.group, _tabulated_gens(entry), regime, n, k,
                            entry._canon.section)
    qg = tables.q_unstable_group(k, n)
    if qg is None:
        raise MissingTableData(f"Q_{{{k},{n}}} is not tabulated")
    return _from_tensor(a, qg, _plain_group_gens(qg), regime, n, k)


def gamma_tilde_induced(n: int, k: int, f: GroupHom, tables: StableTables) -> GroupHom:
    """The functor on morphisms, compatible with composition.

    The regime is ``gamma_tilde``'s: the map is induced along the tensor
    (f ⊗ id) or quadratic tensor product that ``gamma_tilde`` built for
    f's source and target, and is zero where it built neither. Quadratic
    in f there: doubling a generator multiplies its gamma-class by four.
    """
    src, tgt = gamma_tilde(n, k, f.source, tables), gamma_tilde(n, k, f.target, tables)
    if src._quad is not None:
        return quad_tensor_induced(f, src._quad.module, source=src._quad, target=tgt._quad)
    if src._tensor is not None:
        return tensor_induced(f, GroupHom.identity(src._tensor.right),
                              source=src._tensor, target=tgt._tensor)
    return GroupHom.zero(src.group, tgt.group)
