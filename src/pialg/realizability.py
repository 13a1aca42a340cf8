"""Deciding realizability of two-stage systems, with machine-checkable certificates.

The criterion: the data (A_n, A_{n+k}, eta) is realizable iff eta factors
through the comparison map gamma into the Eilenberg-MacLane homology. In
the stable range the comparison lands in the tensor summand
``A_n ⊗ HZ_{k+1}HZ`` (the Tor summand is split off non-naturally and gamma
misses it), so the checker factors through that summand; a factoring found
there extends by zero on the complement and, conversely, restricts.

gamma is only partially known, so verdicts quantify over every admissible
completion of the tables:

    Realizable      eta factors for every completion (witness retained)
    NonRealizable   eta factors for no completion (obstruction reported)
    Undetermined    some completions factor, some do not (blockers listed)

When the codomain table for a stem is absent, or the stem is only
partially tabulated, enumeration is impossible; the checker then falls
back to certificate mode: elements that every admissible gamma must kill
(zero entries, order bounds, exact orders) form a subgroup, and a nonzero
eta-value on it is a sound non-realizability certificate. Verdicts never
claim Realizable from partial data, except for the zero structure map,
which a product of Eilenberg-MacLane spaces always realizes.

k = 1 and k = 2 are unconditionally realizable once the structure map is
well-formed; the three-stage checker computes the composite obstruction
through the two-torsion and decides by its vanishing.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from enum import Enum
from math import gcd
from operator import mul
from typing import Optional, Sequence

from ._record import record
from .errors import (
    BoundExceeded,
    InconsistentTables,
    MalformedStructureMap,
    MissingTableData,
    NotStableRange,
    ProblemFormatError,
    UnsupportedRegime,
)
from .fgab import (
    FgAbGroup,
    GroupHom,
    Factorizer,
    from_cyclic_orders,
    group_from_json,
    group_to_json,
    hom_from_images,
    hom_group,
    is_split_injective,
    kernel,
    mod_reduction,
    stack_homs,
    subgroup,
    tensor,
    tensor_induced,
    two_torsion_subgroup,
)
from .intlinalg import IntMatrix
from .pi_functors import GammaTildeResult, Regime, gamma_tilde
from .tables import StableTables, admissible_gamma_completions, prime_factors


class Status(str, Enum):
    REALIZABLE = "realizable"
    NON_REALIZABLE = "non-realizable"
    UNDETERMINED = "undetermined"


@record
class TwoStagePiAlgebra:
    """Input problem: degrees n and n+k, the two groups, and the structure map.

    ``eta`` is a homomorphism out of gamma_tilde(n, k, A_n) in canonical
    coordinates; build it from semantic generator columns with
    ``build_structure_map``.
    """

    n: int
    k: int
    a_n: FgAbGroup
    a_nk: FgAbGroup
    eta: GroupHom

    def __post_init__(self):
        if self.n < 2 or self.k < 1:
            raise ValueError("need n >= 2 and k >= 1")
        if self.eta.target != self.a_nk:
            raise MalformedStructureMap("eta must land in A_{n+k}")


@record
class Obstruction:
    """Why no factorization exists.

    ``element`` (when present) satisfies eta(element) != 0 while every
    admissible completion of gamma kills it; ``label`` spells it over the
    semantic generators. When no single element witnesses the failure the
    element is None and the failing completions stand as the certificate.
    """

    element: Optional[tuple] = None
    label: str = ""
    note: str = ""


@record
class CompletionOutcome:
    assignment: tuple  # ((generator name, image coords), ...)
    factorable: bool
    witness: Optional[GroupHom] = None


@record
class Verdict:
    status: Status
    witness: Optional[GroupHom] = None
    obstruction: Optional[Obstruction] = None
    blocking: tuple = ()
    completions: tuple = ()
    note: str = ""

    def exit_code(self) -> int:
        return {Status.REALIZABLE: 0, Status.NON_REALIZABLE: 1, Status.UNDETERMINED: 2}[self.status]


# -- structure maps from semantic generator columns ----------------------


def build_structure_map(gt: GammaTildeResult, columns: Sequence[Sequence[int]],
                        target: FgAbGroup) -> GroupHom:
    """The homomorphism sending each semantic generator to its column.

    Columns are target coordinates, one per generator in ``gt.generators``
    order. The semantic generators span gamma_tilde, so the only candidate
    is columns · ``gt.section``; it is the answer when it is a homomorphism
    that sends each generator back to its column. Raises
    MalformedStructureMap otherwise: the requested values violate the
    relations of the domain (e.g. order mismatch).
    """
    if len(columns) != len(gt.generators):
        raise MalformedStructureMap(
            f"expected {len(gt.generators)} columns ({', '.join(gt.labels())}), "
            f"got {len(columns)}")
    cols = [target.reduce(c) for c in columns]
    try:  # GroupHom checks that each canonical generator's order kills its image
        h = GroupHom(gt.group, target, hom_from_images(gt.group, target, cols, gt.section).matrix)
        ok = [h.apply(g.element) for g in gt.generators] == cols
    except ValueError:
        ok = False
    if not ok:
        raise MalformedStructureMap(
            "requested generator images do not define a homomorphism on "
            f"{gt.group} (generators {', '.join(gt.labels())})")
    return h


def format_semantic(gt: GammaTildeResult, element: Sequence[int]) -> str:
    """Spell an element of gamma_tilde over the semantic generators."""
    elem = gt.group.reduce(element)
    if all(x == 0 for x in elem):
        return "0"
    sol = gt.spanning.solve(elem)
    if sol is None:
        return str(list(elem))
    terms = []
    for c, g in zip(sol, gt.generators):
        if g.order:
            c %= g.order
        if not c:
            continue
        label = g.label[2:] if g.label.startswith("1⊗") else g.label
        terms.append(label if c == 1 else f"{c}·{label}")
    return " + ".join(terms) if terms else "0"


# -- stable checker -------------------------------------------------------

_ZERO_ETA = "zero structure map; a product of Eilenberg-MacLane spaces realizes it"


def _obstruction_from_dead(pa: TwoStagePiAlgebra, gt: GammaTildeResult,
                           dead: tuple) -> Optional[Obstruction]:
    """An element of the dead subgroup ``dead`` (``_dead``'s pair) with nonzero eta, if any.

    The sorted elements are searched: the first that eta does not kill is the
    lightest such, the first enumerated among equals. A subgroup too large to
    list reports its first such generator.
    """
    gens, elements = dead
    if not any(any(pa.eta.apply(y)) for y in gens):
        return None
    elem = next(y for y in (gens if elements is None else elements) if any(pa.eta.apply(y)))
    return Obstruction(element=elem, label=format_semantic(gt, elem),
                       note="killed by every admissible completion")


def _on_tables(fn):
    """Memoize ``fn(tables, *args)`` in the memo of ``tables``, for the object's life.

    The eta-independent work of ``check_stable`` is a function of the tables
    and (n, k, A_n, target) alone, so it lives on the tables object; this is
    the one place that knows the memo's keys. FgAbGroup equality ignores
    labels, but labels reach the semantic generators and the witness JSON,
    so a group's key carries its labels and reuse does not cross them.
    """
    @functools.wraps(fn)
    def memoized(tables: StableTables, *args):
        key = (fn, *((a, a.gen_labels) if isinstance(a, FgAbGroup) else a for a in args))
        if key not in tables._memo:
            tables._memo[key] = fn(tables, *args)
        return tables._memo[key]
    return memoized


@_on_tables
def _gamma_tilde(tables: StableTables, n: int, k: int, a_n: FgAbGroup) -> GammaTildeResult:
    return gamma_tilde(n, k, a_n, tables)


@_on_tables
def _stem(tables: StableTables, k: int) -> tuple:
    """(completions, kills, blockers): how stem k is decided, worked out once per stem.

    ``completions`` are the admissible completions when Q_k^S is complete and
    HZ_{k+1}HZ is tabulated, the one test of enumerating mode
    (InconsistentTables when an overlay leaves none); None in certificate
    mode. ``kills`` are (m, name) for each named generator q with m·q != 0
    that every admissible gamma kills. ``blockers`` is what an undetermined
    verdict lists: unknown gamma entries, then what stops enumeration.
    """
    entry, cod = tables.q_stable_entry(k), tables.em(k + 1)
    completions = None
    if entry.complete and cod is not None:
        completions = admissible_gamma_completions(k, tables)
        if not completions:
            raise InconsistentTables(f"no admissible gamma completion exists in stem {k}; "
                                     "the tables are contradictory")
    kills, blockers = [], []
    for d, name in entry.summands:
        know = tables.gamma.get((k, name))
        if know is None or know.state == "unknown":
            blockers.append(f"stem{k}.{name}")
        if know is None:
            continue
        m = know.kill_multiplier(cod, d)
        if not d or m != d:  # m = d kills only the cyclic summand's zero
            kills.append((m, name))
    if cod is None:
        blockers.append(f"em_homology[{k + 1}] untabulated")
    if not entry.complete:
        blockers.append(f"Q_{k}^S partially tabulated")
    return completions, tuple(kills), tuple(blockers)


@_on_tables
def _gammas(tables: StableTables, n: int, k: int, a_n: FgAbGroup) -> tuple:
    """gamma_c ⊗ A_n: gamma_tilde -> A_n ⊗ HZ_{k+1}HZ, one per completion."""
    src_tp = _gamma_tilde(tables, n, k, a_n)._tensor
    tgt_tp = tensor(a_n, tables.em(k + 1))
    id_a = GroupHom.identity(a_n)
    return tuple(tensor_induced(id_a, c.hom, source=src_tp, target=tgt_tp)
                 for c in _stem(tables, k)[0])


@_on_tables
def _factorizers(tables: StableTables, n: int, k: int, a_n: FgAbGroup, target: FgAbGroup) -> tuple:
    """One ``Factorizer`` per completion, in order; equal gamma maps share one,
    and callers solve each distinct one once per structure map."""
    gammas = _gammas(tables, n, k, a_n)
    built = {g: Factorizer(g, target) for g in dict.fromkeys(gammas)}
    return tuple(built[g] for g in gammas)


@_on_tables
def _dead(tables: StableTables, n: int, k: int, a_n: FgAbGroup) -> tuple:
    """(generators, elements) of the subgroup of gamma_tilde every admissible gamma kills.

    Exact when the stem and its codomain are tabulated: the kernel of the
    stacked gamma_c ⊗ A_n. Otherwise the forced lower bound, spanned by
    x ⊗ m·q for each canonical generator x of A_n and each forced kill
    (m, q); ``((), ())`` when nothing is forced. ``elements`` are the images
    in gamma_tilde stably sorted by weight (the sum of absolute coordinates);
    None for an infinite subgroup or one over 4096 elements.
    """
    completions, kills, _ = _stem(tables, k)
    if completions is not None:
        incl = kernel(stack_homs(list(_gammas(tables, n, k, a_n)))[0])[1]
    else:
        entry, gt = tables.q_stable_entry(k), _gamma_tilde(tables, n, k, a_n)
        gens = [gt._tensor.pure(x, entry.group.smul(m, entry.element_of(name)))  # m·q != 0
                for m, name in kills
                for x in IntMatrix.identity(a_n.dim).columns()]
        if not gens:
            return (), ()
        incl = subgroup(gt.group, gens)[1]
    dead = incl.source
    elements = None if dead.rank or dead.order() > 4096 else tuple(
        sorted(map(incl.apply, dead.elements()), key=lambda y: sum(map(abs, y))))
    return tuple(incl.matrix.columns()), elements


def _decider(tables: StableTables, n: int, k: int, a_n: FgAbGroup, target: FgAbGroup):
    """eta's reduced columns -> (status, found): the one decision of a nonzero stable eta.

    Enumerating mode (the stem and its codomain are tabulated): ``found`` is ``Factorizer.rows``'
    answer (None: no factoring) for each distinct memoized factorizer, in first-completion order.
    Certificate mode: ``found`` is None, and eta is non-realizable exactly when it does not
    kill some generator of ``_dead``, the forced-dead subgroup.
    """
    if _stem(tables, k)[0] is not None:
        fzs = tuple(dict.fromkeys(_factorizers(tables, n, k, a_n, target)))  # each distinct once

        def decide(cols):
            found = [fz.rows(cols) for fz in fzs]
            return (Status.REALIZABLE if None not in found else Status.NON_REALIZABLE
                    if found.count(None) == len(found) else Status.UNDETERMINED), found
        return decide
    gens = _dead(tables, n, k, a_n)[0]
    # eta(y) = sum_j y_j·col_j, reduced modulo the target's torsion as eta.apply(y) is
    return lambda cols: (Status.NON_REALIZABLE if any(any(target.reduce(
        [sum(map(mul, y, row)) for row in zip(*cols)])) for y in gens) else Status.UNDETERMINED,
        None)


def check_stable(pa: TwoStagePiAlgebra, tables: StableTables) -> Verdict:
    """Decide a stable problem (k <= n - 2) by quantifying over completions."""
    n, k = pa.n, pa.k
    if k > n - 2:
        raise NotStableRange(f"k = {k} is not <= n - 2 = {n - 2}")
    gt = _validated_gt(pa, tables)
    cod = tables.em(k + 1)

    if pa.eta.is_zero():
        witness = None if cod is None else GroupHom.zero(tensor(pa.a_n, cod).group, pa.a_nk)
        return Verdict(Status.REALIZABLE, witness=witness, note=_ZERO_ETA)

    target = pa.eta.target
    status, found = _decider(tables, n, k, pa.a_n, target)(tuple(zip(*pa.eta.matrix.data)))
    completions, _, blockers = _stem(tables, k)
    outcomes = ()  # certificate mode (found is None) lists no completions
    if found is not None:
        fzs = _factorizers(tables, n, k, pa.a_n, target)
        homs = {fz: fz._hom(rows) for fz, rows in zip(dict.fromkeys(fzs), found)}
        outcomes = tuple(CompletionOutcome(comp.assignment, homs[fz] is not None, homs[fz])
                         for comp, fz in zip(completions, fzs))
    if status is Status.REALIZABLE:
        return Verdict(status, witness=outcomes[0].witness, completions=outcomes)
    if status is Status.NON_REALIZABLE:
        obs = _obstruction_from_dead(pa, gt, _dead(tables, n, k, pa.a_n))
        return Verdict(status, completions=outcomes, obstruction=obs or Obstruction(
            note="no completion admits a factorization"))
    return Verdict(status, blocking=blockers, completions=outcomes,
                   note="cannot enumerate gamma completions from the available tables"
                   if found is None else "factorability depends on unknown gamma entries")


# -- low stems and dispatch ----------------------------------------------


def _validated_gt(pa: TwoStagePiAlgebra, tables: StableTables) -> GammaTildeResult:
    gt = _gamma_tilde(tables, pa.n, pa.k, pa.a_n)
    if pa.eta.source != gt.group:
        raise MalformedStructureMap(
            f"eta is defined on {pa.eta.source}, but gamma_tilde is {gt.group}")
    return gt


_ALWAYS_REALIZABLE = {
    Regime.K1: "all systems concentrated in consecutive degrees are realizable",
    Regime.K2: "all systems concentrated in degrees n, n+2 are realizable",
}


def check(pa: TwoStagePiAlgebra, tables: StableTables) -> Verdict:
    """Dispatch on the regime that ``gamma_tilde`` resolved for (n, k).

    k = 1 and k = 2 are realizable once eta is well-formed; the stable
    range goes to ``check_stable``. gamma_tilde and the other
    eta-independent work are memoized on ``tables``, so a problem parsed
    by ``problem_from_json`` against the same tables object reuses its
    gamma_tilde.
    """
    gt = _validated_gt(pa, tables)
    if gt.regime in _ALWAYS_REALIZABLE:
        return Verdict(Status.REALIZABLE, note=_ALWAYS_REALIZABLE[gt.regime])
    if gt.regime is Regime.STABLE:
        return check_stable(pa, tables)
    if gt.group.is_trivial:
        return Verdict(Status.REALIZABLE, note="trivial operations; a product of "
                                               "Eilenberg-MacLane spaces realizes it")
    if pa.eta.is_zero():
        return Verdict(Status.REALIZABLE, note=_ZERO_ETA)
    raise UnsupportedRegime(
        "the realizability criterion requires unstable gamma data for K(A_n, n), "
        "which the tables do not carry; only gamma_tilde is computable here")


# -- whole-stem answers ---------------------------------------------------


class StemAnswer(str, Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


@record
class StemVerdict:
    stem: int
    answer: StemAnswer
    note: str = ""
    completions: tuple = ()  # ((assignment, split), ...)
    blocking: tuple = ()


def all_realizable_in_stem(k: int, tables: StableTables) -> StemVerdict:
    """Is every stable 2-stage system in stem k realizable, for every A_n?

    Equivalent to split injectivity of gamma on Q_k^S, quantified over the
    admissible completions. Without a tabulated codomain the answer is
    still decidable in two situations: a forced order drop on a named
    generator (gamma not injective, hence No) and exact prime orders at
    distinct primes under the single-power-of-p rule (split, hence Yes).
    """
    if k < 1:
        raise ValueError("stems start at k = 1")
    entry = tables.q_stable_entry(k)
    if entry.group.is_trivial:
        return StemVerdict(k, StemAnswer.YES, note="trivial operations in this stem")
    completions, kills, blockers = _stem(tables, k)
    if completions is not None:  # every completion is enumerated
        results = tuple((c.assignment, is_split_injective(c.hom)[0]) for c in completions)
        if all(split for _, split in results):
            return StemVerdict(k, StemAnswer.YES, completions=results)
        if not any(split for _, split in results):
            return StemVerdict(k, StemAnswer.NO, completions=results,
                               note="gamma is split injective under no admissible completion")
        return StemVerdict(k, StemAnswer.UNDETERMINED, completions=results, blocking=blockers)

    # Rule-based fallbacks when the codomain is unknown.
    if kills:
        m, name = kills[0]
        return StemVerdict(
            k, StemAnswer.NO,
            note=f"gamma kills {m}·{name} != 0, so it is not injective; "
                 f"the projection onto <{name}> is a non-realizable instance")
    if entry.complete:
        orders = [d for d, _ in entry.summands]
        exact = all(
            (know := tables.gamma.get((k, name))) is not None
            and know.state == "nonzero" and know.order == d and list(prime_factors(d)) == [d]
            for d, name in entry.summands)
        coprime = all(gcd(a, b) == 1 for a, b in itertools.combinations(orders, 2))
        if exact and coprime:
            return StemVerdict(
                k, StemAnswer.YES,
                note="each generator lands with full prime order in elementary "
                     "abelian torsion, which splits off")
    raise MissingTableData(
        f"cannot settle stem {k}: HZ_{k + 1}HZ is untabulated and no rule applies")


# -- three-stage obstruction ----------------------------------------------


@record
class ThreeStageProblem:
    n: int
    a_n: FgAbGroup
    a_n1: FgAbGroup
    a_n2: FgAbGroup
    eta1: GroupHom  # A_n ⊗ Z/2 -> A_{n+1}
    eta2: GroupHom  # A_{n+1} ⊗ Z/2 -> A_{n+2}


def three_stage_obstruction(problem: ThreeStageProblem) -> tuple:
    """(O, verdict) for a stable three-stage system in degrees n, n+1, n+2.

    O is the composite of the two structure maps through the two-torsion
    subgroup and the mod-2 reductions; the system is realizable iff O = 0.
    Stable degrees only (n >= 4), matching where the composite formula for
    the suspension map holds.
    """
    n = problem.n
    if n < 4:
        raise ValueError("the three-stage obstruction requires stable degrees n >= 4")
    tp1, q1 = mod_reduction(problem.a_n, 2)
    tp2, q2 = mod_reduction(problem.a_n1, 2)
    if problem.eta1.source != tp1.group or problem.eta1.target != problem.a_n1:
        raise MalformedStructureMap("eta1 must map A_n ⊗ Z/2 to A_{n+1}")
    if problem.eta2.source != tp2.group or problem.eta2.target != problem.a_n2:
        raise MalformedStructureMap("eta2 must map A_{n+1} ⊗ Z/2 to A_{n+2}")
    tor, incl = two_torsion_subgroup(problem.a_n)
    o = problem.eta2 @ q2 @ problem.eta1 @ q1 @ incl
    if o.is_zero():
        return o, Verdict(Status.REALIZABLE, note="obstruction vanishes")
    elem = next(tor.reduce(x) for x in IntMatrix.identity(tor.dim).columns() if any(o.apply(x)))
    obs = Obstruction(element=elem,
                      label=f"two-torsion generator {list(incl.apply(elem))} of A_n",
                      note="the composite obstruction is nonzero on it")
    return o, Verdict(Status.NON_REALIZABLE, obstruction=obs)


# -- stem surveys ----------------------------------------------------------


@record
class SurveyRow:
    a_n: FgAbGroup
    target: FgAbGroup
    counts: tuple  # ((status value, count), ...)


@record
class SurveyReport:
    stem: int
    n_used: int
    rows: tuple
    totals: tuple

    def total_cases(self) -> int:
        return sum(c for _, c in self.totals)


def survey_stem(k: int, tables: StableTables, max_cyclic_order: int,
                max_summands: int, targets: Sequence[FgAbGroup],
                include_free: bool = True, max_checks: int = 20000) -> SurveyReport:
    """Sweep small groups and every structure map, tallying ``check``'s statuses.

    A_n ranges over direct sums of at most ``max_summands`` cyclic groups
    of order up to ``max_cyclic_order`` (plus Z summands unless disabled);
    eta ranges over all of Hom(gamma_tilde, target) for each target, and a
    target whose Hom group is infinite is skipped. Raises BoundExceeded when
    more than ``max_checks`` checks would run.

    Each row dispatches on ``gt.regime`` as ``check`` does: at stems 1 and 2
    every map is realizable; a stable row counts each nonzero eta's status
    from ``check_stable``'s ``_decider``, built at the row's first nonzero
    eta and fed eta's reduced column tuples, with no ``GroupHom`` or verdict.
    """
    n = k + 2  # minimal stable dimension; stable verdicts do not depend on n
    orders = ([0] if include_free else []) + list(range(2, max_cyclic_order + 1))
    groups = (from_cyclic_orders(list(combo)) for size in range(1, max_summands + 1)
              for combo in itertools.combinations_with_replacement(orders, size))
    rows, totals, budget, seen = [], Counter(), 0, set()
    # Canonicalized as the budget reaches them, so a refused survey stops early.
    for a_n in groups:
        if a_n in seen:
            continue
        seen.add(a_n)
        gt = _gamma_tilde(tables, n, k, a_n)
        for target in targets:
            homs = hom_group(gt.group, target)
            if not homs.is_finite:
                continue
            budget += homs.order()
            if budget > max_checks:
                raise BoundExceeded(
                    f"survey needs more than {max_checks} checks; tighten the bounds")
            if gt.regime in _ALWAYS_REALIZABLE:
                counts = Counter({Status.REALIZABLE.value: homs.order()})
            else:
                decide = functools.cache(lambda: _decider(tables, n, k, a_n, target))
                counts = Counter(decide()(cols)[0].value if any(map(any, cols)) else
                                 Status.REALIZABLE.value for cols in homs.columns())
            totals.update(counts)
            rows.append(SurveyRow(a_n, target, tuple(sorted(counts.items()))))
    return SurveyReport(k, n, tuple(rows), tuple(sorted(totals.items())))


# -- JSON (de)serialization ------------------------------------------------


def hom_to_json(h: GroupHom) -> dict:
    return {"source": group_to_json(h.source), "target": group_to_json(h.target),
            "matrix": h.matrix.to_lists()}


def hom_from_json(doc: dict) -> GroupHom:
    src = group_from_json(doc["source"])
    tgt = group_from_json(doc["target"])
    return _hom_from_json_matrix(doc["matrix"], src, tgt, "homomorphism matrix")


def verdict_to_json(v: Verdict) -> dict:
    doc: dict = {"status": v.status.value}
    if v.witness is not None:
        doc["witness"] = hom_to_json(v.witness)
    if v.obstruction is not None:
        doc["obstruction"] = {
            "element": list(v.obstruction.element) if v.obstruction.element is not None else None,
            "label": v.obstruction.label,
            "note": v.obstruction.note,
        }
    if v.blocking:
        doc["blocking"] = list(v.blocking)
    if v.completions:
        doc["completions"] = [
            {"assignment": [[name, list(coords)] for name, coords in o.assignment],
             "factorable": o.factorable,
             "witness": hom_to_json(o.witness) if o.witness is not None else None}
            for o in v.completions
        ]
    if v.note:
        doc["note"] = v.note
    return doc


def verdict_from_json(doc: dict) -> Verdict:
    status = Status(doc["status"])
    witness = hom_from_json(doc["witness"]) if doc.get("witness") else None
    obstruction = None
    if "obstruction" in doc:
        o = doc["obstruction"]
        obstruction = Obstruction(
            element=tuple(o["element"]) if o.get("element") is not None else None,
            label=o.get("label", ""), note=o.get("note", ""))
    completions = tuple(
        CompletionOutcome(
            assignment=tuple((name, tuple(coords)) for name, coords in c["assignment"]),
            factorable=c["factorable"],
            witness=hom_from_json(c["witness"]) if c.get("witness") else None)
        for c in doc.get("completions", ()))
    return Verdict(status, witness=witness, obstruction=obstruction,
                   blocking=tuple(doc.get("blocking", ())),
                   completions=completions, note=doc.get("note", ""))


def _problem_fields(doc, int_minima: dict, group_keys: tuple, other_keys: tuple) -> tuple:
    """(integers, groups) read from a problem file, in key order.

    ``int_minima`` maps each integer key to its least legal value. Raises
    ProblemFormatError when the document is not a JSON object, lacks a
    required key, holds a key outside its form, or holds an integer or group
    field that does not parse or is out of range (for example torsion that
    is not a divisibility chain).
    """
    keys = (*int_minima, *group_keys, *other_keys)
    if not isinstance(doc, dict):
        problem = f"expected a JSON object, got {type(doc).__name__}"
    elif missing := [key for key in keys if key not in doc]:
        problem = "missing " + ", ".join(repr(key) for key in missing)
    elif extra := [key for key in doc if key not in keys]:
        problem = f"unknown key {extra[0]!r}; this form takes only {', '.join(keys)}"
    elif bad := [f"{key} must be an integer >= {least}, got {doc[key]!r}"
                 for key, least in int_minima.items()
                 if type(doc[key]) is not int or doc[key] < least]:
        problem = "; ".join(bad)
    else:
        groups = []
        for key in group_keys:
            try:
                groups.append(group_from_json(doc[key]))
            except (AttributeError, TypeError, ValueError) as exc:
                problem = f"{key} is not a group: {exc}"
                break
        else:
            return [doc[key] for key in int_minima], groups
    raise ProblemFormatError(f"malformed problem file: {problem}")


def problem_from_json(doc: dict, tables: StableTables):
    """Parse a problem file into a two- or three-stage problem.

    Two-stage files: {"n", "k", "A_n", "A_nk", "eta"} with eta columns
    indexed by the documented gamma_tilde generator order. Three-stage
    files (those with an "A_n2" or "eta2" key): {"n", "A_n", "A_n1",
    "A_n2", "eta1", "eta2"} with the columns indexed by the mod-2
    reductions of A_n and A_{n+1}. A file takes only its form's keys.
    Matrix entries must be JSON integers. The gamma_tilde built here is memoized on
    ``tables``, so ``check`` on the same tables object does not rebuild it.
    """
    if isinstance(doc, dict) and ("A_n2" in doc or "eta2" in doc):
        (n,), (a_n, a_n1, a_n2) = _problem_fields(doc, {"n": 4}, ("A_n", "A_n1", "A_n2"),
                                                  ("eta1", "eta2"))
        tp1, _ = mod_reduction(a_n, 2)
        tp2, _ = mod_reduction(a_n1, 2)
        eta1 = _hom_from_json_matrix(doc["eta1"], tp1.group, a_n1, "malformed problem file: eta1")
        eta2 = _hom_from_json_matrix(doc["eta2"], tp2.group, a_n2, "malformed problem file: eta2")
        return ThreeStageProblem(n, a_n, a_n1, a_n2, eta1, eta2)
    (n, k), (a_n, a_nk) = _problem_fields(doc, {"n": 2, "k": 1}, ("A_n", "A_nk"), ("eta",))
    gt = _gamma_tilde(tables, n, k, a_n)
    try:
        m = IntMatrix.from_json(a_nk.dim, len(gt.generators), doc["eta"])
    except ValueError as exc:
        raise MalformedStructureMap(
            f"malformed problem file: eta must be a {a_nk.dim}x{len(gt.generators)} matrix "
            f"with columns {', '.join(gt.labels())}: {exc}")
    eta = build_structure_map(gt, m.columns(), a_nk)
    return TwoStagePiAlgebra(n, k, a_n, a_nk, eta)


def _hom_from_json_matrix(matrix, source: FgAbGroup, target: FgAbGroup, what: str) -> GroupHom:
    try:
        return GroupHom(source, target, IntMatrix.from_json(target.dim, source.dim, matrix))
    except ValueError as exc:
        raise MalformedStructureMap(f"{what}: {exc}")
