"""Curated stable homotopy tables with explicit partial-knowledge states.

The shipped defaults hold exactly the values the realizability machinery
is entitled to assume: stable stems and their indecomposables through
dimension 6 with generator names and ring products, the degree-4 homotopy
of the smashed integral Eilenberg-MacLane spectrum, the two metastable
quadratic modules, the alpha-family entries at the prime 3 (built by the
same rule as ``alpha_family_overlay``), and a partial comparison map
``gamma`` recorded per generator as one of

    known [coords] | zero | nonzero(order) | unknown(bound)

Everything else arrives by overlay file. Overlays use a small line-based
text format, read and written by one codec per section (``_CODECS``)::

    # comment
    [q_stable]
    7 = Z/3<alpha_2> (partial)

    [em_homology]
    4 = Z/2 + Z/6        # any cyclic sum; canonicalized on load

    [metastable_qm]
    2 = Z_Gamma          # builtin name or inline JSON {"Me": ..., "H": ...}

    [gamma]
    3.nu = unknown(2)
    3.alpha = nonzero(3)

    [q_unstable]
    2,2 = 0

    [pi_products]
    1.eta * 1.eta = [1]

    [options]
    torsion_exponent_rule = on

Group literals are sums of ``Z``, ``Z^r`` and ``Z/d`` terms, each optionally
carrying a generator name in angle brackets; the names in one literal must
differ. Coordinate lists (``known [...]`` and ``pi_products`` values) are
bracketed, comma-separated integers; ``[]`` is the empty list. Sections may
appear in any order; later keys override earlier ones; ``merge`` gives
overlay entries priority and re-validates all consistency invariants,
including the single-power-of-p rule for the torsion of the
Eilenberg-MacLane columns.
"""

from __future__ import annotations

import itertools
import re
from functools import cache
from math import gcd
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Tuple

from ._record import field, lazy, record
from .errors import InconsistentTables, MalformedStructureMap, MissingTableData, TableFormatError
from .fgab import (
    Factorizer,
    FgAbGroup,
    GroupHom,
    TRIVIAL,
    _cyclic_sum,
    free_group,
    from_cyclic_orders,
)
from .quadratic import (
    BUILTIN_QUADRATIC_MODULES,
    QuadraticModule,
    Z_GAMMA,
    Z_LAMBDA,
    quadratic_module_from_json,
    quadratic_module_to_json,
)


@record
class TabulatedGroup:
    """A group tabulated as named cyclic summands, canonicalized on demand.

    ``summands`` are (order, name) pairs, order 0 meaning Z. The canonical
    group may look quite different (Z/4 + Z/3 becomes Z/12); ``element_of``
    recovers where each named generator sits in canonical coordinates.
    ``complete`` is False when the literature pins only part of the group,
    e.g. single alpha-family generators in an otherwise uncomputed stem.
    """

    summands: tuple
    complete: bool = True

    def __post_init__(self):
        names = [n for _, n in self.summands]
        if len(set(names)) != len(names):
            raise InconsistentTables(f"duplicate generator names in {names}")
        for d, n in self.summands:
            if d < 0 or d == 1:
                raise InconsistentTables(f"bad summand order {d}")
            if not re.fullmatch(r"[A-Za-z0-9_^/()]+", n):
                raise InconsistentTables(f"bad generator name {n!r}")

    @lazy
    def _canon(self):
        return _cyclic_sum([d for d, _ in self.summands])

    @property
    def group(self) -> FgAbGroup:
        return self._canon.group

    @property
    def names(self) -> tuple:
        return tuple(n for _, n in self.summands)

    def order_of(self, name: str) -> int:
        for d, n in self.summands:
            if n == name:
                return d
        raise KeyError(name)

    def element_of(self, name: str) -> tuple:
        for j, (_, n) in enumerate(self.summands):
            if n == name:
                return self.group.reduce(self._canon.quotient.matrix.col(j))
        raise KeyError(name)

    def generator_hom(self) -> GroupHom:
        """The map from the free group on the named generators onto the group."""
        return GroupHom(free_group(len(self.summands)), self.group, self._canon.quotient.matrix)

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for d, n in self.summands:
            base = "Z" if d == 0 else f"Z/{d}"
            parts.append(f"{base}<{n}>")
        return " + ".join(parts) + ("" if self.complete else " (partial)")


@record
class GammaKnowledge:
    """What is known about gamma on one indecomposable generator."""

    state: str  # "known" | "zero" | "nonzero" | "unknown"
    value: Optional[tuple] = None
    order: Optional[int] = None
    bound: Optional[int] = None

    @staticmethod
    def known(coords) -> "GammaKnowledge":
        return GammaKnowledge("known", value=tuple(int(c) for c in coords))

    @staticmethod
    def zero() -> "GammaKnowledge":
        return GammaKnowledge("zero")

    @staticmethod
    def nonzero(order: int) -> "GammaKnowledge":
        if order < 2:
            raise InconsistentTables("nonzero(q) needs q >= 2")
        return GammaKnowledge("nonzero", order=int(order))

    @staticmethod
    def unknown(bound: int) -> "GammaKnowledge":
        if bound < 1:
            raise InconsistentTables("unknown(b) needs b >= 1")
        return GammaKnowledge("unknown", bound=int(bound))

    def kill_multiplier(self, codomain: Optional[FgAbGroup], order: int) -> int:
        """Smallest m with m * gamma(gen) = 0 in every admissible world.

        ``order`` is the generator's own order (0 for infinite), which also
        annihilates its image.
        """
        if self.state == "zero":
            m = 1
        elif self.state == "nonzero":
            m = self.order
        elif self.state == "unknown":
            m = self.bound
        else:
            assert self.state == "known" and codomain is not None
            m = codomain.element_order(self.value) or 1
        return gcd(m, order) if order else m

    def __str__(self) -> str:
        if self.state == "known":
            return f"known {_coords_text(self.value)}"
        if self.state == "zero":
            return "zero"
        if self.state == "nonzero":
            return f"nonzero({self.order})"
        return f"unknown({self.bound})"


@record
class StableTables:
    """Tabulated values, held as read-only mappings, and a memo of derived work.

    Each mapping field is stored as a read-only copy, so nothing derived
    from a tables object can go stale. ``_memo`` holds that derived work
    (``realizability`` owns its keys) for the life of the object; ``merge``
    and the loaders return new objects, each with an empty memo.
    """

    pi_stable: Mapping[int, TabulatedGroup] = field(default_factory=dict)
    q_stable: Mapping[int, TabulatedGroup] = field(default_factory=dict)
    q_unstable: Mapping[Tuple[int, int], FgAbGroup] = field(default_factory=dict)
    em_homology: Mapping[int, FgAbGroup] = field(default_factory=dict)
    metastable_qm: Mapping[int, QuadraticModule] = field(default_factory=dict)
    gamma: Mapping[Tuple[int, str], GammaKnowledge] = field(default_factory=dict)
    pi_products: Mapping[Tuple[Tuple[int, str], Tuple[int, str]], tuple] = field(default_factory=dict)
    torsion_exponent_rule: Optional[bool] = None
    provenance: tuple = field(default=(), compare=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in _CODECS:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def exponent_rule_enabled(self) -> bool:
        return True if self.torsion_exponent_rule is None else self.torsion_exponent_rule

    # -- lookups ----------------------------------------------------------

    def q_stable_entry(self, k: int) -> TabulatedGroup:
        if k not in self.q_stable:
            raise MissingTableData(f"Q_{k}^S is not tabulated")
        return self.q_stable[k]

    def q_unstable_group(self, k: int, n: int) -> Optional[FgAbGroup]:
        if (k, n) in self.q_unstable:
            return self.q_unstable[(k, n)]
        if n == 2 and k >= 2:
            # eta: S^3 -> S^2 identifies pi_{2+k} of the two spheres, so every
            # class is a composite through dimension 3 and Q_{k,2} = 0.
            return TRIVIAL
        return None

    def em(self, m: int) -> Optional[FgAbGroup]:
        return self.em_homology.get(m)

    def metastable_module(self, n: int) -> QuadraticModule:
        if n not in self.metastable_qm:
            raise MissingTableData(f"the quadratic module Q_{n - 1}{{S^{n}}} is not tabulated")
        return self.metastable_qm[n]


def merge(base: StableTables, overlay: StableTables) -> StableTables:
    """Overlay entries override base entries; the result is re-validated."""
    out = StableTables(
        **{name: {**getattr(base, name), **getattr(overlay, name)} for name in _CODECS},
        torsion_exponent_rule=(overlay.torsion_exponent_rule
                               if overlay.torsion_exponent_rule is not None
                               else base.torsion_exponent_rule),
        provenance=base.provenance + overlay.provenance,
    )
    validate_tables(out)
    return out


def validate_tables(t: StableTables) -> None:
    for m, g in t.em_homology.items():
        if m >= 1 and g.rank:
            raise InconsistentTables(f"em_homology[{m}] = {g} is infinite, but HZ_{m}HZ is finite")
    if t.exponent_rule_enabled:
        for m, g in t.em_homology.items():
            if g.torsion:
                e = g.torsion[-1]
                for p in prime_factors(e):
                    if e % (p * p) == 0:
                        raise InconsistentTables(
                            f"em_homology[{m}] = {g} has p^2-torsion at p={p}; "
                            "the single-power-of-p rule forbids that")
    for (stem, gen), know in t.gamma.items():
        if stem not in t.q_stable:
            raise InconsistentTables(f"gamma entry {stem}.{gen} has no Q_{stem}^S table")
        entry = t.q_stable[stem]
        if gen not in entry.names:
            raise InconsistentTables(f"gamma entry {stem}.{gen}: unknown generator")
        d = entry.order_of(gen)
        cod = t.em(stem + 1)
        if know.state == "nonzero":
            if d and know.order and d % know.order:
                raise InconsistentTables(
                    f"gamma({gen}) of order {know.order} but the generator has order {d}")
            if cod is not None:
                e = cod.exponent()
                if e and know.order and e % know.order:
                    raise InconsistentTables(
                        f"gamma({gen}) order {know.order} exceeds the codomain exponent {e}")
        if know.state == "unknown" and cod is not None:
            e = cod.exponent()
            if e and e % know.bound:
                raise InconsistentTables(
                    f"gamma({gen}) order bound {know.bound} does not divide "
                    f"the codomain exponent {e}")
        if know.state == "known":
            if cod is None:
                raise InconsistentTables(
                    f"gamma entry {stem}.{gen} is known but HZ_{stem + 1}HZ is not tabulated")
            if len(know.value) != cod.dim:
                raise InconsistentTables(f"gamma entry {stem}.{gen} = {know}: HZ_{stem + 1}HZ = "
                                         f"{cod} takes vectors of length {cod.dim}")
            val = cod.reduce(know.value)
            o = cod.element_order(val)
            if d and o and d % o:
                raise InconsistentTables(
                    f"gamma({gen}) = {val} has order {o}, incompatible with generator order {d}")
    for ((i, ga), (j, gb)), coords in t.pi_products.items():
        for stem, g in ((i, ga), (j, gb)):
            if stem not in t.pi_stable or g not in t.pi_stable[stem].names:
                raise InconsistentTables(f"pi product references unknown generator {stem}.{g}")
        tgt = t.pi_stable.get(i + j)
        if tgt is None or len(coords) != len(tgt.summands):
            raise InconsistentTables(
                f"pi product {i}.{ga} * {j}.{gb} needs {i + j}-stem coordinates")


def prime_factors(n: int) -> Iterator[int]:
    """The distinct primes dividing n, ascending; just n itself exactly when n is prime."""
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n


# -- defaults -----------------------------------------------------------


def load_defaults() -> StableTables:
    """Tables holding exactly the published values the checker relies on.

    Stems 7, 11 and 15 carry only their 3-primary alpha-family generators
    and are marked partial; nothing else about those stems is assumed.
    Built and validated once per process; each call returns a new object
    with its own empty memo, sharing the (once canonicalized) groups.
    """
    t = _defaults()
    return StableTables(**{n: getattr(t, n) for n, f in t.__record_fields__.items() if f.init})


@cache
def _defaults() -> StableTables:
    tg = TabulatedGroup
    alpha = list(_alpha_family(3, 2, 4))  # stems 7, 11 and 15
    t = StableTables(
        pi_stable={
            0: tg(((0, "iota"),)),
            1: tg(((2, "eta"),)),
            2: tg(((2, "eta^2"),)),
            3: tg(((8, "nu"), (3, "alpha"))),
            4: tg(()),
            5: tg(()),
            6: tg(((2, "nu^2"),)),
        },
        q_stable={
            0: tg(((0, "iota"),)),
            1: tg(((2, "eta"),)),
            2: tg(()),
            3: tg(((4, "nu"), (3, "alpha"))),
            4: tg(()),
            5: tg(()),
            6: tg(()),
            **{stem: tg((summand,), complete=False) for stem, summand, _ in alpha},
        },
        q_unstable={(2, 2): TRIVIAL},
        em_homology={4: from_cyclic_orders([2, 3])},
        metastable_qm={2: Z_GAMMA, 3: Z_LAMBDA},
        gamma={
            (1, "eta"): GammaKnowledge.nonzero(2),
            (3, "nu"): GammaKnowledge.unknown(2),
            (3, "alpha"): GammaKnowledge.nonzero(3),
            **{(stem, name): know for stem, (_, name), know in alpha},
        },
        pi_products={
            ((1, "eta"), (1, "eta")): (1,),
            ((1, "eta"), (2, "eta^2")): (4, 0),
            ((1, "eta"), (3, "nu")): (),
            ((3, "nu"), (3, "nu")): (1,),
            ((3, "alpha"), (3, "alpha")): (0,),
        },
        torsion_exponent_rule=True,
        provenance=("defaults",),
    )
    validate_tables(t)
    return t


def _alpha_family(p: int, i_min: int, i_max: int, suffix: str = "") -> Iterator[tuple]:
    """(stem, (order, name), gamma) for the p-primary alpha family, i_min <= i <= i_max.

    For each i the stem is 2i(p-1)-1 and the recorded generator is
    alpha_{i/j} (alpha_i when j = 1) with the maximal j = v_p(i)+1, of order
    p^j, its name ending in ``suffix``. Its image under gamma is nonzero of
    order p for i = 1, zero for i >= 2 with j = 1, and otherwise unknown
    with bound p (p times it must die since the Eilenberg-MacLane torsion
    is annihilated by a single power of p).
    """
    for i in range(i_min, i_max + 1):
        j = 1
        while i % p ** j == 0:
            j += 1
        name = f"alpha_{i}{suffix}" if j == 1 else f"alpha_{i}/{j}{suffix}"
        know = (GammaKnowledge.nonzero(p) if i == 1 else
                GammaKnowledge.zero() if j == 1 else GammaKnowledge.unknown(p))
        yield 2 * i * (p - 1) - 1, (p ** j, name), know


def alpha_family_overlay(p: int, i_max: int) -> StableTables:
    """Overlay adding the p-primary alpha family alpha_1 .. alpha_{i_max}, for a prime p >= 5.

    The entries are those of ``_alpha_family``, with names ending in
    ``_p{p}``; the 3-primary family ships with the defaults, so p = 3 is
    refused.
    """
    if p < 5 or list(prime_factors(p)) != [p]:
        raise InconsistentTables("alpha_family_overlay expects a prime p >= 5; "
                                 "the 3-primary family ships with the defaults")
    defaults = _defaults()
    q_stable = {}
    gamma = {}
    for stem, (order, name), know in _alpha_family(p, 1, i_max, f"_p{p}"):
        # A stem can host alpha generators at several primes (e.g. stem 7 at
        # p = 3 and p = 5); since merge() replaces whole entries, colliding
        # partial entries absorb the default generators instead.
        prior = q_stable.get(stem) or defaults.q_stable.get(stem)
        summands = ((order, name),)
        if prior is not None:
            if prior.complete:
                raise InconsistentTables(
                    f"stem {stem} is fully tabulated; refusing to extend it")
            if name in prior.names:
                raise InconsistentTables(f"generator {name} already present in stem {stem}")
            summands = prior.summands + summands
        q_stable[stem] = TabulatedGroup(summands, complete=False)
        gamma[(stem, name)] = know
    return StableTables(q_stable=q_stable, gamma=gamma,
                        provenance=(f"alpha-family(p={p})",))


# -- admissible completions ---------------------------------------------


@record
class GammaCompletion:
    """One total homomorphism gamma: Q_k^S -> HZ_{k+1}HZ consistent with the tables."""

    stem: int
    assignment: tuple  # ((generator name, element coords in the codomain), ...)
    hom: GroupHom


def _candidate_images(know: Optional[GammaKnowledge], d: int, cod: FgAbGroup) -> list:
    elems = list(cod.elements_killed_by(d))
    if know is None:
        return elems
    if know.state == "known":
        v = cod.reduce(know.value)
        return [v] if v in elems else []
    if know.state == "zero":
        return [cod.zero()]
    if know.state == "nonzero":
        return [e for e in elems if cod.element_order(e) == know.order]
    # unknown with order bound
    return [e for e in elems if (know.bound % (cod.element_order(e) or 1)) == 0]


def admissible_gamma_completions(k: int, tables: StableTables) -> list:
    """All total maps gamma consistent with every knowledge state, in a fixed order.

    Known entries appear unaltered in every completion. Requires a complete
    Q_k^S table and the codomain HZ_{k+1}HZ.
    """
    entry = tables.q_stable_entry(k)
    if not entry.complete:
        raise MissingTableData(f"Q_{k}^S is only partially tabulated; cannot enumerate completions")
    cod = tables.em(k + 1)
    if entry.group.is_trivial:
        # The empty map is the unique completion whatever the codomain is.
        target = cod if cod is not None else TRIVIAL
        return [GammaCompletion(k, (), GroupHom.zero(entry.group, target))]
    if cod is None:
        raise MissingTableData(f"HZ_{k + 1}HZ is not tabulated")
    per_gen = []
    for d, name in entry.summands:
        know = tables.gamma.get((k, name))
        per_gen.append(_candidate_images(know, d, cod))
    out = []
    solver = Factorizer(entry.generator_hom(), cod)  # only the images vary
    for combo in itertools.product(*per_gen):
        hom = solver.solve(list(combo))
        assert hom is not None, "image orders divide generator orders"
        out.append(GammaCompletion(k, tuple(zip(entry.names, combo)), hom))
    return out


# -- text format ---------------------------------------------------------


_TERM_RE = re.compile(r"^(Z(?:\^(\d+))?|Z/(\d+))(?:<([A-Za-z0-9_^/()]+)>)?$")


def parse_group_text(text: str):
    """Parse a group literal into (order, name) summands.

    Accepts the text grammar ("Z/4<nu> + Z/3<alpha>", "Z^2", "0") and, for
    convenience, the JSON object form {"rank": r, "torsion": [...]}: a JSON
    integer r >= 0 and a list of JSON integers >= 2, which need not form a
    divisibility chain ({"torsion": [2, 3]} is Z/6).
    """
    text = text.strip()
    if text.startswith("{"):
        import json  # here and in the metastable_qm codec only, so `import pialg` skips it
        doc = json.loads(text)
        extra = sorted(doc.keys() - {"rank", "torsion"})
        if extra:
            raise TableFormatError(f"JSON group takes only rank and torsion, got {extra[0]!r} "
                                   f"in {text}; name generators in the text form, as in Z<x>")
        rank, torsion = doc.get("rank", 0), doc.get("torsion", [])
        if (type(rank) is not int or rank < 0 or type(torsion) is not list
                or any(type(d) is not int or d < 2 for d in torsion)):
            raise TableFormatError(f"JSON group needs integers: rank >= 0, torsion >= 2; got {text}")
        return [(0, None)] * rank + [(d, None) for d in torsion]
    if text == "0":
        return []
    summands = []
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise TableFormatError(f"cannot parse group term {term!r}")
        if m.group(3) is not None:
            order = int(m.group(3))
            if order < 2:
                raise TableFormatError(f"cyclic order must be >= 2 in {term!r}")
        elif m.group(2) is not None:
            if m.group(4):
                raise TableFormatError(f"cannot name a Z^r block in {term!r}")
            summands.extend([(0, None)] * int(m.group(2)))
            continue
        else:
            order = 0
        summands.append((order, m.group(4)))
    return summands


def group_from_text(text: str) -> FgAbGroup:
    summands = parse_group_text(text)
    labels = [n for _, n in summands]
    named = [n for n in labels if n]
    if len(set(named)) != len(named):
        raise TableFormatError(f"duplicate generator names in {text.strip()!r}")
    return from_cyclic_orders([d for d, _ in summands],
                              labels if all(labels) and labels else None)


_COORDS_RE = re.compile(r"\[\s*(-?\d+(?:\s*,\s*-?\d+)*)?\s*\]")


def _coords(text: str) -> tuple:
    """A coordinate list: bracketed, comma-separated integers; ``[]`` is empty."""
    m = _COORDS_RE.fullmatch(text.strip())
    if not m:
        raise TableFormatError(f"expected a coordinate list like [1, 0], got {text.strip()!r}")
    return tuple(map(int, m.group(1).split(","))) if m.group(1) else ()


def _coords_text(coords) -> str:
    return f"[{', '.join(map(str, coords))}]"


_GAMMA_VALUE_RE = re.compile(r"^(?:zero|nonzero\((\d+)\)|unknown\((\d+)\)|known\s*(\[.*))$")


def parse_gamma_value(text: str) -> GammaKnowledge:
    m = _GAMMA_VALUE_RE.match(text.strip())
    if not m:
        raise TableFormatError(f"cannot parse gamma value {text!r}")
    if m.group(1) is not None:
        return GammaKnowledge.nonzero(int(m.group(1)))
    if m.group(2) is not None:
        return GammaKnowledge.unknown(int(m.group(2)))
    if m.group(3) is not None:
        return GammaKnowledge.known(_coords(m.group(3)))
    return GammaKnowledge.zero()


def _tabulated(value: str) -> TabulatedGroup:
    """A group literal marked ``(partial)`` when incomplete; unnamed summands become g1, g2, ..."""
    body = value.removesuffix("(partial)")
    summands = tuple((d, n or f"g{i}") for i, (d, n) in enumerate(parse_group_text(body), start=1))
    return TabulatedGroup(summands, complete=body == value)


def _stem_gen(text: str) -> tuple:
    stem, gen = text.strip().split(".")
    if not gen:
        raise TableFormatError("generator keys look like '<stem>.<generator>'")
    return int(stem), gen


def _pair(read, sep: str):
    def read_pair(text: str) -> tuple:
        a, b = text.split(sep)
        return read(a), read(b)
    return read_pair


def _quadratic_module(value: str) -> QuadraticModule:
    if value in BUILTIN_QUADRATIC_MODULES:
        return BUILTIN_QUADRATIC_MODULES[value]
    import json
    return quadratic_module_from_json(json.loads(value))


def _quadratic_module_text(qm: QuadraticModule) -> str:
    """A builtin's name when its JSON, labels included, is the module's; else the JSON."""
    doc = quadratic_module_to_json(qm)
    builtin = [name for name, bqm in BUILTIN_QUADRATIC_MODULES.items()
               if quadratic_module_to_json(bqm) == doc]
    import json
    return builtin[0] if builtin else json.dumps(doc)


def _group_text(g: FgAbGroup) -> str:
    return str(g).replace(" ⊕ ", " + ")


#: Each mapping field of ``StableTables``, in overlay-file order, with its
#: codec: (read key, read value, write key, write value).
_CODECS = {
    "pi_stable": (int, _tabulated, str, str),
    "q_stable": (int, _tabulated, str, str),
    "q_unstable": (_pair(int, ","), group_from_text, "{0[0]},{0[1]}".format, _group_text),
    "em_homology": (int, group_from_text, str, _group_text),
    "metastable_qm": (int, _quadratic_module, str, _quadratic_module_text),
    "gamma": (_stem_gen, parse_gamma_value, "{0[0]}.{0[1]}".format, str),
    "pi_products": (_pair(_stem_gen, "*"), _coords,
                    lambda ab: "%d.%s * %d.%s" % (*ab[0], *ab[1]), _coords_text),
}


def loads_tables(text: str, name: str = "<string>") -> StableTables:
    """Parse overlay text into a (possibly partial) StableTables."""
    fields: dict = {section: {} for section in _CODECS}
    rule = section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                if not line.endswith("]"):
                    raise TableFormatError("unterminated section header")
                section = line[1:-1].strip()
                if section not in (*_CODECS, "options"):
                    raise TableFormatError(f"unknown section {section!r}")
                continue
            if section is None:
                raise TableFormatError("entry before any [section] header")
            if "=" not in line:
                raise TableFormatError("expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if section != "options":
                read_key, read_value, _, _ = _CODECS[section]
                fields[section][read_key(key)] = read_value(value)
            elif key != "torsion_exponent_rule":
                raise TableFormatError(f"unknown option {key!r}")
            elif value not in ("on", "off"):
                raise TableFormatError("torsion_exponent_rule must be 'on' or 'off'")
            else:
                rule = value == "on"
        except (TableFormatError, ValueError, KeyError, MalformedStructureMap) as exc:
            raise TableFormatError(f"{name}:{lineno}: {exc}") from exc
        except InconsistentTables as exc:
            raise InconsistentTables(f"{name}:{lineno}: {exc}") from exc
    return StableTables(torsion_exponent_rule=rule, provenance=(name,), **fields)


def dumps_tables(t: StableTables) -> str:
    """Serialize tables in the overlay format; loads_tables round-trips it."""
    lines = []
    if t.torsion_exponent_rule is not None:
        lines += ["[options]",
                  f"torsion_exponent_rule = {'on' if t.torsion_exponent_rule else 'off'}", ""]
    for section, (_, _, write_key, write_value) in _CODECS.items():
        table = getattr(t, section)
        if table:
            lines += [f"[{section}]", *(f"{write_key(key)} = {write_value(table[key])}"
                                         for key in sorted(table)), ""]
    return "\n".join(lines)


def verify_pi_ring_relations(t: StableTables) -> list:
    """Check the stored stem generators against the stated ring relations.

    Returns a list of human-readable failures; empty means every relation
    (2·eta = 0, eta³ = 4·nu, eta·nu = 0, 2·nu² = 0, 3·alpha = 0,
    alpha² = 0) holds under the tabulated generator arithmetic.
    """
    bad = []

    def named_element(stem, coeffs):
        entry = t.pi_stable[stem]
        vec = entry.group.zero()
        for (name, c) in coeffs:
            vec = entry.group.add(vec, entry.group.smul(c, entry.element_of(name)))
        return entry.group.reduce(vec)

    def product(i, ga, j, gb):
        coords = t.pi_products[((i, ga), (j, gb))]
        entry = t.pi_stable[i + j]
        return named_element(i + j, list(zip(entry.names, coords)))

    try:
        if t.pi_stable[1].order_of("eta") != 2:
            bad.append("2·eta = 0 fails: eta does not have order 2")
        eta_cubed = product(1, "eta", 2, "eta^2")
        if eta_cubed != named_element(3, [("nu", 4)]):
            bad.append("eta^3 = 4·nu fails")
        if named_element(3, [("nu", 4)]) == t.pi_stable[3].group.zero():
            bad.append("4·nu should be nonzero (eta^3 detects it)")
        if any(product(1, "eta", 3, "nu")):
            bad.append("eta·nu = 0 fails")
        nu_sq = product(3, "nu", 3, "nu")
        if any(t.pi_stable[6].group.smul(2, nu_sq)):
            bad.append("2·nu^2 = 0 fails")
        if not any(nu_sq):
            bad.append("nu^2 should generate the 6-stem")
        if t.pi_stable[3].order_of("alpha") != 3:
            bad.append("3·alpha = 0 fails: alpha does not have order 3")
        if any(product(3, "alpha", 3, "alpha")):
            bad.append("alpha^2 = 0 fails")
    except KeyError as exc:
        bad.append(f"missing table entry: {exc}")
    return bad


def load_from_file(path) -> StableTables:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TableFormatError(str(exc))
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: {exc}")
    return loads_tables(text, name=str(path))


def load_tables(overlay_paths=()) -> StableTables:
    """Defaults merged with overlay files, left to right."""
    t = load_defaults()
    for p in overlay_paths:
        overlay = load_from_file(p)
        try:
            t = merge(t, overlay)
        except InconsistentTables as exc:  # the merged tables are at fault: name the overlay
            raise InconsistentTables(f"{p}: {exc}") from exc
    return t
