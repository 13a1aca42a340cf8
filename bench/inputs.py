"""Seeded inputs for the three workloads.

Every input is a pure function of (seed, block, slot), so the same seed
always gives the same inputs and no input repeats within a run. The
program under test only ever sees the generated inputs; it is used here
solely to size structure maps (``gamma_tilde``) and to write tables in the
overlay format, and none of this runs inside a timed region.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

# -- survey -------------------------------------------------------------

SURVEY_STEM = 3
SURVEY_MAX_ORDER = 6
SURVEY_MAX_SUMMANDS = 2
SURVEY_TARGETS = (2, 4, 12)


def survey_targets(seed: int) -> list:
    """Target orders of the survey; the seed only permutes them."""
    targets = list(SURVEY_TARGETS)
    random.Random(f"survey:{seed}").shuffle(targets)
    return targets


# -- snf ------------------------------------------------------------------

# One block: square and rectangular shapes from 4x4 to 40x40, in order of
# cost. Ranks 5-7 (the median) and 8-10 (p75) of each block are clusters of
# near-equal size, so those percentiles sit inside a cluster, not on the
# jump between two sizes.
SNF_SHAPES = ((4, 4), (6, 9), (9, 6), (12, 12),
              (20, 20), (18, 22), (22, 18),
              (32, 32), (30, 34), (34, 30),
              (36, 40), (40, 40))
SNF_ENTRY = 100


def snf_block(seed: int, block: int) -> list:
    """Dense matrices with entries in [-SNF_ENTRY, SNF_ENTRY], one per shape."""
    out = []
    for slot, (r, c) in enumerate(SNF_SHAPES):
        rng = random.Random(f"snf:{seed}:{block}:{slot}")
        out.append((r, c, [[rng.randint(-SNF_ENTRY, SNF_ENTRY) for _ in range(c)]
                           for _ in range(r)]))
    return out


# -- checks ---------------------------------------------------------------

NU_OVERLAYS = ("known [0]", "known [3]", "zero", "unknown(2)", "unknown(1)")
ALPHA_PRIMES = (5, 7, 11, 13)

# What-if stems: a complete Q_k^S with named summands, a tabulated
# HZ_{k+1}HZ, and the bound of each generator's unknown gamma. Completion
# counts are 48, 12, 12 and 12 with every generator unknown.
WHATIF_TEMPLATES = (
    ("Z/2<a> + Z/2<b> + Z/3<c>", "Z/2 + Z/6", {"a": 2, "b": 2, "c": 3}),
    ("Z/2<a> + Z/3<c>", "Z/2 + Z/6", {"a": 2, "c": 3}),
    ("Z/6<a>", "Z/2 + Z/6", {"a": 6}),
    ("Z/4<a> + Z/2<b> + Z/3<c>", "Z/6", {"a": 2, "b": 2, "c": 3}),
)

# Slots of one checks block, in order. The composition is fixed so that
# every block costs about the same; the seed picks everything inside a slot.
CHECK_SLOTS = (
    "nu", "nu", "nu", "nu", "nu", "nu",
    "alpha", "alpha", "alpha",
    "k1", "k1", "k2",
    "metastable", "metastable",
    "three", "three",
    "whatif0", "whatif1", "whatif2", "whatif3", "whatif0",
    "malformed_missing_n", "malformed_array", "malformed_chain",
)
MALFORMED_KINDS = ("malformed_missing_n", "malformed_array", "malformed_chain")


@dataclass
class CheckItem:
    """One `pialg check` invocation: a problem file and its own overlay."""

    kind: str
    problem_path: str
    overlay_path: str
    doc: object
    cols: Optional[list]  # eta column per semantic generator (two-stage kinds)


def _group_json(g) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _killed_element(rng, g, d: int) -> list:
    """A random element of g killed by d (d = 0: any element)."""
    out = []
    for t in g.torsion:
        step = t // gcd(t, d) if d else 1
        out.append(step * rng.randrange(t // step))
    out += [rng.randint(-2, 2) if d == 0 else 0 for _ in range(g.rank)]
    return out


def _random_hom(pialg, rng, src, tgt):
    cols = [_killed_element(rng, tgt, src.coord_order(j)) for j in range(src.dim)]
    return pialg.GroupHom.from_columns(src, tgt, cols)


def _matrix_json(rows: int, cols) -> list:
    """Row-major JSON matrix from columns (handles zero columns)."""
    return [[c[i] for c in cols] for i in range(rows)]


def _structure_columns(pialg, rng, gt_group, gens, target) -> list:
    """Columns eta(s_j) for a random homomorphism eta out of gamma_tilde."""
    h = _random_hom(pialg, rng, gt_group, target)
    return [list(h.apply(g.element)) for g in gens]


def _random_a_n(rng, pool, summands):
    return [rng.choice(pool) for _ in range(summands)]


def _two_stage_doc(pialg, rng, tables, n, k, a_orders, target_orders):
    a_n = pialg.from_cyclic_orders(a_orders)
    a_nk = pialg.from_cyclic_orders(target_orders)
    gt = pialg.gamma_tilde(n, k, a_n, tables)
    cols = _structure_columns(pialg, rng, gt.group, gt.generators, a_nk)
    doc = {"n": n, "k": k, "A_n": _group_json(a_n), "A_nk": _group_json(a_nk),
           "eta": _matrix_json(a_nk.dim, cols)}
    return doc, cols


def _nu_overlay(rng) -> str:
    return f"[gamma]\n3.nu = {rng.choice(NU_OVERLAYS)}\n"


def _whatif_overlay(rng, template, stem, pin: bool) -> str:
    q_text, em_text, bounds = template
    lines = ["[q_stable]", f"{stem} = {q_text}", "", "[em_homology]",
             f"{stem + 1} = {em_text}", "", "[gamma]"]
    names = list(bounds)
    pinned = rng.choice(names) if pin else None  # this generator is known to be zero
    for name in names:
        state = "zero" if name == pinned else f"unknown({bounds[name]})"
        lines.append(f"{stem}.{name} = {state}")
    return "\n".join(lines) + "\n"


def _loads(pialg, text: str):
    return pialg.merge(pialg.load_defaults(), pialg.loads_tables(text, "overlay"))


def make_check_item(pialg, seed: int, block: int, slot: int, workdir: str) -> CheckItem:
    kind = CHECK_SLOTS[slot]
    rng = random.Random(f"checks:{seed}:{block}:{slot}")
    cols = None  # eta(s_j) per semantic generator, for the two-stage kinds
    small = [0, 2, 3, 4, 6, 8, 12]
    targets = [[2], [3], [4], [6], [12], [2, 2], [2, 6], [0]]
    if kind == "nu" or kind.startswith("malformed"):
        overlay = _nu_overlay(rng)
        tables = _loads(pialg, overlay)
        n = rng.choice((5, 6, 7))
        a = _random_a_n(rng, small, 1 + slot % 2)
        doc, cols = _two_stage_doc(pialg, rng, tables, n, 3, a, rng.choice(targets))
        if kind == "malformed_missing_n":
            del doc["n"]
        elif kind == "malformed_array":
            doc = [doc]
        elif kind == "malformed_chain":
            doc["A_n"] = {"rank": 0, "torsion": [4, 6]}
    elif kind == "alpha":
        p = rng.choice(ALPHA_PRIMES)
        i_max = rng.randint(1, 3)
        overlay = pialg.dumps_tables(pialg.alpha_family_overlay(p, i_max))
        tables = _loads(pialg, overlay)
        i = rng.randint(1, i_max)
        stem = 2 * i * (p - 1) - 1
        a = _random_a_n(rng, [0, p, p * p, 2 * p, 3], 1 + slot % 2)
        doc, cols = _two_stage_doc(pialg, rng, tables, stem + 2, stem, a,
                                   rng.choice([[p], [p * p], [2 * p], [p, p]]))
    elif kind in ("k1", "k2"):
        overlay = _nu_overlay(rng)
        tables = _loads(pialg, overlay)
        k = 1 if kind == "k1" else 2
        n = rng.choice((2, 3, 4, 5)) if k == 1 else rng.choice((3, 3, 4, 6))
        a = _random_a_n(rng, small, 1 + slot % 2)
        doc, cols = _two_stage_doc(pialg, rng, tables, n, k, a, rng.choice(targets))
    elif kind == "metastable":
        n = rng.choice((4, 5))
        module = rng.choice(("Z_Gamma", "Z_Lambda", "pi3S2"))
        overlay = f"{_nu_overlay(rng)}\n[metastable_qm]\n{n} = {module}\n"
        tables = _loads(pialg, overlay)
        a = _random_a_n(rng, [0, 2, 3, 4], 1 + rng.randrange(2))
        doc, cols = _two_stage_doc(pialg, rng, tables, n, n - 1, a, rng.choice(targets))
        if slot % 2 == 0:  # zero eta: realizable; otherwise an unsupported regime
            doc["eta"] = [[0] * len(cols) for _ in doc["eta"]]
            cols = [[0] * len(c) for c in cols]
    elif kind == "three":
        overlay = _nu_overlay(rng)
        n = rng.choice((4, 5, 6))
        groups = [pialg.from_cyclic_orders(_random_a_n(rng, [0, 2, 4, 6, 8], 1 + rng.randrange(2)))
                  for _ in range(3)]
        a_n, a_n1, a_n2 = groups
        tp1, _ = pialg.mod_reduction(a_n, 2)
        tp2, _ = pialg.mod_reduction(a_n1, 2)
        e1 = _random_hom(pialg, rng, tp1.group, a_n1)
        e2 = _random_hom(pialg, rng, tp2.group, a_n2)
        doc = {"n": n, "A_n": _group_json(a_n), "A_n1": _group_json(a_n1),
               "A_n2": _group_json(a_n2), "eta1": e1.matrix.to_lists(),
               "eta2": e2.matrix.to_lists()}
    elif kind.startswith("whatif"):
        template = WHATIF_TEMPLATES[int(kind[-1])]
        stem = rng.choice((4, 5, 6))
        overlay = _whatif_overlay(rng, template, stem, pin=slot == len(CHECK_SLOTS) - 4)
        tables = _loads(pialg, overlay)
        a = _random_a_n(rng, [0, 2, 3, 4, 6], 1 + slot % 2)
        doc, cols = _two_stage_doc(pialg, rng, tables, stem + 2 + rng.randrange(2), stem,
                                   a, rng.choice([[2], [6], [12], [2, 6]]))
    else:
        raise ValueError(kind)
    base = os.path.join(workdir, f"b{block}s{slot}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(base + ".tbl", "w", encoding="utf-8") as fh:
        fh.write(overlay)
    return CheckItem(kind, base + ".json", base + ".tbl", doc, cols)


def check_block(pialg, seed: int, block: int, workdir: str) -> list:
    return [make_check_item(pialg, seed, block, slot, workdir)
            for slot in range(len(CHECK_SLOTS))]
