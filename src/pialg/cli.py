"""Command-line interface.

Commands: ``check``, ``gamma-tilde``, ``quad-tensor``, ``tables``,
``survey``, ``selftest``. Every command accepts ``--tables`` overlays
(repeatable) and ``--format text|machine``; reports can additionally be
written to a file with ``--output``.

Exit codes for ``check``: 0 realizable, 1 non-realizable, 2 undetermined,
3 and up for errors. All other commands exit 0 on success, 3 on error.

``main`` is the one place that emits reports and maps errors: each ``cmd_*``
handler returns ``(fields, text_lines, exit_code)``, and every error exits 3.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
import time
from itertools import accumulate

from . import __version__
from .errors import PialgError, TableFormatError
from .fgab import group_to_json
from .pi_functors import gamma_tilde
from .quadratic import (
    BUILTIN_QUADRATIC_MODULES,
    quad_tensor,
    quadratic_module_from_json,
)
from .realizability import (
    ThreeStageProblem,
    check,
    problem_from_json,
    survey_stem,
    three_stage_obstruction,
    verdict_to_json,
)
from .selftest import run_selftest
from .tables import (
    StableTables,
    group_from_text,
    load_tables,
    read_int,
    verify_pi_ring_relations,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # "undetermined" exit code; route every error to >= 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(3)


def _int_at_least(least=-math.inf):
    """An argparse type: an integer, read as overlays read one, no smaller than ``least``."""
    def int_(text: str) -> int:
        if (value := read_int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value}")
        return value
    int_.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return int_


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tables", action="append", default=[], metavar="PATH",
                   help="table overlay file; repeatable, later files win")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report format (machine = JSON)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="also write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pialg",
                     description="realizability of two-stage homotopy operation data")
    parser.add_argument("--version", action="version", version=f"pialg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a problem file")
    p.add_argument("problem", help="problem JSON file")
    _common_flags(p)

    p = sub.add_parser("gamma-tilde", help="compute the homotopy-operation functor")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--group", required=True,
                   help="group literal, JSON or text (e.g. '{\"rank\":1,\"torsion\":[]}' or 'Z/4')")
    _common_flags(p)

    p = sub.add_parser("quad-tensor", help="compute a quadratic tensor product")
    p.add_argument("--group", required=True, help="group literal")
    p.add_argument("--module", required=True,
                   help="builtin name (Z_Gamma, Z_Lambda, pi3S2, pi5S3, Q2S3) or @file.json")
    _common_flags(p)

    p = sub.add_parser("tables", help="inspect the stable tables")
    p.add_argument("action", choices=("show",))
    p.add_argument("--stem", type=_int_at_least(), default=None)
    _common_flags(p)

    p = sub.add_parser("survey", help="sweep a stem over small groups and all structure maps")
    p.add_argument("--stem", type=_int_at_least(1), required=True)
    p.add_argument("--max-order", type=_int_at_least(1), default=4)
    p.add_argument("--max-summands", type=_int_at_least(1), default=1)
    p.add_argument("--targets", default="Z/2,Z/4",
                   help="comma-separated group literals; commas inside [] and {} do not split")
    p.add_argument("--no-free", action="store_true", help="exclude Z summands from A_n")
    p.add_argument("--max-checks", type=_int_at_least(1), default=20000)
    _common_flags(p)

    p = sub.add_parser("selftest", help="run the built-in regression examples")
    _common_flags(p)
    return parser


def _verdict_lines(v) -> list:
    lines = [f"verdict: {v.status.value}"]
    if v.note:
        lines.append(f"  note: {v.note}")
    if v.witness is not None:
        lines.append(f"  witness: {v.witness.matrix.to_lists()} "
                     f"on {v.witness.source} -> {v.witness.target}")
    if v.obstruction is not None:
        if v.obstruction.element is not None:
            lines.append(f"  obstruction: {v.obstruction.label}  ({v.obstruction.note})")
        else:
            lines.append(f"  obstruction: {v.obstruction.note}")
    if v.blocking:
        lines.append("  blocking: " + ", ".join(v.blocking))
    if v.completions:
        n_fact = sum(1 for o in v.completions if o.factorable)
        lines.append(f"  completions examined: {len(v.completions)} ({n_fact} factorable)")
        for o in v.completions:
            desc = ", ".join(f"γ({name})={list(c)}" for name, c in o.assignment) or "γ=0"
            lines.append(f"    [{'ok' if o.factorable else 'no'}] {desc}")
    return lines


def _json_file(path: str):
    """The JSON document in ``path``; one that does not decode raises an error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise PialgError(f"{path}: {exc}") from exc


def cmd_check(args, tables: StableTables) -> tuple:
    t0 = time.perf_counter()
    problem = problem_from_json(_json_file(args.problem), tables)
    if isinstance(problem, ThreeStageProblem):
        _, verdict = three_stage_obstruction(problem)
    else:
        verdict = check(problem, tables)
    elapsed = time.perf_counter() - t0
    return ({"elapsed_s": round(elapsed, 6), "results": [verdict_to_json(verdict)]},
            [f"problem: {args.problem}"] + _verdict_lines(verdict) + [f"elapsed: {elapsed:.3f}s"],
            verdict.exit_code())


def cmd_gamma_tilde(args, tables: StableTables) -> tuple:
    t0 = time.perf_counter()
    g = group_from_text(args.group)
    res = gamma_tilde(args.n, args.k, g, tables)
    fields = {"elapsed_s": round(time.perf_counter() - t0, 6), "results": [{
        "group": group_to_json(res.group),
        "regime": res.regime.value,
        "generators": [{"label": s.label, "element": list(s.element), "order": s.order}
                       for s in res.generators],
    }]}
    lines = [f"gamma_tilde({args.n}, {args.k}, {g}) = {res.group}   [{res.regime.value}]"]
    for s in res.generators:
        lines.append(f"  {s.label}  ->  {list(s.element)}  (order {s.order or '∞'})")
    return fields, lines, 0


def cmd_quad_tensor(args, tables: StableTables) -> tuple:
    g = group_from_text(args.group)
    if args.module.startswith("@"):
        qm = quadratic_module_from_json(_json_file(args.module[1:]))
    elif args.module in BUILTIN_QUADRATIC_MODULES:
        qm = BUILTIN_QUADRATIC_MODULES[args.module]
    else:
        raise PialgError(f"unknown quadratic module {args.module!r}; "
                         f"builtins: {', '.join(sorted(BUILTIN_QUADRATIC_MODULES))}")
    t0 = time.perf_counter()
    res = quad_tensor(g, qm)
    fields = {"elapsed_s": round(time.perf_counter() - t0, 6), "results": [{
        "group": group_to_json(res.group),
        "generators": [{"label": lab, "element": list(el)}
                       for lab, el in res.natural_generators()],
    }]}
    lines = [f"{g} ⊗q {args.module} = {res.group}"]
    for lab, el in res.natural_generators():
        lines.append(f"  {lab}  ->  {list(el)}")
    return fields, lines, 0


def cmd_tables(args, tables: StableTables) -> tuple:
    stems = sorted(tables.q_stable) if args.stem is None else [args.stem]
    entries = []
    lines = []
    for k in stems:
        if k not in tables.q_stable:
            raise PialgError(f"no table entry for stem {k}")
        entry = tables.q_stable[k]
        pi = tables.pi_stable.get(k)
        cod = tables.em(k + 1)
        gammas = {name: str(tables.gamma[(k, name)])
                  for name in entry.names if (k, name) in tables.gamma}
        entries.append({
            "stem": k,
            "Q": str(entry),
            "Q_group": group_to_json(entry.group),
            "pi": str(pi) if pi is not None else None,
            "HZ_{k+1}HZ": group_to_json(cod) if cod is not None else None,
            "gamma": gammas,
        })
        lines.append(f"stem {k}: Q = {entry}  (canonical {entry.group})")
        if pi is not None:
            lines.append(f"  pi^S = {pi}  (canonical {pi.group})")
        lines.append(f"  HZ_{k + 1}HZ = {cod if cod is not None else 'untabulated'}")
        for name in entry.names:
            know = gammas.get(name, "unconstrained")
            lines.append(f"  γ({name}): {know}")
    relations = verify_pi_ring_relations(tables)
    if args.stem is None:
        lines.append("ring relations: " + ("all hold" if not relations else "; ".join(relations)))
    return {"results": entries, "ring_relation_failures": relations}, lines, 0


def cmd_survey(args, tables: StableTables) -> tuple:
    # Split at the commas outside brackets and braces, so JSON literals stay whole.
    depth = accumulate((ch in "[{") - (ch in "]}") for ch in args.targets)
    text = "".join("\0" if ch == "," and not d else ch for ch, d in zip(args.targets, depth))
    targets = [group_from_text(s) for s in text.split("\0") if s.strip()]
    if not targets:
        raise TableFormatError(f"--targets {args.targets!r} names no group")
    if repeated := [g for i, g in enumerate(targets) if g in targets[:i]]:
        raise TableFormatError(f"--targets {args.targets!r} names {repeated[0]} twice")
    t0 = time.perf_counter()
    rep = survey_stem(args.stem, tables, args.max_order, args.max_summands, targets,
                      include_free=not args.no_free, max_checks=args.max_checks)
    fields = {"elapsed_s": round(time.perf_counter() - t0, 6), "results": [{
        "stem": rep.stem,
        "n_used": rep.n_used,
        "rows": [{"A_n": group_to_json(r.a_n), "target": group_to_json(r.target),
                  "counts": dict(r.counts)} for r in rep.rows],
        "totals": dict(rep.totals),
    }]}
    lines = [f"survey of stem {rep.stem} (n = {rep.n_used}): {rep.total_cases()} cases"]
    for r in rep.rows:
        counts = ", ".join(f"{s}: {c}" for s, c in r.counts)
        lines.append(f"  A_n = {r.a_n}, target {r.target}:  {counts}")
    lines.append("totals: " + ", ".join(f"{s}: {c}" for s, c in rep.totals))
    return fields, lines, 0


def cmd_selftest(args, tables: StableTables) -> tuple:
    t0 = time.perf_counter()
    results = run_selftest(tables)
    elapsed = time.perf_counter() - t0
    n_fail = sum(1 for _, ok, _ in results if not ok)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail and not ok else "")
             for name, ok, detail in results]
    lines.append(f"{len(results) - n_fail}/{len(results)} passed in {elapsed:.2f}s")
    return ({"elapsed_s": round(elapsed, 6),
             "results": [{"name": n, "ok": ok, "detail": detail} for n, ok, detail in results]},
            lines, 0 if n_fail == 0 else 3)


_quote = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in one recursive pass.

    CPython's C encoder serves only ``indent=None``, so an indented
    ``json.dumps`` runs its pure-Python encoder, which takes about twice as
    long as this pass on a report that lists 48 completions. Only str keys
    and str, int, bool, None, finite float, list, tuple and dict values are
    written; anything else, NaN included, raises TypeError.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{_quote(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        for x in value:
            if type(x) is not int:  # bools included
                items = [_json_text(x, inner) for x in value]
                break
        else:  # plain ints, such as a matrix row: one join, no call per entry
            items = map(int.__repr__, value)
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # The tree holds no per-call state (parse_args copies list defaults), so
    # one per process serves every main() call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "gamma-tilde": cmd_gamma_tilde,
        "quad-tensor": cmd_quad_tensor,
        "tables": cmd_tables,
        "survey": cmd_survey,
        "selftest": cmd_selftest,
    }
    try:
        tables = load_tables(args.tables)
        fields, lines, code = handlers[args.command](args, tables)
        report = {
            # Unset arguments are dropped by identity: a zero-valued one equals False.
            "command": [args.command] + [f"{k}={v}" for k, v in sorted(vars(args).items())
                                         if k != "command" and v is not None
                                         and v is not False and v != []],
            "tables": list(tables.provenance),
            **fields,
        }
        out = _json_text(report) if args.format == "machine" else "\n".join(lines)
        # --output is written and closed first, so a failed write prints no report.
        with open(args.output, "w", encoding="utf-8") if args.output else io.StringIO() as fh:
            fh.write(out + "\n")
        print(out)
        return code
    # ValueError and RecursionError also come from text arguments: a --group
    # literal with an integer over CPython's digit limit, or nested too deep.
    except (PialgError, OSError, ValueError, RecursionError) as exc:
        print(f"pialg: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
