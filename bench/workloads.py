"""The three workloads: inputs by block, the timed call, and a digest of each output.

A workload hands out its inputs in blocks of fixed composition. ``run`` is
the only code inside a timed region. ``digest`` runs afterwards, checks
the output against the reference and keeps only what the metrics need, so
large certificates are dropped as soon as they are checked.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import inputs
import reference
from common import digits, max_digits


class Survey:
    """One survey_stem call per item: stem 3, orders <= 6, <= 2 summands, 717 cases."""

    name = "survey"
    tail_pct = 100.0  # a pass is one sample; see README
    min_blocks = 1
    traced_blocks_per_s = 0.2

    def __init__(self, pialg, seed, workdir):
        self.pialg = pialg
        self.tables = pialg.load_tables()
        self.orders = inputs.survey_targets(seed)
        self.targets = [pialg.cyclic(t) for t in self.orders]
        self.expected = reference.survey_reference(pialg, self.tables, self.orders)

    def block(self, b):
        return [b]

    def run(self, item):
        return self.pialg.survey_stem(
            inputs.SURVEY_STEM, self.tables, max_cyclic_order=inputs.SURVEY_MAX_ORDER,
            max_summands=inputs.SURVEY_MAX_SUMMANDS, targets=self.targets)

    def digest(self, item, rep):
        totals = dict(rep.totals)
        error = "" if totals == self.expected else f"totals {totals} != recount {self.expected}"
        to_json = self.pialg.realizability.group_to_json
        report = {"stem": rep.stem, "n_used": rep.n_used,
                  "rows": [{"A_n": to_json(r.a_n), "target": to_json(r.target),
                            "counts": dict(r.counts)} for r in rep.rows],
                  "totals": totals}
        ints = [[r.a_n.rank, *r.a_n.torsion, r.target.rank, *r.target.torsion,
                 *dict(r.counts).values()] for r in rep.rows] + [list(totals.values())]
        return {"cases": rep.total_cases(), "error": error, "malformed": False,
                "digits": max_digits(ints), "bytes": len(json.dumps(report)),
                "key": json.dumps(report, sort_keys=True)}

    def finish(self, records):
        """Checks that need every output at once: none here."""
        return [], 0


def run_check(cli_main, item):
    """`pialg check FILE --tables OVERLAY --format machine`, in process.

    Returns (exit code, stdout, stderr). An exception escaping ``main`` is
    what the console script reports as exit status 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(["check", item.problem_path, "--tables", item.overlay_path,
                             "--format", "machine"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the process boundary: record it, keep going
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


class Checks:
    """A stream of distinct `pialg check` runs, each with its own overlay."""

    name = "checks"
    tail_pct = 99.0
    min_blocks = 100  # 2400 items: 24 beyond p99
    traced_blocks_per_s = 1.6

    def __init__(self, pialg, seed, workdir):
        self.pialg = pialg
        self.seed = seed
        self.workdir = workdir

    def block(self, b):
        return inputs.check_block(self.pialg, self.seed, b, self.workdir)

    def run(self, item):
        # looked up per call, so that a tracer's wrapper is seen
        return run_check(self.pialg.cli.main, item)

    def digest(self, item, output):
        code, out, err = output
        error = reference.check_item(self.pialg, item, code, out, err)
        most, size, results = 0, 0, None
        if code in (0, 1, 2) and out:
            results = json.loads(out)["results"]
            size = len(json.dumps(results))
            witnesses = [r["witness"] for r in results if r.get("witness")]
            for r in results:
                witnesses += [c["witness"] for c in r.get("completions", []) if c["witness"]]
            most = max((max_digits(w["matrix"]) for w in witnesses), default=0)
        return {"cases": 1, "error": error, "malformed": item.kind in inputs.MALFORMED_KINDS,
                "digits": most, "bytes": size,
                "key": json.dumps([code, results], sort_keys=True)}

    def finish(self, records):
        """Checks that need every output at once: none here."""
        return [], 0


class Snf:
    """One smith_normal_form call per dense matrix, 4x4 to 40x40."""

    name = "snf"
    tail_pct = 75.0
    min_blocks = 4  # 48 items: 12 beyond p75
    traced_blocks_per_s = 0.25

    def __init__(self, pialg, seed, workdir):
        self.pialg = pialg
        self.seed = seed
        self.rng = random.Random(f"snf-reference:{seed}")  # Freivalds vectors

    def block(self, b):
        return inputs.snf_block(self.seed, b)

    def run(self, item):
        rows, cols, data = item
        return self.pialg.smith_normal_form(self.pialg.IntMatrix(rows, cols, data))

    def digest(self, item, res):
        rows, cols, data = item
        error = reference.snf_item(rows, cols, data, res, self.rng)
        u, v = res.u.data, res.v.data
        small = max(rows, cols) <= reference.SYMPY_MAX_DIM
        return {"cases": 1, "error": error, "malformed": False,
                "digits": max(max_digits(u), max_digits(v)),
                "bytes": _json_size(u) + _json_size(v),
                "key": hash((u, res.d.data, v)),
                "sympy": (rows, cols, data, res.diagonal()) if small else None}

    def finish(self, records):
        """SymPy's invariant factors for every matrix small enough for SymPy."""
        factors = reference.sympy_invariant_factors()
        pending = [r["sympy"] for r in records if r["sympy"]]
        if factors is None:
            return [], 0
        errors = [reference.snf_sympy(factors, *p) for p in pending]
        return [e for e in errors if e], len(pending)


def _json_size(rows) -> int:
    """len(json.dumps(rows)) without converting huge integers to text."""
    n = 2 + 2 * (len(rows) - 1) if rows else 2  # outer brackets and ", "
    for r in rows:
        n += 2 + 2 * (len(r) - 1) if r else 2
        n += sum(digits(x) + (x < 0) for x in r)
    return n


WORKLOADS = {w.name: w for w in (Survey, Checks, Snf)}
