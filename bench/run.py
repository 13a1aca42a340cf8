"""pialg benchmark: one workload, timed (--trace 0) or traced per layer (--trace 1).

Run from the root of a pialg checkout:

    python3 bench/run.py --workload survey|checks|snf --seed N --seconds S --trace 0|1

The program is imported from ./src. Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SourcesMissing, import_pialg, percentile  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 11
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "peak_rss_mb": "MB", "success_rate": "ratio", "cert_digits_max": "digits",
    "cert_bytes": "bytes",
}

# (function, metrics) in the traced run; extra counters come from tracing._Counters.
PER_LAYER = (
    ("intlinalg.smith_normal_form", ("calls", "self_s", "max_cells", "max_digits")),
    ("intlinalg.solve_linear", ("calls", "self_s", "solved_ratio")),
    ("intlinalg.IntMatrix.init", ("calls", "self_s")),
    ("fgab.canonicalize_full", ("calls", "self_s")),
    ("fgab.hom_solve", ("calls", "self_s")),
    ("fgab.tensor_induced", ("calls", "self_s")),
    ("fgab.kernel", ("calls", "self_s")),
    ("fgab.factor_through", ("calls", "self_s", "found_ratio")),
    ("fgab.tensor", ("calls", "self_s", "repeat_share")),
    ("fgab.stack_homs", ("max_dim",)),
    ("quadratic.quad_tensor", ("calls", "self_s")),
    ("tables.load_tables", ("calls", "self_s")),
    ("tables.admissible_gamma_completions", ("calls", "self_s", "repeat_share", "completions_max")),
    ("pi_functors.gamma_tilde", ("calls", "self_s", "repeat_share")),
    ("realizability.check_stable", ("calls", "self_s", "completions_examined", "wall_share")),
    ("cli.main", ("self_s",)),
)
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "max_cells": "cells", "max_digits": "digits",
    "solved_ratio": "ratio", "found_ratio": "ratio", "repeat_share": "ratio",
    "max_dim": "count", "completions_max": "count", "completions_examined": "count",
    "wall_share": "ratio",
}
# Ratios whose numerator is a counter named <function>.<numerator>.
RATIO_OF = {"solved_ratio": "solved", "found_ratio": "found"}


SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import WINDOW_S, SpeedSampler
with SpeedSampler() as sampler:
    time.sleep(WINDOW_S)
    spent = sampler.spent
    t0 = time.perf_counter()
    import pialg
    pialg.load_tables()
    t1 = time.perf_counter()
    elapsed = (t1 - t0) - (sampler.spent - spent)
    time.sleep(WINDOW_S)
print(repr(elapsed), repr(elapsed * sampler.scale(t0, t1)))
"""


def measure_setup(root: str, runs: int) -> list:
    """(raw, reference) seconds for `import pialg` plus `load_tables()`, each in a
    fresh interpreter."""
    args = [sys.executable, "-I", "-c", SETUP_CODE, os.path.join(root, "src"),
            os.path.dirname(os.path.abspath(__file__))]
    out = []
    for _ in range(runs):
        proc = subprocess.run(args, cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(tuple(map(float, proc.stdout.split())))
    return out


def _outcome(records, extra_errors):
    attempted = sum(r["cases"] for r in records)
    failed = sum(r["cases"] for r in records if r["error"]) + len(extra_errors)
    # A malformed file that is not rejected is the known input-validation
    # defect: it counts as failed, but only wrong answers to well-formed
    # problems make the run incorrect.
    correct = not extra_errors and not any(r["error"] for r in records if not r["malformed"])
    return attempted, failed, correct


def _report_errors(records, extra_errors):
    seen = set()
    for r in records:
        if r["error"] and r["error"] not in seen:
            seen.add(r["error"])
            print(f"reference: {'known defect' if r['malformed'] else 'FAIL'}: {r['error']}")
    for e in extra_errors:
        print(f"reference: FAIL: {e}")


def timed_run(wl, root, seconds):
    setup = measure_setup(root, SETUP_RUNS)
    records = []
    busy = 0.0
    block = 0
    with SpeedSampler() as sampler:
        while busy < seconds or block < wl.min_blocks:
            for item in wl.block(block):
                spent = sampler.spent
                t0 = time.perf_counter()
                out = wl.run(item)
                t1 = time.perf_counter()
                dt = (t1 - t0) - (sampler.spent - spent)
                busy += dt
                rec = wl.digest(item, out)
                del out
                rec.update(latency=dt, t0=t0, t1=t1, block=block)
                records.append(rec)
            block += 1
    for rec in records:
        rec["ref_latency"] = rec["latency"] * sampler.scale(rec["t0"], rec["t1"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra_errors, sympy_checked = wl.finish(records)

    cases = sum(r["cases"] for r in records)
    first = [r for r in records if r["block"] < wl.min_blocks]
    attempted, failed, correct = _outcome(records, extra_errors)

    def latency_stats(key):
        per_item_ms = [1000.0 * r[key] / r["cases"] for r in records]
        return (cases / sum(r[key] for r in records), median(per_item_ms),
                percentile(per_item_ms, wl.tail_pct))

    ref_rate, ref_p50, ref_tail = latency_stats("ref_latency")
    raw_rate, raw_p50, raw_tail = latency_stats("latency")
    metrics = {
        "setup_s": median(s for _, s in setup),
        "items_per_s": ref_rate,
        "item_p50_ms": ref_p50,
        "item_tail_ms": ref_tail,
        "peak_rss_mb": peak_mb,
        "success_rate": 1.0 - failed / attempted,
        "cert_digits_max": max(r["digits"] for r in first),
        "cert_bytes": sum(r["bytes"] for r in first),
    }
    beyond = len(records) * (100.0 - wl.tail_pct) / 100.0
    malformed = sum(r["cases"] for r in records if r["malformed"])
    print(f"workload {wl.name}: {len(records)} items, {cases} cases, {block} blocks, "
          f"{busy:.3f} s busy")
    print(f"item_tail_ms is p{wl.tail_pct:g} of {len(records)} samples "
          f"({beyond:.0f} beyond it)")
    print(f"raw (unscaled) seconds: setup_s {median(r for r, _ in setup)!r}, items_per_s "
          f"{raw_rate!r}, item_p50_ms {raw_p50!r}, item_tail_ms {raw_tail!r}")
    print(f"error_rate {failed / attempted:.6f} ratio (malformed share "
          f"{malformed / attempted:.6f}); SymPy compared {sympy_checked} matrices")
    _report_errors(records, extra_errors)
    return attempted, failed, correct, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _run_items(wl, items):
    outputs, wall = [], 0.0
    for item in items:
        t0 = time.perf_counter()
        outputs.append(wl.run(item))
        wall += time.perf_counter() - t0
    return outputs, wall


def traced_run(wl, pialg, seconds):
    """Fixed blocks, each run untraced and then traced; per-layer metrics of the
    traced runs. Alternating block by block exposes both to the same drift of
    machine speed, which keeps the overhead ratio meaningful."""
    blocks = max(1, round(seconds * wl.traced_blocks_per_s))
    tracer = Tracer(pialg)
    plain, records = [], []
    plain_wall = traced_wall = 0.0
    for b in range(blocks):
        items = wl.block(b)
        outputs, wall = _run_items(wl, items)
        plain_wall += wall
        plain += [wl.digest(i, o) for i, o in zip(items, outputs)]
        with tracer:
            tracer.counters.new_pass()
            outputs, wall = _run_items(wl, items)
        traced_wall += wall
        records += [wl.digest(i, o) for i, o in zip(items, outputs)]
        del outputs
    extra_errors = wl.finish(records)[0]
    if [r["key"] for r in records] != [r["key"] for r in plain]:
        extra_errors.append("tracing changed an output")

    summary = tracer.summary()
    counters = tracer.counters
    work_wall = traced_wall - tracer._excluded
    metrics = {}
    for fn, names in PER_LAYER:
        s = summary.get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        calls = s["calls"]
        for m in names:
            if m in ("calls", "self_s"):
                value = s[m]
            elif m in RATIO_OF:
                value = counters.values.get(f"{fn}.{RATIO_OF[m]}", 0) / calls if calls else 0.0
            elif m == "repeat_share":
                value = counters.repeats.get(fn, 0) / calls if calls else 0.0
            elif m == "wall_share":
                value = s["total_s"] / work_wall
            else:
                value = counters.values.get(f"{fn}.{m}", 0)
            metrics[f"{fn}.{m}"] = (value, PER_LAYER_UNITS[m])
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    print(f"workload {wl.name}: traced {len(records)} items in {blocks} blocks; "
          f"{len(tracer.span_name)} spans; wall {traced_wall:.3f} s traced, "
          f"{plain_wall:.3f} s untraced")
    for fn in sorted(f for f in summary if summary[f]["calls"]):
        s = summary[fn]
        print(f"  {fn}: {s['calls']} calls, self {s['self_s']:.4f} s, total {s['total_s']:.4f} s")
    _report_errors(records, extra_errors)
    attempted, failed, correct = _outcome(records, extra_errors)
    return attempted, failed, correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        pialg = import_pialg(root)
    except SourcesMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](pialg, args.seed, workdir)
        if args.trace:
            attempted, failed, correct, metrics = traced_run(wl, pialg, args.seconds)
        else:
            attempted, failed, correct, metrics = timed_run(wl, root, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
