"""The traced run: repeatable counters, unchanged outputs, wrappers removed.

Run from the repository root:  python -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from common import import_pialg  # noqa: E402

pialg = import_pialg(os.path.dirname(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

COUNTERS = ("calls", "max_cells", "max_digits", "repeat_share", "completions_max",
            "completions_examined", "found_ratio", "solved_ratio", "max_dim")
SEED = 7


def _bindings():
    """id of every attribute of every pialg module, plus IntMatrix.__init__."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "pialg" or name.startswith("pialg.")):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = id(obj)
    out[("IntMatrix", "__init__")] = id(pialg.IntMatrix.__dict__["__init__"])
    return out


def _counters(metrics):
    return {k: v for k, (v, _) in metrics.items() if k.rsplit(".", 1)[1] in COUNTERS}


# seconds chosen so that each traced run covers exactly one block
@pytest.mark.parametrize("name,seconds", [("checks", 0.5), ("snf", 4), ("survey", 5)])
def test_two_traced_runs_give_identical_counters(name, seconds, tmp_path):
    before = _bindings()
    runs = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](pialg, SEED, str(workdir))
        attempted, failed, correct, metrics = run.traced_run(wl, pialg, seconds)
        # traced_run also compares every traced output with the untraced one
        assert correct, f"{name}: a reference check failed or tracing changed an output"
        runs.append(_counters(metrics))
    assert runs[0] == runs[1]
    assert runs[0]["intlinalg.smith_normal_form.calls"] > 0
    assert _bindings() == before, "a wrapper was left installed"


def test_tracing_leaves_verdicts_exit_codes_and_certificates_unchanged(tmp_path):
    wl = workloads.Checks(pialg, SEED, str(tmp_path))
    items = wl.block(0) + wl.block(1)
    plain = [wl.run(item) for item in items]
    tracer = Tracer(pialg)
    with tracer:
        traced = [wl.run(item) for item in items]
    # (exit code, machine report) per check; elapsed_s is the one field allowed to move
    for (c1, out1, _), (c2, out2, _) in zip(plain, traced):
        assert c1 == c2
        assert bool(out1) == bool(out2)
        if out1:
            r1, r2 = json.loads(out1), json.loads(out2)
            del r1["elapsed_s"], r2["elapsed_s"]
            assert r1 == r2
    assert len(tracer.span_name) > 0
    assert tracer.summary()["cli.main"]["calls"] == len(items)


def test_wrappers_see_calls_made_through_copied_bindings():
    # realizability and pi_functors call `tensor` through their own
    # `from .fgab import tensor` bindings; those calls must be recorded too.
    original = pialg.fgab.tensor
    tracer = Tracer(pialg)
    tables = pialg.load_tables()
    with tracer:
        for mod in (pialg.fgab, pialg.realizability, pialg.pi_functors, pialg):
            assert mod.tensor is not original and mod.tensor.__wrapped__ is original
        pialg.gamma_tilde(5, 3, pialg.cyclic(4), tables)
    for mod in (pialg.fgab, pialg.realizability, pialg.pi_functors, pialg):
        assert mod.tensor is original
    summary = tracer.summary()
    assert summary["fgab.tensor"]["calls"] >= 1
    assert summary["pi_functors.gamma_tilde"]["calls"] == 1
