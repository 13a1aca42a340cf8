"""CLI: exit codes, report round-trips, determinism."""

import json
import math
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pialg import (MissingTableData, PialgError, all_realizable_in_stem, check, cyclic,
                   from_cyclic_orders, intlinalg, load_defaults, load_tables, loads_tables, merge,
                   problem_from_json, realizability, survey_stem, verdict_from_json)
from pialg import cli
from pialg.cli import main
from pialg.fgab import group_from_json
from pialg.pi_functors import gamma_tilde
from pialg.quadratic import (BUILTIN_QUADRATIC_MODULES, quadratic_module_from_json,
                             quadratic_module_to_json)
from pialg.tables import _CODECS

SMALLEST = {
    "n": 5, "k": 3,
    "A_n": {"rank": 1, "torsion": []},
    "A_nk": {"rank": 0, "torsion": [4]},
    "eta": [[1, 0]],
}


@pytest.fixture
def problem_file(tmp_path):
    def write(doc, name="problem.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def machine_reports_are_json_dumps(monkeypatch):
    """Every machine report these tests print is ``json.dumps(report, indent=2)``, byte for byte."""
    write = cli._json_text

    def checked(value, pad="\n"):
        out = write(value, pad)
        if pad == "\n":  # the whole report, not a nested value
            assert out == json.dumps(value, indent=2)
        return out
    monkeypatch.setattr(cli, "_json_text", checked)


def test_check_exit_codes(problem_file, capsys):
    code, out, _ = run(capsys, ["check", problem_file(SMALLEST)])
    assert code == 1
    assert "non-realizable" in out and "2·nu" in out

    realizable = dict(SMALLEST, A_nk={"rank": 0, "torsion": [3]}, eta=[[0, 1]])
    code, out, _ = run(capsys, ["check", problem_file(realizable, "r.json")])
    assert code == 0 and "verdict: realizable" in out

    undet = dict(SMALLEST, A_nk={"rank": 0, "torsion": [2]}, eta=[[1, 0]])
    code, out, _ = run(capsys, ["check", problem_file(undet, "u.json")])
    assert code == 2 and "stem3.nu" in out

    code, _, err = run(capsys, ["check", "/nonexistent/x.json"])
    assert code == 3

    malformed = dict(SMALLEST, eta=[[1]])
    code, _, err = run(capsys, ["check", problem_file(malformed, "m.json")])
    assert code == 3 and "error" in err


THREE_STAGE = {
    "n": 4,
    "A_n": {"rank": 0, "torsion": [2]},
    "A_n1": {"rank": 0, "torsion": [2]},
    "A_n2": {"rank": 0, "torsion": [2]},
    "eta1": [[1]], "eta2": [[1]],
}


def test_check_three_stage(problem_file, capsys):
    code, out, _ = run(capsys, ["check", problem_file(THREE_STAGE, "t.json")])
    assert code == 1 and "non-realizable" in out


def test_machine_report_round_trips(problem_file, capsys):
    path = problem_file(SMALLEST)
    code, out, _ = run(capsys, ["check", path, "--format", "machine"])
    assert code == 1
    report = json.loads(out)
    tables = load_tables([])
    direct = check(problem_from_json(SMALLEST, tables), tables)
    assert verdict_from_json(report["results"][0]) == direct
    assert report["tables"] == ["defaults"]


def test_check_with_overlay(problem_file, tmp_path, capsys):
    undet = dict(SMALLEST, A_nk={"rank": 0, "torsion": [2]}, eta=[[1, 0]])
    overlay = tmp_path / "fix.tbl"
    overlay.write_text("[gamma]\n3.nu = known [3]\n")
    code, _, _ = run(capsys, ["check", problem_file(undet, "u.json"),
                              "--tables", str(overlay)])
    assert code == 0


@pytest.mark.parametrize("doc", [
    {key: value for key, value in SMALLEST.items() if key != "n"},
    [SMALLEST],
    dict(SMALLEST, A_n={"rank": 0, "torsion": [4, 2]}),
    dict(SMALLEST, n=5.5),
    dict(SMALLEST, A_nk={"rank": 0, "torsion": [4.5]}),
    {"n": 5, "k": 3, "A_n": {"rank": 0, "torsion": [2]}, "A_nk": {"rank": 0, "torsion": [2]},
     "eta": [[1.7, "0"]]},
    dict(SMALLEST, eta=[[1, "0"]]),
    dict(SMALLEST, eta=[[True, 0]]),
    dict(THREE_STAGE, eta1=[[1.0]]),
    # "xy" was read as ["x", "y"]; ["x", "x"] spelled obstructions over an ambiguous x.
    *(dict(SMALLEST, A_n={"rank": 2, "torsion": [], "labels": labels}, eta=[[1, 0, 0, 0]])
      for labels in ("xy", ["x", "x"], ["x", 1], None)),
], ids=["missing-n", "top-level-array", "torsion-not-a-chain", "fractional-n",
        "fractional-torsion", "fractional-eta", "string-eta", "bool-eta", "fractional-eta1",
        "string-labels", "repeated-labels", "integer-label", "null-labels"])
def test_malformed_problem_files_exit_three(problem_file, capsys, doc):
    code, _, err = run(capsys, ["check", problem_file(doc)])
    assert code == 3 and "malformed problem file" in err


def test_determinism(problem_file, capsys):
    path = problem_file(SMALLEST)
    _, out1, _ = run(capsys, ["check", path, "--format", "machine"])
    _, out2, _ = run(capsys, ["check", path, "--format", "machine"])
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["elapsed_s"], r2["elapsed_s"]
    assert r1 == r2


def _without_elapsed(out):
    # Both the machine report's "elapsed_s" and the text report's "elapsed: 0.000s".
    return re.sub(r'"elapsed_s": [0-9.e-]+|elapsed: [0-9.]+s', "elapsed", out)


def test_repeated_main_calls_in_one_process(problem_file, capsys):
    # main() reuses one parser per process; later calls must not see earlier ones.
    argvs = [["check", problem_file(SMALLEST), "--format", "machine"],
             ["check", problem_file(THREE_STAGE, "t.json")],
             ["gamma-tilde", "--n", "5", "--k", "3", "--group", "Z/4", "--format", "machine"],
             ["tables", "show", "--stem", "3"]]
    first = [run(capsys, argv) for argv in argvs]
    for _ in range(2):
        for argv, (code, out, err) in zip(argvs, first):
            again = run(capsys, argv)
            assert again[0] == code and again[2] == err
            assert _without_elapsed(again[1]) == _without_elapsed(out)


def test_tables_overlay_does_not_leak_into_next_call(problem_file, tmp_path, capsys):
    path = problem_file(dict(SMALLEST, A_nk={"rank": 0, "torsion": [2]}, eta=[[1, 0]]))
    overlay = tmp_path / "fix.tbl"
    overlay.write_text("[gamma]\n3.nu = known [3]\n")
    code, out, _ = run(capsys, ["check", path, "--tables", str(overlay), "--format", "machine"])
    assert code == 0 and json.loads(out)["tables"] == ["defaults", str(overlay)]
    code, out, _ = run(capsys, ["check", path, "--format", "machine"])
    assert code == 2 and json.loads(out)["tables"] == ["defaults"]


def test_check_computes_gamma_tilde_once(problem_file, capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return gamma_tilde(*args)

    monkeypatch.setattr(realizability, "gamma_tilde", counting)
    code, _, _ = run(capsys, ["check", problem_file(SMALLEST)])
    assert code == 1 and len(calls) == 1


def test_module_file_entries_must_be_integers(tmp_path, capsys):
    good = {"Me": {"rank": 0, "torsion": [2]}, "Mee": {"rank": 1, "torsion": []},
            "H": [[0]], "P": [[0]]}
    mod = tmp_path / "m.json"
    for key, value, message in (("H", [[0.0]], "JSON integers"),
                                ("Me", {"rank": 1.5, "torsion": [2]}, "must be integers"),
                                ("Me", {"rank": 0, "torsion": [2.5]}, "must be integers"),
                                ("Mee", None, "missing 'Mee'")):
        doc = dict(good, **{key: value})
        if value is None:
            del doc[key]
        mod.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["quad-tensor", "--group", "Z/2", "--module", f"@{mod}"])
        assert code == 3 and message in err, (key, value, code, err)


def test_output_flag(problem_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["check", problem_file(SMALLEST),
                                "--format", "machine", "--output", str(out_path)])
    assert json.loads(out_path.read_text()) == json.loads(out)
    # A path that cannot be written prints no report, so stdout holds no
    # verdict that the exit code calls an error.
    code, out, err = run(capsys, ["check", problem_file(SMALLEST),
                                  "--output", str(tmp_path / "missing" / "x.txt")])
    assert code == 3 and out == "" and err.startswith("pialg: error:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_that_fails_on_flush_prints_no_report(problem_file, capsys):
    # /dev/full opens, but the buffered write fails when the file is closed;
    # the report must not reach stdout first.
    code, out, err = run(capsys, ["check", problem_file(SMALLEST), "--output", "/dev/full"])
    assert code == 3 and out == "" and "No space left on device" in err


def test_gamma_tilde_command(capsys):
    code, out, _ = run(capsys, ["gamma-tilde", "--n", "5", "--k", "3", "--group", "Z"])
    assert code == 0
    assert "Z/12" in out and "1⊗nu" in out and "1⊗alpha" in out
    code, out, _ = run(capsys, ["gamma-tilde", "--n", "2", "--k", "1", "--group", "Z/2"])
    assert code == 0 and "Z/4" in out
    # group literal in JSON form also accepted
    code, out, _ = run(capsys, ["gamma-tilde", "--n", "5", "--k", "3",
                                "--group", '{"rank": 1, "torsion": []}'])
    assert code == 0 and "Z/12" in out
    # missing tables produce an error exit
    code, _, err = run(capsys, ["gamma-tilde", "--n", "12", "--k", "8", "--group", "Z"])
    assert code == 3 and "not tabulated" in err


def test_quad_tensor_command(capsys, tmp_path):
    code, out, _ = run(capsys, ["quad-tensor", "--group", "Z/2", "--module", "Z_Gamma"])
    assert code == 0 and "Z/4" in out
    code, _, err = run(capsys, ["quad-tensor", "--group", "Z/2", "--module", "nope"])
    assert code == 3
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"Me": {"rank": 0, "torsion": [2]},
                               "Mee": {"rank": 1, "torsion": []},
                               "H": [[0]], "P": [[0]]}))
    code, out, _ = run(capsys, ["quad-tensor", "--group", "Z/2", "--module", f"@{mod}"])
    assert code == 0 and "Z/2" in out


def test_tables_command(capsys):
    code, out, _ = run(capsys, ["tables", "show", "--stem", "3"])
    assert code == 0
    assert "Z/4<nu> + Z/3<alpha>" in out and "unknown(2)" in out and "nonzero(3)" in out
    code, out, _ = run(capsys, ["tables", "show"])
    assert code == 0 and "ring relations: all hold" in out
    code, out, _ = run(capsys, ["tables", "show", "--format", "machine"])
    assert json.loads(out)["ring_relation_failures"] == []


def test_survey_command(capsys):
    code, out, _ = run(capsys, ["survey", "--stem", "2", "--max-order", "3",
                                "--max-summands", "1", "--targets", "Z/2"])
    assert code == 0 and "realizable" in out and "undetermined" not in out
    code, out, _ = run(capsys, ["survey", "--stem", "3", "--max-order", "2",
                                "--max-summands", "1", "--targets", "Z/4"])
    assert code == 0 and "non-realizable" in out


@pytest.mark.parametrize("targets", [",", "", " , ,"])
def test_survey_without_targets_is_a_usage_error(capsys, targets):
    code, out, err = run(capsys, ["survey", "--stem", "3", "--targets", targets])
    assert code == 3 and out == "" and "names no group" in err


def test_survey_targets_split_outside_json_brackets(capsys):
    # the comma inside [2, 3] belongs to the literal {"torsion": [2, 3]} = Z/6
    reports = []
    for targets in ('{"torsion": [2, 3]},Z/4', "Z/6,Z/4"):
        code, out, _ = run(capsys, ["survey", "--stem", "3", "--max-order", "2",
                                    "--targets", targets, "--format", "machine"])
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0] == reports[1] and len(reports[0][0]["rows"]) == 4
    code, out, err = run(capsys, ["survey", "--stem", "3", "--targets", '{"torsion": [2'])
    assert code == 3 and out == "" and err.startswith("pialg: error:")


def test_selftest_command(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out
    assert "passed" in out


def test_selftest_machine_report_pinned(capsys):
    # Every selftest line, detail included; only the timing may move.
    import hashlib
    code, out, _ = run(capsys, ["selftest", "--format", "machine"])
    report = json.loads(out)
    del report["elapsed_s"]
    assert code == 0 and len(report["results"]) == 24
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        "f907bd8b39ec943544d9dcf86bf1cb570d3a5a46fd0eead48166b38adb98bfa3"


@pytest.mark.parametrize("overlay, doc", [
    ("[q_stable]\n5 = Z<x>\n[em_homology]\n6 = Z\n",
     {"n": 7, "k": 5, "A_n": {"rank": 1, "torsion": []}, "A_nk": {"rank": 1, "torsion": []},
      "eta": [[1]]}),
    ("[em_homology]\n4 = Z\n", SMALLEST),
], ids=["enumerated", "no-completion"])
def test_infinite_em_homology_exits_three(problem_file, tmp_path, capsys, overlay, doc):
    # An infinite HZ_mHZ must not reach the completion enumerator, where it
    # ends in a traceback (exit 1, read as "non-realizable") or in a
    # misleading "contradictory".
    path = tmp_path / "infinite.tbl"
    path.write_text(overlay)
    code, out, err = run(capsys, ["check", problem_file(doc), "--tables", str(path)])
    assert code == 3 and out == "" and "is infinite" in err


def test_usage_errors_exit_above_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing positional argument
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--stem", "3", "--parallel", "4"])  # removed option
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["gamma-tilde", "--n", "1", "--k", "3", "--group", "Z/2"],
    ["gamma-tilde", "--n", "5", "--k", "0", "--group", "Z/2"],
    ["survey", "--stem", "0"],
    ["survey", "--stem", "-1"],
    ["survey", "--stem", "3", "--max-summands", "0"],
    ["survey", "--stem", "3", "--max-order", "-3"],
    ["survey", "--stem", "3", "--max-checks", "-1"],
])
def test_out_of_range_degrees_are_usage_errors(argv, capsys):
    # An uncaught error would exit 1, which reads as "non-realizable".
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "must be an integer >=" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ['{"rank": 1.5}', '{"torsion": 4}'])
def test_non_integer_json_groups_exit_three(literal, capsys):
    code, out, err = run(capsys, ["gamma-tilde", "--n", "5", "--k", "3", "--group", literal])
    assert code == 3 and out == "" and "integer" in err


@pytest.mark.parametrize("literal", ['{"rank": 1, "torsion": [], "labels": ["x"]}',
                                     '{"rank": 1, "torsoin": [2]}'])
def test_json_group_literals_refuse_keys_besides_rank_and_torsion(literal, capsys):
    # Any other key is refused: dropped, a label would be lost without a word
    # and a misspelled key would read as its default.
    code, out, err = run(capsys, ["gamma-tilde", "--n", "5", "--k", "3", "--group", literal])
    key = "labels" if "labels" in literal else "torsoin"
    assert code == 3 and out == "" and repr(key) in err and "Z<x>" in err
    code, out, _ = run(capsys, ["gamma-tilde", "--n", "5", "--k", "3", "--group", "Z<x>"])
    assert code == 0 and "x⊗nu" in out


def test_report_command_keeps_zero_valued_arguments(capsys):
    # --stem 0 selects one stem, so the report must not read as `tables show`.
    code, out, _ = run(capsys, ["tables", "show", "--stem", "0", "--format", "machine"])
    assert code == 0
    assert json.loads(out)["command"] == ["tables", "action=show", "format=machine", "stem=0"]


@pytest.mark.parametrize("value", ["known [1, 2, 3]", "known []"])
def test_known_gamma_of_the_wrong_length_exits_three(problem_file, tmp_path, capsys, value):
    # HZ_4HZ = Z/6 takes one coordinate; an uncaught ValueError would exit 1,
    # which reads as "non-realizable".
    overlay = tmp_path / "ov.tbl"
    overlay.write_text(f"[gamma]\n3.nu = {value}\n")
    code, out, err = run(capsys, ["check", problem_file(SMALLEST), "--tables", str(overlay)])
    assert code == 3 and out == "" and "takes vectors of length 1" in err


def test_every_check_and_survey_pass_reduces_through_smith_normal_form(problem_file, monkeypatch):
    # The benchmark's tracer counts intlinalg.smith_normal_form on every
    # workload and reads u and v of each result; warm passes must still call it.
    results = []

    def counted(m):
        results.append(original(m))
        return results[-1]

    original = intlinalg.smith_normal_form
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pialg" and getattr(mod, "smith_normal_form", None) is original:
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    tables, path = load_tables([]), problem_file(SMALLEST)
    for run_once in (
            lambda: survey_stem(3, tables, max_cyclic_order=6, max_summands=2,
                                targets=[cyclic(2), cyclic(4), cyclic(12)]),
            lambda: main(["check", path, "--format", "machine"])):
        run_once()  # warm up: what a pass can reuse is built here
        results.clear()
        run_once()
        assert results
        assert all(len(s.u.data) == s.u.rows and len(s.v.data) == s.v.rows for s in results)


def test_module_file_that_breaks_the_axioms_exits_three(tmp_path, capsys):
    # PHP = 8P != 2P: the module is malformed input, not a traceback (exit 1).
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"Me": {"rank": 1, "torsion": []}, "Mee": {"rank": 1, "torsion": []},
                               "H": [[1]], "P": [[3]]}))
    code, out, err = run(capsys, ["quad-tensor", "--group", "Z/2", "--module", f"@{mod}"])
    assert code == 3 and out == "" and "PHP = 2P" in err


@pytest.mark.parametrize("body", ["[gamma]\n3.nu = known [3,]\n",
                                  "[pi_products]\n1.eta * 1.eta = 1\n",
                                  "[pi_products]\n1.eta * 1.eta = [[1]]\n",
                                  "[pi_products]\n1.eta * 1.eta = [1,]\n"])
def test_malformed_coordinate_lists_exit_three(problem_file, tmp_path, capsys, body):
    # Read as "known [3]", the first overlay makes the stem-3 Z -> Z/2 check realizable (exit 0).
    overlay = tmp_path / "ov.tbl"
    overlay.write_text(body)
    doc = dict(SMALLEST, A_nk={"rank": 0, "torsion": [2]})
    code, out, err = run(capsys, ["check", problem_file(doc), "--tables", str(overlay)])
    assert code == 3 and out == "" and f"{overlay}:2: expected a coordinate list" in err


# JSON documents for the problem-file fuzz gate. Integers stay within ±50 and
# lists and objects within 4 items; group objects keep their rank at 4 or less,
# since a large rank makes gamma_tilde large before the eta shape is checked.
# Most documents have the shape of a problem, so that some are well formed.
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-50, 50) | st.sampled_from([0.5, -2.0])
                | st.text("xZ/0123", max_size=3))
_KEYS = st.sampled_from(["n", "k", "A_n", "A_nk", "eta", "A_n2", "eta1", "rank", "torsion", "x"])
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12)


def _mostly(good, junk):
    """``good`` seven times in eight, else ``junk``."""
    return st.tuples(st.integers(0, 7), good, junk).map(lambda t: t[1] if t[0] else t[2])


_GROUPS = _mostly(
    st.sampled_from([{"rank": 1}, {"torsion": [2]}, {"torsion": [4]}, {"torsion": [3]},
                     {"rank": 1, "torsion": [2]}, {"torsion": [2, 4]}, {}]),
    st.fixed_dictionaries({}, optional={
        "rank": st.integers(-1, 4) | _JSON_LEAVES,
        "torsion": st.lists(st.integers(-2, 12), max_size=4) | _JSON_LEAVES,
        "labels": st.lists(st.sampled_from("abc"), max_size=4) | _JSON_LEAVES}) | _JSON)
_MATRICES = _mostly(st.sampled_from([[[1, 0]], [[0, 1]], [[1, 1]], [[1]], [[0]], [[2, 1]]]),
                    st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4) | _JSON)


def _problems(fields: dict):
    """Problem-shaped objects; a key may be missing, or another one added."""
    return _one_key_dropped(st.fixed_dictionaries(
        {key: _mostly(good, _JSON_LEAVES if key in ("n", "k") else _JSON)
         for key, good in fields.items()}, optional={"x": _JSON}))


def _one_key_dropped(docs):
    """``docs``, or one time in eight such a document with one of its keys dropped."""
    return _mostly(docs, docs.flatmap(lambda d: st.sampled_from(sorted(d)).map(
        lambda dropped: {key: value for key, value in d.items() if key != dropped})))


@st.composite
def _two_stage(draw):
    """A two-stage problem whose eta has gamma_tilde's shape, when gamma_tilde exists."""
    n, k = draw(st.sampled_from([(5, 3), (3, 1), (6, 3), (4, 2), (9, 7), (4, 3)]))
    a_n, a_nk = draw(_GROUPS), draw(_GROUPS)
    try:
        gt = gamma_tilde(n, k, group_from_json(a_n), load_tables())
        shape = (group_from_json(a_nk).dim, len(gt.generators))
    except (PialgError, AttributeError, TypeError, ValueError):  # malformed or untabulated
        shape = (1, 1)
    eta = draw(st.lists(st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
                        min_size=shape[0], max_size=shape[0]))
    return {"n": n, "k": k, "A_n": a_n, "A_nk": a_nk, "eta": eta}


_PROBLEMS = _mostly(
    _two_stage()
    | _problems({"n": st.sampled_from([5, 6, 3, 2, 4, 9]), "k": st.sampled_from([3, 1, 2, 9]),
                 "A_n": _GROUPS, "A_nk": _GROUPS, "eta": _MATRICES})
    | _problems({"n": st.sampled_from([4, 5, 3]), "A_n": _GROUPS, "A_n1": _GROUPS,
                 "A_n2": _GROUPS, "eta1": _MATRICES, "eta2": _MATRICES}), _JSON)


def test_fuzzed_problem_files_never_escape_main(tmp_path, capsys):
    tables = load_tables()
    path = tmp_path / "fuzzed.json"

    @given(_PROBLEMS)
    @settings(max_examples=150, deadline=None)
    def one(doc):
        path.write_text(json.dumps(doc))
        code = main(["check", str(path), "--format", "machine"])  # nothing may escape
        capsys.readouterr()
        if code <= 2:
            problem_from_json(doc, tables)  # a verdict only for a well-formed problem
        assert code in (0, 1, 2, 3)
    one()


# Overlay lines for the overlay fuzz gate: for each section of the overlay
# grammar, keys and values that parse, keys and values that do not, and
# values that parse but may contradict the default tables.
_OVERLAY_LINES = {
    "pi_stable": (["3", "5", "x", "-1"],
                  ["Z/8<nu> + Z/3<alpha>", "Z/2<x>", "Z<y>", "Z/2<a> + Z/2<a>", "junk"]),
    "q_stable": (["3", "5", "7", "3.5"],
                 ["Z/4<nu> + Z/3<alpha>", "Z/2<a> + Z/2<b>", "Z/3<alpha_2> (partial)", "Z/0<x>"]),
    "q_unstable": (["2,2", "3,4", "3", "a,b"], ["0", "Z/2", "Z/2 + Z/4", "Z", "Z/"]),
    "em_homology": (["4", "6", "8", "0", "x"], ["Z/2", "Z/6", "Z/2 + Z/6", "Z", "0", "Z/-3"]),
    "metastable_qm": (["2", "4", "5"], ["Z_Gamma", "Z_Lambda", "pi3S2", "nope", '{"Me": 1}']),
    "gamma": (["3.nu", "3.alpha", "5.x", "3.", "nu"],
              ["zero", "unknown(2)", "nonzero(3)", "known [1]", "known [0]", "known [1, 2]",
               "nonzero(1)", "unknown(0)", "known [3,]"]),
    "pi_products": (["1.eta * 1.eta", "1.eta * 3.nu", "1.eta * 3.mu", "1.eta *"],
                    ["[1]", "[0]", "[1, 0]", "[]", "[x]"]),
    "options": (["torsion_exponent_rule", "speed"], ["on", "off", "yes"]),
}
assert set(_OVERLAY_LINES) == {*_CODECS, "options"}


@st.composite
def _overlays(draw):
    """Overlay text: sections of ``key = value`` lines, some headers and lines malformed."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(_OVERLAY_LINES)))
        keys, values = _OVERLAY_LINES[section]
        out.append(draw(st.sampled_from([f"[{section}]", f"[{section}", "[nope]"])
                        if draw(st.integers(0, 7)) == 0 else st.just(f"[{section}]")))
        for _ in range(draw(st.integers(0, 3))):
            key, value = draw(st.sampled_from(keys)), draw(st.sampled_from(values))
            out.append(draw(st.sampled_from([f"{key} = {value}"] * 7 + [f"{key} {value}"])))
    return "\n".join(out) + "\n"


def test_fuzzed_overlays_never_escape_main(problem_file, tmp_path, capsys):
    problem, overlay = problem_file(SMALLEST), tmp_path / "ov.tbl"

    @given(_overlays())
    @settings(max_examples=150, deadline=None)
    def one(text):
        overlay.write_text(text)
        code = main(["check", problem, "--tables", str(overlay)])  # nothing may escape
        capsys.readouterr()
        if code <= 2:  # a verdict only for tables the overlay grammar and merge accept
            merge(load_defaults(), loads_tables(text, str(overlay)))
        assert code in (0, 1, 2, 3)
    one()


@st.composite
def _module_docs(draw):
    """A module document whose H and P have the shapes Me and Mee give, when they are groups."""
    me, mee = draw(_GROUPS), draw(_GROUPS)
    try:
        e, ee = group_from_json(me).dim, group_from_json(mee).dim
    except (AttributeError, TypeError, ValueError):  # malformed groups
        e, ee = 1, 1

    def matrix(rows, cols):
        return draw(_mostly(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                                     min_size=rows, max_size=rows), _MATRICES))
    return {"Me": me, "Mee": mee, "H": matrix(ee, e), "P": matrix(e, ee)}


_MODULE_FILES = _mostly(
    _one_key_dropped(st.sampled_from([quadratic_module_to_json(m)
                                      for m in BUILTIN_QUADRATIC_MODULES.values()])
                     | _module_docs()), _JSON)


def test_fuzzed_module_files_never_escape_main(tmp_path, capsys):
    path = tmp_path / "module.json"

    @given(_MODULE_FILES)
    @settings(max_examples=150, deadline=None)
    def one(doc):
        path.write_text(json.dumps(doc))
        code = main(["quad-tensor", "--group", "Z/2", "--module", f"@{path}",
                     "--format", "machine"])  # nothing may escape
        capsys.readouterr()
        if code <= 2:
            quadratic_module_from_json(doc)  # a result only for a module the codec accepts
        assert code in (0, 3)
    one()


_LONG = "1" + "0" * 5000  # past CPython's 4300-digit limit on int(str)
_MODULE = ('{"Me": {"rank": 1, "torsion": []}, "Mee": {"rank": 1, "torsion": []}, '
           '"H": [[%s]], "P": [[2]]}')


@pytest.mark.parametrize("name, data, argv", [
    ("p.json", b"\xff{}", ["check", "TMP/p.json"]),
    ("ov.tbl", b"[gamma]\n\xff\n", ["check", "TMP/smallest.json", "--tables", "TMP/ov.tbl"]),
    ("p.json", b"[" * 200_000, ["check", "TMP/p.json"]),
    ("m.json", b"[" * 200_000, ["quad-tensor", "--group", "Z/2", "--module", "@TMP/m.json"]),
    ("p.json", json.dumps(SMALLEST).replace("[[1, 0]]", f"[[{_LONG}, 0]]").encode(),
     ["check", "TMP/p.json"]),
    ("m.json", (_MODULE % _LONG).encode(),
     ["quad-tensor", "--group", "Z/2", "--module", "@TMP/m.json"]),
    (None, None, ["gamma-tilde", "--n", "5", "--k", "3", "--group", f'{{"rank": {_LONG}}}']),
], ids=["undecodable-problem", "undecodable-overlay", "deep-problem", "deep-module",
        "long-int-problem", "long-int-module", "long-int-group"])
def test_malformed_encodings_exit_three(tmp_path, capsys, name, data, argv):
    # Each ended in a traceback (exit 1), which reads as "non-realizable".
    (tmp_path / "smallest.json").write_text(json.dumps(SMALLEST))
    if name:
        (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, [a.replace("TMP", str(tmp_path)) for a in argv])
    assert code == 3 and out == "" and err.startswith("pialg: error:")
    if name == "ov.tbl":
        assert f"{tmp_path / name}: 'utf-8' codec can't decode" in err


# Stem 5 with Q_5^S = Z/2<a> + Z/2<b> and HZ_6HZ = Z/2: every completion
# fails to factor eta, but no single element is killed by all of them.
NO_ELEMENT_OVERLAY = "[q_stable]\n5 = Z/2<a> + Z/2<b>\n[em_homology]\n6 = Z/2\n"


def test_non_realizable_without_a_single_obstruction_element(problem_file, tmp_path, capsys):
    overlay = tmp_path / "ov.tbl"
    overlay.write_text(NO_ELEMENT_OVERLAY)
    doc = {"n": 7, "k": 5, "A_n": {"rank": 1, "torsion": []},
           "A_nk": {"rank": 0, "torsion": [2, 2]}, "eta": [[1, 0], [0, 1]]}
    path = problem_file(doc)
    code, out, _ = run(capsys, ["check", path, "--tables", str(overlay), "--format", "machine"])
    result = json.loads(out)["results"][0]
    assert code == 1 and result["status"] == "non-realizable"
    assert result["obstruction"]["element"] is None
    assert result["obstruction"]["note"] == "no completion admits a factorization"
    assert len(result["completions"]) == 4
    assert not any(o["factorable"] for o in result["completions"])
    code, out, _ = run(capsys, ["check", path, "--tables", str(overlay)])
    assert code == 1 and "  obstruction: no completion admits a factorization\n" in out
    assert "completions examined: 4 (0 factorable)" in out

    from helpers import survey_by_checks
    tables = load_tables([str(overlay)])
    bounds = dict(max_cyclic_order=4, max_summands=2,
                  targets=[cyclic(2), from_cyclic_orders([2, 2])])
    assert survey_stem(5, tables, **bounds) == survey_by_checks(5, tables, **bounds)


@pytest.mark.parametrize("value, code, key, expect", [
    ("known [0]", 1, "obstruction", {"element": [1], "label": "alpha_2",
                                     "note": "killed by every admissible completion"}),
    ("known [1]", 2, "blocking", ["Q_7^S partially tabulated"]),
])
def test_certificate_mode_reads_a_known_gamma(problem_file, tmp_path, capsys, value, code, key,
                                              expect):
    # Q_7^S = Z/3<alpha_2> is partial, so no completion is enumerated: a known
    # gamma(alpha_2) = 0 kills alpha_2, and a nonzero one leaves the check open.
    overlay = tmp_path / "ov.tbl"
    overlay.write_text(f"[em_homology]\n8 = Z/3\n[gamma]\n7.alpha_2 = {value}\n")
    doc = {"n": 9, "k": 7, "A_n": {"rank": 1, "torsion": []},
           "A_nk": {"rank": 0, "torsion": [3]}, "eta": [[1]]}
    got, out, _ = run(capsys, ["check", problem_file(doc), "--tables", str(overlay),
                               "--format", "machine"])
    assert got == code and json.loads(out)["results"][0][key] == expect


_CHECK_OV = ["check", "PROBLEM", "--tables", "OV"]


@pytest.mark.parametrize("overlay, argv, message", [
    # Merge time: each overlay parses, the merged tables are inconsistent, and
    # the message names the overlay.
    ("[em_homology]\n4 = Z/2\n[gamma]\n3.alpha = nonzero(3)\n", _CHECK_OV,
     "OV: gamma(alpha) order 3 exceeds the codomain exponent 2"),
    ("[gamma]\n3.alpha = known [1]\n", _CHECK_OV,
     "OV: gamma(alpha) = (1,) has order 6, incompatible with generator order 3"),
    ("[pi_products]\n1.eta * 3.mu = [1]\n", _CHECK_OV,
     "OV: pi product references unknown generator 3.mu"),
    ("[pi_products]\n1.eta * 1.eta = [1, 0]\n", _CHECK_OV,
     "OV: pi product 1.eta * 1.eta needs 2-stem coordinates"),
    # Load time: the message names the overlay and its line.
    ("[gamma]\n3. = zero\n", _CHECK_OV,
     "OV:2: generator keys look like '<stem>.<generator>'"),
    ("[gamma\n3.nu = zero\n", _CHECK_OV,
     "OV:1: unterminated section header"),
    ("[gamma]\n3.nu zero\n", _CHECK_OV,
     "OV:2: expected 'key = value'"),
    ("[options]\nspeed = fast\n", _CHECK_OV,
     "OV:2: unknown option 'speed'"),
    ("[options]\ntorsion_exponent_rule = yes\n", _CHECK_OV,
     "OV:2: torsion_exponent_rule must be 'on' or 'off'"),
    (None, _CHECK_OV, "No such file or directory: 'OV'"),
    (None, ["tables", "show", "--stem", "99"], "no table entry for stem 99"),
    # A library call: stem 9 needs HZ_10HZ, which neither a table nor a rule gives.
    ("[q_stable]\n9 = Z/4<x>\n", None, "cannot settle stem 9: HZ_10HZ is untabulated"),
], ids=["gamma-order-over-exponent", "known-gamma-order", "product-unknown-generator",
        "product-coordinate-count", "empty-generator-key", "unterminated-header", "no-equals",
        "unknown-option", "bad-rule-value", "missing-overlay", "unknown-stem", "untabulated-em"])
def test_error_paths_name_their_cause(problem_file, tmp_path, capsys, overlay, argv, message):
    ov = tmp_path / "ov.tbl"
    if overlay is not None:
        ov.write_text(overlay)
    message = message.replace("OV", str(ov))
    if argv is None:
        with pytest.raises(MissingTableData, match=re.escape(message)):
            all_realizable_in_stem(9, load_tables([str(ov)]))
        return
    tokens = {"PROBLEM": problem_file(SMALLEST), "OV": str(ov)}
    code, out, err = run(capsys, [tokens.get(a, a) for a in argv])
    assert code == 3 and out == "" and err.startswith("pialg: error:") and message in err


def test_what_if_check_report_is_json_dumps(tmp_path, problem_file, capsys):
    # A complete stem whose gamma values are all unknown: the report lists 48
    # completions with their witnesses, among the largest reports a check writes.
    overlay = tmp_path / "what-if.tbl"
    overlay.write_text("[q_stable]\n5 = Z/2<a> + Z/2<b> + Z/3<c>\n[em_homology]\n6 = Z/2 + Z/6\n")
    doc = {"n": 7, "k": 5, "A_n": {"rank": 1, "torsion": []},
           "A_nk": {"rank": 0, "torsion": [2, 6]}, "eta": [[1, 1, 0], [0, 0, 0]]}
    code, out, _ = run(capsys, ["check", problem_file(doc), "--tables", str(overlay),
                                "--format", "machine"])
    report = json.loads(out)
    assert code == 2 and len(report["results"][0]["completions"]) == 48
    assert out == json.dumps(report, indent=2) + "\n"


# Values for the report writer: every JSON type a report holds, strings that
# need escaping, bools beside ints, ints of 4000 digits, and containers of
# every kind, empty ones included, nested at least four deep.
_STRINGS = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\ud800😀') | st.characters(),
                   max_size=6)
_BIG = st.integers(10 ** 3999, 10 ** 4000 - 1)
_REPORT_LEAVES = (st.none() | st.booleans() | st.integers() | _BIG | _BIG.map(int.__neg__)
                  | st.floats(allow_nan=False, allow_infinity=False) | _STRINGS)


def _containers(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(_STRINGS, inner, max_size=4))


_REPORT_VALUES = st.recursive(_REPORT_LEAVES, _containers, max_leaves=12)


@st.composite
def _nested(draw, leaves):
    """A value from ``leaves`` inside four to six containers, each with siblings."""
    value = draw(leaves)
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=4, max_size=6)):
        items = draw(st.lists(_REPORT_VALUES, max_size=2))
        items.insert(draw(st.integers(0, len(items))), value)
        if kind == "dict":
            keys = draw(st.lists(_STRINGS, min_size=len(items), max_size=len(items), unique=True))
            value = dict(zip(keys, items))
        else:
            value = items if kind == "list" else tuple(items)
    return value


@given(_nested(_REPORT_VALUES))
@settings(max_examples=300, deadline=None)
def test_report_writer_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@given(_nested(st.sampled_from([{1: 0}, {None: 0}, {(1,): 0}, {1.5: 0}, {True: 0}, {1, 2},
                                frozenset(), math.nan, math.inf, -math.inf, b"x", 1j])))
@settings(max_examples=100, deadline=None)
def test_report_writer_refuses_what_json_dumps_would_coerce(value):
    # json.dumps would write some of these keys as text, and NaN as NaN; no report holds them.
    with pytest.raises(TypeError):
        cli._json_text(value)
