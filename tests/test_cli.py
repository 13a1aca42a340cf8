"""CLI: exit codes, report round-trips, determinism."""

import json
import re

import pytest

from pialg import check, load_tables, problem_from_json, realizability, verdict_from_json
from pialg.cli import main
from pialg.pi_functors import gamma_tilde

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
], ids=["missing-n", "top-level-array", "torsion-not-a-chain", "fractional-n",
        "fractional-torsion", "fractional-eta", "string-eta", "bool-eta", "fractional-eta1"])
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
    return re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": _', out)


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


def test_selftest_command(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out
    assert "passed" in out


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
