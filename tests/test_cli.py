"""CLI: exit codes, report round-trips, determinism."""

import json

import pytest

from pialg import check, load_tables, problem_from_json, verdict_from_json
from pialg.cli import main

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


def test_check_three_stage(problem_file, capsys):
    doc = {"n": 4,
           "A_n": {"rank": 0, "torsion": [2]},
           "A_n1": {"rank": 0, "torsion": [2]},
           "A_n2": {"rank": 0, "torsion": [2]},
           "eta1": [[1]], "eta2": [[1]]}
    code, out, _ = run(capsys, ["check", problem_file(doc, "t.json")])
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
], ids=["missing-n", "top-level-array", "torsion-not-a-chain", "fractional-n",
        "fractional-torsion"])
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
