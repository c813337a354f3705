import json
import subprocess
import sys

import pytest

from zlattice import standard_lattice
from zlattice.cli import run


@pytest.fixture()
def files(tmp_path):
    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    S = standard_lattice("S311")
    out = {
        "s311": dump("s311.json", {"gram": [list(r) for r in S.gram]}),
        "e8": dump("e8.json", {"gram": [list(r) for r in standard_lattice("E8(-1)").gram]}),
        "u": dump("u.json", {"gram": [[0, 1], [1, 0]]}),
        "degen": dump("degen.json", {"gram": [[0]]}),
        "badgram": dump("badgram.json", {"gram": [[0, 1], [2, 0]]}),
        "model": dump("model.json", {
            "gram": [list(r) for r in S.gram],
            "a0": [0, 0, 1], "e": [1, 0, 0], "f": [0, 1, 0],
        }),
        "n4model": dump("n4model.json", {
            "gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, -2], [0, 0, -2, -4]],
            "a0": [1, -1, 0, 0], "e": [0, 1, -1, 0], "f": [0, 0, 1, 0],
        }),
        "swap": dump("swap.json", {
            "gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]],
        }),
        "floatinv": dump("floatinv.json", {
            "gram": [[0, 1], [1, 0]], "matrix": [[1.9, 0], [0, True]],
        }),
        "strinv": dump("strinv.json", {
            "gram": [[0, 1], [1, 0]], "matrix": [["1", 0], [0, 1]],
        }),
        "badmodel": dump("badmodel.json", {
            "gram": [[-2, 0], [0, -2]], "a0": [1, 0], "e": [0, 1], "f": [1, 1],
        }),
    }
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    out["broken"] = str(broken)
    out["missing"] = str(tmp_path / "nope.json")
    return out


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- happy paths ---


def test_invariants_text(files, capsys):
    code, out, err = invoke(capsys, "invariants", files["s311"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "rank: 3" in lines
    assert "determinant: 2" in lines
    assert "signature: (1, 2, 0)" in lines
    assert "even: yes" in lines
    assert "two-elementary: (r,a,delta) = (3,1,1)" in lines


def test_invariants_not_two_elementary(files, capsys):
    code, out, _ = invoke(capsys, "invariants", files["u"])
    assert code == 0
    assert "two-elementary: (r,a,delta) = (2,0,0)" in out
    code, out, _ = invoke(capsys, "invariants", files["degen"])
    assert code == 0
    assert "two-elementary: NOT-2-ELEMENTARY" in out


def test_discriminant_text(files, capsys):
    code, out, _ = invoke(capsys, "discriminant", files["s311"])
    assert code == 0
    assert "order: 2" in out
    assert "invariant-factors: (2)" in out
    assert "q = 3/2" in out


def test_roots_golden_count(files, capsys):
    code, out, _ = invoke(capsys, "roots", files["e8"], "--norm", "-2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 240"
    assert lines[1] == "complete: yes"
    assert len(lines) == 242


def test_roots_with_bound(files, capsys):
    code, out, _ = invoke(capsys, "roots", files["u"], "--norm", "-2",
                          "--bound", "2")
    assert code == 0
    assert "complete: no" in out
    assert "(1, -1)" in out


def test_roots_with_ortho(files, capsys):
    code, out, _ = invoke(capsys, "roots", files["s311"], "--norm", "-2",
                          "--ortho", "0,0,1;1,1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 2"
    assert "(0, 1, 0)" in lines and "(0, -1, 0)" in lines


def test_involution_summary(files, capsys):
    code, out, _ = invoke(capsys, "involution", files["swap"])
    assert code == 0
    assert "fixed-rank: 1" in out
    assert "rank-sum-check: pass" in out
    assert "anti-s-rank" not in out
    code, out, _ = invoke(capsys, "involution", files["swap"],
                          "--s-basis", "1,-1")
    assert code == 0
    assert "anti-s-rank: 0" in out


def test_k3_check_golden(files, capsys):
    code, out, _ = invoke(capsys, "k3-check", files["model"])
    assert code == 0
    assert out.strip() == "NONDEGENERATE; witnesses: +f, -f"


def test_da_scan_no_witness(files, capsys):
    code, out, _ = invoke(capsys, "da-scan", files["model"], "--bound", "5")
    assert code == 0
    assert out.strip() == "NO-WITNESS-WITHIN-BOUND"


def test_da_scan_degenerate(files, capsys):
    code, out, _ = invoke(capsys, "da-scan", files["n4model"], "--bound", "2",
                          "--s-basis", "1,-1,0,0;0,1,0,0;0,0,2,-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DEGENERATE"
    assert lines[1] == "delta: (0, 0, 1, -1)"
    assert lines[2] == "delta1: (0, 0, 2, -1)"
    assert lines[3] == "delta2: (0, 0, 0, -1)"


def test_demo_golden(files, capsys):
    code, out, _ = invoke(capsys, "demo", "s311")
    assert code == 0
    assert "(r,a,delta) = (3,1,1)" in out
    assert out.splitlines()[-1] == "all-ok: yes"


# --- JSON mode ---


def test_json_outputs_parse(files, capsys):
    code, out, _ = invoke(capsys, "invariants", files["s311"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["two_elementary"] == [3, 1, 1]

    code, out, _ = invoke(capsys, "roots", files["e8"], "--norm", "-2", "--json")
    doc = json.loads(out)
    assert doc["count"] == 240 and doc["complete"] is True

    code, out, _ = invoke(capsys, "k3-check", files["model"], "--json")
    doc = json.loads(out)
    assert doc["nondegenerate"] is True
    assert doc["labels"] == ["+f", "-f"]

    code, out, _ = invoke(capsys, "demo", "s311", "--json")
    doc = json.loads(out)
    assert doc["all_ok"] is True


# --- exit code 2: malformed files ---


def test_exit2_paths(files, capsys):
    for path in (files["broken"], files["badgram"], files["missing"]):
        code, out, err = invoke(capsys, "invariants", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
    code, _, err = invoke(capsys, "k3-check", files["badmodel"])
    assert code == 2 and err.startswith("error:")
    for path in (files["s311"], files["floatinv"], files["strinv"]):
        code, out, err = invoke(capsys, "involution", path)
        assert code == 2 and out == "" and err.startswith("error:"), path


# --- exit code 3: precondition violations ---


def test_exit3_paths(files, capsys):
    code, _, err = invoke(capsys, "discriminant", files["degen"])
    assert code == 3 and err.startswith("error:")
    code, _, err = invoke(capsys, "roots", files["u"], "--norm", "-2")
    assert code == 3 and err.startswith("error:")
    code, _, err = invoke(capsys, "roots", files["u"], "--norm", "-2",
                          "--ortho", "1,0")
    assert code == 3 and err.startswith("error:")


# --- exit code 4: usage errors ---


def test_exit4_paths(files, capsys):
    cases = [
        ("frobnicate", files["s311"]),
        ("invariants", files["s311"], "--fancy"),
        ("roots", files["e8"], "--norm", "-2", "--ortho", "1,0,0,0,0,0,0,0",
         "--bound", "2"),
        ("roots", files["e8"], "--norm", "-2", "--ortho", "1,x"),
        ("roots", files["e8"], "--norm", "nope"),
        ("da-scan", files["model"], "--bound", "0"),
        ("demo", "other"),
        ("demo",),
    ]
    for argv in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 4, argv
        assert err.startswith("error:"), argv


# --- console entry point ---


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "zlattice", "invariants", files["s311"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "two-elementary: (r,a,delta) = (3,1,1)" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "zlattice", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")
