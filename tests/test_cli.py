import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import child_env

import zlattice
import zlattice.cli as cli
import zlattice.intlinalg as la
import zlattice.involutions as inv
from zlattice import standard_lattice
from zlattice.cli import run


# U + E8(-1) + A1(-1) + <-4> + <-6> + A1(-1) under 22 seeded column
# operations: rank 14, det -96, invariant factors (2, 2, 2, 12); the CI bare
# job writes the same Gram and diffs its discriminant against the golden
SKEW14_GRAM = (
    (0, 1, 0, 0, 0, 0, 0, -1, 1, 0, 0, 1, 0, 1),
    (1, -10, -5, 1, -11, -16, -14, 0, -8, 1, 8, 3, -1, 2),
    (0, -5, -4, 1, -7, -10, -8, -1, -5, 2, 4, 3, -2, 3),
    (0, 1, 1, -4, 2, 3, 0, 0, -1, -1, 3, 1, 1, 1),
    (0, -11, -7, 2, -14, -20, -16, -1, -10, 3, 9, 5, -3, 5),
    (0, -16, -10, 3, -20, -30, -24, -2, -14, 4, 14, 8, -4, 8),
    (0, -14, -8, 0, -16, -24, -24, -1, -14, 3, 18, 10, -3, 8),
    (-1, 0, -1, 0, -1, -2, -1, -26, 12, 1, 1, 2, -13, 3),
    (1, -8, -5, -1, -10, -14, -14, 12, -20, 2, 10, 9, 0, 8),
    (0, 1, 2, -1, 3, 4, 3, 1, 2, -2, -1, -2, 2, -2),
    (0, 8, 4, 3, 9, 14, 18, 1, 10, -1, -18, -10, 1, -8),
    (1, 3, 3, 1, 5, 8, 10, 2, 9, -2, -10, -12, 6, -11),
    (0, -1, -2, 1, -3, -4, -3, -13, 0, 2, 1, 6, -12, 6),
    (1, 2, 3, 1, 5, 8, 8, 3, 8, -2, -8, -11, 6, -12),
)


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
        # the CI bare job writes the same file and diffs its involution
        # output against the golden
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
        "skew14": dump("skew14.json", {"gram": [list(r) for r in SKEW14_GRAM]}),
        "lk3": dump("lk3.json", {"gram": [list(r) for r in standard_lattice("LK3").gram]}),
        "model_m2": dump("model_m2.json", {
            "gram": [[-2, 2, 1, 0], [2, -2, 0, 0], [1, 0, -2, 0], [0, 0, 0, -2]],
            "a0": [0, 0, 1, 0], "e": [1, 0, 0, 0], "f": [0, 1, 0, 0],
        }),
        "swap_s": dump("swap_s.json", {
            "gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]],
            "s_basis": [[1, -1]],
        }),
        "minus311": dump("minus311.json", {
            "gram": [list(r) for r in S.gram],
            "matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            "s_basis": [[1, 0, 0], [0, 0, 1]],
        }),
    }
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    out["broken"] = str(broken)
    nonutf8 = tmp_path / "nonutf8.json"
    nonutf8.write_bytes(b'\xff\xfe{"gram": [[2]]}')
    out["nonutf8"] = str(nonutf8)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    out["deep"] = str(deep)
    out["missing"] = str(tmp_path / "nope.json")
    return out


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- byte-level goldens: full stdout and exit code, text and --json ---

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

N4_S_BASIS = "1,-1,0,0;0,1,0,0;0,0,2,-1"

# name -> argv; "@key" stands for the path of files[key].  Each case is
# recorded twice, as <name>.out and, with --json appended, <name>-json.out;
# a recording is "exit <code>\n" followed by stdout.  Cases named exit* fail;
# the others must leave stderr empty.
GOLDEN_CASES = {
    "invariants-s311": ("invariants", "@s311"),
    "invariants-u": ("invariants", "@u"),
    "invariants-degen": ("invariants", "@degen"),
    "invariants-lk3": ("invariants", "@lk3"),
    "invariants-e8": ("invariants", "@e8"),
    "discriminant-s311": ("discriminant", "@s311"),
    "discriminant-u": ("discriminant", "@u"),
    "discriminant-lk3": ("discriminant", "@lk3"),
    "discriminant-n4": ("discriminant", "@n4model"),
    "discriminant-skew14": ("discriminant", "@skew14"),
    "roots-e8": ("roots", "@e8", "--norm", "-2"),
    "roots-u-bound": ("roots", "@u", "--norm", "-2", "--bound", "2"),
    "roots-s311-ortho": ("roots", "@s311", "--norm", "-2", "--ortho", "0,0,1;1,1,0"),
    "involution-swap": ("involution", "@swap"),
    "involution-swap-sflag": ("involution", "@swap", "--s-basis", "1,-1"),
    "involution-swap-sfile": ("involution", "@swap_s"),
    "involution-minus311": ("involution", "@minus311"),
    "involution-minus311-override": ("involution", "@minus311", "--s-basis", "0,0,1"),
    "k3-check-s311": ("k3-check", "@model"),
    "k3-check-s311-m2": ("k3-check", "@model_m2"),
    "k3-check-n4": ("k3-check", "@n4model"),
    "da-scan-s311": ("da-scan", "@model", "--bound", "5"),
    "da-scan-n4-sprime": ("da-scan", "@n4model", "--bound", "2", "--s-basis", N4_S_BASIS),
    "da-scan-n4": ("da-scan", "@n4model", "--bound", "1"),
    "demo-s311": ("demo", "s311"),
    "exit2-broken": ("invariants", "@broken"),
    "exit3-indefinite": ("roots", "@u", "--norm", "-2"),
    "exit3-s-not-anti": ("involution", "@swap_s", "--s-basis", "1,1"),
    "exit4-ortho-bound": ("roots", "@e8", "--norm", "-2", "--ortho", "1,0,0,0,0,0,0,0",
                          "--bound", "2"),
}


def golden_argv(files, name):
    argv = GOLDEN_CASES[name.removesuffix("-json")]
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    return argv + ["--json"] if name.endswith("-json") else argv


@pytest.mark.parametrize(
    "name", [n + sfx for n in GOLDEN_CASES for sfx in ("", "-json")])
def test_cli_golden_bytes(files, capsys, name):
    code, out, err = invoke(capsys, *golden_argv(files, name))
    assert f"exit {code}\n{out}".encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert code != 0 or err == ""


@pytest.mark.parametrize("name", [n for n in GOLDEN_CASES if not n.startswith("exit")])
def test_text_is_rendered_from_the_json_document(files, capsys, name):
    argv = golden_argv(files, name)
    code, text, _ = invoke(capsys, *argv)
    assert code == 0
    _, out, _ = invoke(capsys, *argv, "--json")
    render = cli._build_parser().parse_args(argv).render
    assert "\n".join(render(json.loads(out))) + "\n" == text


def test_involution_computes_each_fact_once(files, capsys, monkeypatch):
    calls = collections.Counter()

    def count(module, fname, *readers):
        def counted(*a, _orig=getattr(module, fname), **kw):
            calls[fname] += 1
            return _orig(*a, **kw)
        for m in (module, *readers):
            monkeypatch.setattr(m, fname, counted)

    # defined in involutions, which calls them by its own names; the verb
    # reads them through the package
    for fname in ("eigenlattices", "involution_rank_sum_check"):
        count(inv, fname, zlattice)
    # each eigenlattice is one kernel, built with the involution; the
    # period domain adds one for the anti-invariant part orthogonal to S
    count(la, "kernel")
    # one signature per lattice whose hyperbolicity is reported: fixed and
    # anti, plus anti-s when there is an S
    count(la, "ldl")
    for flags in ((), ("--json",)):
        calls.clear()
        assert invoke(capsys, "involution", files["minus311"], *flags)[0] == 0
        assert calls == {"eigenlattices": 1, "involution_rank_sum_check": 1,
                         "kernel": 3, "ldl": 3}
        calls.clear()
        assert invoke(capsys, "involution", files["swap"], *flags)[0] == 0
        assert calls == {"eigenlattices": 1, "involution_rank_sum_check": 1,
                         "kernel": 2, "ldl": 2}


# --- exit code 2: malformed files ---


def test_exit2_paths(files, capsys):
    for path in (files["broken"], files["badgram"], files["missing"],
                 files["nonutf8"], files["deep"]):
        code, out, err = invoke(capsys, "invariants", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
    code, _, err = invoke(capsys, "k3-check", files["badmodel"])
    assert code == 2 and err.startswith("error:")
    for path in (files["s311"], files["floatinv"], files["strinv"]):
        code, out, err = invoke(capsys, "involution", path)
        assert code == 2 and out == "" and err.startswith("error:"), path


SWAP_FILE = {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]]}
MODEL_FILE = {"gram": [[-2, 2, 1], [2, -2, 0], [1, 0, -2]],
              "a0": [0, 0, 1], "e": [1, 0, 0], "f": [0, 1, 0]}


@pytest.mark.parametrize("verb, data, message", [
    ("invariants", {"gram": 5}, '"gram" must be a list of rows'),
    ("invariants", {"gram": [[2]], "name": 3}, '"name" must be a string'),
    ("involution", {**SWAP_FILE, "matrix": [0, 1]}, '"matrix" must be a list of rows'),
    ("involution", {**SWAP_FILE, "s_basis": "1,1"}, '"s_basis" must be a list of vectors'),
    ("k3-check", [MODEL_FILE], "expected an object"),
    ("k3-check", {**MODEL_FILE, "e": 1}, '"e" must be a list of integers'),
])
def test_exit2_shape_errors(tmp_path, capsys, verb, data, message):
    # a file of the wrong JSON shape names the offending key on one line
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert invoke(capsys, verb, str(path)) == (2, "", f"error: {message}\n")


# --- exit code 3: precondition violations ---


def test_exit3_paths(files, capsys):
    code, _, err = invoke(capsys, "discriminant", files["degen"])
    assert code == 3 and err.startswith("error:")
    code, _, err = invoke(capsys, "roots", files["u"], "--norm", "-2")
    assert code == 3 and err.startswith("error:")
    code, _, err = invoke(capsys, "roots", files["u"], "--norm", "-2",
                          "--ortho", "1,0")
    assert code == 3 and err.startswith("error:")


def test_integers_past_the_digit_limit(tmp_path, capsys):
    # Python refuses int <-> str conversions past this many digits; an input
    # past it is an invalid file, and a result past it fails as exit 3
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int <-> str conversion is unlimited in this interpreter")
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text('{"gram": [[' + "2" * (limit + 700) + "]]}")
    # entries of k + 1 <= limit digits, determinant of 3 k + 1 > limit
    b = 2 * 10 ** (limit // 3 + 66)
    unprintable = tmp_path / "unprintable.json"
    unprintable.write_text(json.dumps({"gram": [[b, 0, 0], [0, b, 0], [0, 0, b]]}))
    for flags in ((), ("--json",)):
        for path, expect in ((unreadable, 2), (unprintable, 3)):
            code, out, err = invoke(capsys, "invariants", str(path), *flags)
            assert (code, out) == (expect, ""), (path, flags)
            assert err.startswith("error:") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("flags, message", [
    (("--ortho", "1,0;;0,1"), "argument --ortho: empty vector in list"),
    (("--bound", "x"), "argument --bound: 'x' is not an integer"),
    (("--bound", "1.5"), "argument --bound: '1.5' is not an integer"),
])
def test_exit4_names_the_bad_argument(files, capsys, flags, message):
    expected = (4, "", f"error: {message}\n")
    assert invoke(capsys, "roots", files["u"], "--norm", "2", *flags) == expected


# --- console entry point ---


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "zlattice", "invariants", files["s311"]],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "two-elementary: (r,a,delta) = (3,1,1)" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "zlattice", "nope"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")


def test_closed_stdout_exits_zero_quietly(files):
    # the read end is closed before the child starts, so its first write
    # to stdout fails however the scheduler orders the two processes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zlattice", "roots", files["e8"], "--norm", "-4"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zlattice; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_cli_import_loads_no_dataclasses():
    # -S: site preloads nothing, so the child sees what zlattice.cli imports
    code = "import sys, zlattice.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", (proc.stdout, proc.stderr)
