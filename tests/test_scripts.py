"""Smoke runs of the command-line scripts under scripts/.

Each script runs in a fresh interpreter, as a user would start it, and
must exit 0 with the rows its docstring promises.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}


def test_root_census_e8_row():
    rows = _run("root_census.py")
    assert rows["lattice"] == ["m=-2", "m=-4", "m=-6"]
    assert rows["E8(-1)"] == ["240", "2160", "6720"]


def test_family_scan_small_sweep():
    rows = _run("family_scan.py", "--max-d", "-4")
    assert rows["S311"][0] == "NONDEGENERATE"
    assert rows["S311+<-2>"][0] == "DEGENERATE-POSS"
    assert rows["S311+<-4>"][0] == "NONDEGENERATE"
    assert rows["S311"][2] == rows["S311+<-4>"][2] == "no-witness"
