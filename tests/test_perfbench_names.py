"""Every function the perfbench span tracer wraps must exist.

perfbench/spans.py looks each name in its TRACED table up with a plain
getattr when `--trace 1` installs it, so deleting or renaming a traced
function breaks tracing.  This reads the table from the file, without
touching perfbench/, and fails on such a name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"{modname}.{fname}"
        for modname, fnames in spans.TRACED.items()
        for fname in fnames
        if not callable(getattr(importlib.import_module(f"zlattice.{modname}"), fname, None))
    ]
    assert not missing, f"traced names missing from zlattice: {missing}"
