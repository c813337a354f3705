"""The package resolves its public names on first use, and each CLI verb
loads only the modules it runs.

The checks of what gets loaded or bound run in a fresh interpreter started
with -S, so that site preloads nothing, and compare against the modules
the child held before importing zlattice.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import child_env

import zlattice
from zlattice import standard_lattice

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# loaded by every verb: the package, the command line and the error classes
BASE = {"zlattice", "zlattice.cli", "zlattice.errors"}
DEFINITE = {"zlattice.intlinalg", "zlattice.lattices"}
DISC = DEFINITE | {"zlattice.discriminant"}
ROOTS = DEFINITE | {"zlattice.roots"}


def _child(code, *args):
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", code, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verbs")

    def dump(name, obj):
        p = tmp / name
        p.write_text(json.dumps(obj))
        return str(p)

    s311 = [list(r) for r in standard_lattice("S311").gram]
    return {
        "u": dump("u.json", {"gram": [[0, 1], [1, 0]]}),
        "e8": dump("e8.json", {"gram": [list(r) for r in standard_lattice("E8(-1)").gram]}),
        "model": dump("model.json", {"gram": s311, "a0": [0, 0, 1], "e": [1, 0, 0], "f": [0, 1, 0]}),
        "swap": dump("swap.json", {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]]}),
    }


VERBS = [
    pytest.param(["invariants", "u"], DISC, id="invariants"),
    pytest.param(["discriminant", "u", "--json"], DISC, id="discriminant"),
    pytest.param(["roots", "e8", "--norm", "-2"], ROOTS, id="roots"),
    pytest.param(["roots", "e8", "--norm", "-2", "--ortho", "1,0,0,0,0,0,0,0"], ROOTS,
                 id="roots-ortho"),
    pytest.param(["roots", "u", "--norm", "2", "--bound", "2"], ROOTS, id="roots-bound"),
    pytest.param(["k3-check", "model"], ROOTS | {"zlattice.k3"}, id="k3-check"),
    pytest.param(["involution", "swap"], DISC | ROOTS | {"zlattice.involutions"}, id="involution"),
    pytest.param(["da-scan", "model", "--bound", "1"],
                 DISC | ROOTS | {"zlattice.involutions", "zlattice.k3"}, id="da-scan"),
    # the demo checks S311 and the F4 numerology, and builds no involution
    pytest.param(["demo", "s311"], DISC | ROOTS | {"zlattice.k3"}, id="demo"),
]

VERB_CODE = """
import sys
base = set(sys.modules)
import contextlib, io, json
from zlattice.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
new = set(sys.modules) - base
print(json.dumps({"code": code, "zlattice": sorted(m for m in new if m.startswith("zlattice")),
                  "fractions": "fractions" in new, "fractions_at_start": "fractions" in base}))
"""


@pytest.mark.parametrize("argv, modules", VERBS)
def test_each_verb_loads_only_its_modules(files, argv, modules):
    out = _child(VERB_CODE, *(files.get(a, a) for a in argv))
    assert out["code"] == 0
    assert set(out["zlattice"]) == BASE | modules
    # fractions serves the discriminant form alone
    assert not out["fractions_at_start"]
    assert out["fractions"] == ("zlattice.discriminant" in modules)


def test_import_loads_no_submodule():
    code = ("import sys, json; base = set(sys.modules); import zlattice; "
            "print(json.dumps(sorted(m for m in set(sys.modules) - base if 'zlattice' in m)))")
    assert _child(code) == ["zlattice"]


def test_public_surface():
    assert len(set(zlattice.__all__)) == len(zlattice.__all__)
    for name in zlattice.__all__:
        assert getattr(zlattice, name) is not None, name
    assert set(zlattice.__all__) <= set(dir(zlattice))
    namespace = {}
    exec("from zlattice import *", namespace)
    assert set(zlattice.__all__) <= set(namespace)
    assert namespace["vectors_of_norm"] is zlattice.roots.vectors_of_norm
    with pytest.raises(AttributeError):
        zlattice.no_such_name


def test_submodules_resolve_by_name():
    code = ("import sys, json; import zlattice; m = zlattice.k3; "
            "print(json.dumps([m.__name__, 'zlattice.k3' in sys.modules]))")
    assert _child(code) == ["zlattice.k3", True]


TRACE_CODE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import contextlib, io
import zlattice

E8 = zlattice.standard_lattice("E8(-1)")
ortho = ((1, 0, 0, 0, 0, 0, 0, 0),)
zlattice.constrained_roots  # bound in the package before tracing
tracer = spans.Tracer()
tracer.install()
try:
    root = tracer.open("bench.query")
    # first read while the tracer is installed
    zlattice.vectors_of_norm(E8, -2)
    zlattice.constrained_roots(E8, ortho, -2)
    # k3 reaches da_degeneracy_scan through the package's lazy name
    S311 = zlattice.standard_lattice("S311")
    zlattice.model_degeneracy_scan(zlattice.make_picard_model(S311, (0, 0, 1), (1, 0, 0), (0, 1, 0)), 1)
    tracer.close(root)
    bound_while_traced = "vectors_of_norm" in vars(zlattice)
    with contextlib.redirect_stdout(io.StringIO()):
        code = zlattice.cli.run(["roots", sys.argv[2], "--norm", "-2"])
finally:
    tracer.uninstall()
traced = list(tracer.spans)
restored = [getattr(zlattice, f) is getattr(zlattice.roots, f) and not hasattr(getattr(zlattice, f), "__wrapped__")
            for f in ("vectors_of_norm", "constrained_roots")]
zlattice.vectors_of_norm(E8, -2)
zlattice.constrained_roots(E8, ortho, -2)
print(json.dumps({"code": code, "spans": traced, "restored": restored, "after": len(tracer.spans),
                  "bound_while_traced": bound_while_traced,
                  "bound_after": "vectors_of_norm" in vars(zlattice)}))
"""


def test_traced_calls_through_lazy_names(files):
    out = _child(TRACE_CODE, str(SPANS), files["e8"])
    assert out["code"] == 0
    spans = out["spans"]
    names = [s[0] for s in spans]
    enum = [i for i, name in enumerate(names) if name == "roots.vectors_of_norm"]
    assert len(enum) == 2 and names.count("cli.run") == 1
    # one under the query span, one under the cli verb
    assert [names[spans[i][3]] for i in enum] == ["bench.query", "cli.run"]
    # a name bound in the package before tracing is traced as well
    assert [names[s[3]] for s in spans if s[0] == "roots.constrained_roots"] == ["bench.query"]
    assert [names[s[3]] for s in spans if s[0] == "involutions.da_degeneracy_scan"] == [
        "k3.model_degeneracy_scan"]
    # the wrapper read while tracing is not kept; the original read after is
    assert not out["bound_while_traced"] and out["bound_after"]
    assert out["restored"] == [True, True]
    assert out["after"] == len(spans)


BIND_CODE = """
import functools, json
import zlattice, zlattice.roots as roots

orig = roots.canonical_order

def stand_in(*args):
    return None

@functools.wraps(orig)  # takes the original's __module__, and sets __wrapped__
def wrapper(*args):
    return orig(*args)

out = []
for replacement in (stand_in, wrapper):
    roots.canonical_order = replacement
    out += [zlattice.canonical_order is replacement, "canonical_order" in vars(zlattice)]
roots.canonical_order = orig
out += [zlattice.canonical_order is orig, "canonical_order" in vars(zlattice)]
zlattice.E8_CARTAN
out.append("E8_CARTAN" in vars(zlattice))
print(json.dumps(out))
"""


def test_package_binds_only_the_submodules_own_objects():
    # a stand-in or a wrapper is read through but not kept; a constant has
    # no home to check, so it is read from its submodule every time
    assert _child(BIND_CODE) == [True, False, True, False, True, True, False]
