"""Every public name has a caller on some path.

A name in ``zlattice.__all__`` must be used by the package itself (outside
``__init__.py``, which only lists it), by ``scripts/`` or by ``perfbench/``:
read as a name or an attribute, imported, or given as a string (a tracer or
a query table looks functions up by name).  Its own ``def``, ``class`` or
assignment and any docstring or comment that mentions it do not count, so a
function that only its tests call fails here.  Every exported error class
but the base class must be raised somewhere in the package.
"""

import ast
import inspect
import typing
from pathlib import Path

import zlattice

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zlattice"

# public names that no path uses, each kept for a stated reason
UNCALLED = {
    "__version__": "the package version, read by people and packaging tools",
    "is_type": "states the paper's hypothesis that psi is of type ((3,1,1), -id)",
    "E8_CARTAN": "documents the basis of the fixed E8(-1) Gram matrix: its "
                 "columns are the simple roots in the dual basis",
    "RECORDED_SYMMETRY_GROUP_311": "records the paper's symmetry group of the "
                                   "(3,1,1) model, which nothing computes",
}


def _path_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _used_names(files) -> set[str]:
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def _raised_names(files) -> set[str]:
    raised = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_public_name_has_a_caller():
    used = _used_names(_path_files())
    uncalled = [n for n in zlattice.__all__ if n not in used and n not in UNCALLED]
    assert not uncalled, f"public names that no path uses: {uncalled}"


def test_the_kept_uncalled_names_are_still_public_and_still_uncalled():
    # an exception that gains a caller, or leaves __all__, leaves this set
    assert set(UNCALLED) <= set(zlattice.__all__)
    assert not set(UNCALLED) & _used_names(_path_files())


def test_every_exported_error_is_raised():
    raised = _raised_names(PACKAGE.glob("*.py"))
    errors = [n for n in zlattice._EXPORTS["errors"] if n != "LatticeError"]
    assert errors
    unraised = [n for n in errors if n not in raised]
    assert not unraised, f"error classes that nothing raises: {unraised}"


def _annotated(obj):
    """obj and, for a class, the functions its own body defines: methods,
    static and class methods, and property getters."""
    yield obj
    if isinstance(obj, type):
        for value in vars(obj).values():
            value = getattr(value, "__func__", getattr(value, "fget", value))
            if inspect.isfunction(value):
                yield value


def test_every_public_annotation_resolves():
    # the modules postpone annotations, so a name an annotation reads must
    # be reachable from the defining module when get_type_hints asks
    unresolved = []
    for name in zlattice.__all__:
        obj = getattr(zlattice, name)
        if not (inspect.isfunction(obj) or isinstance(obj, type)):
            continue
        for target in _annotated(obj):
            try:
                typing.get_type_hints(target)
            except NameError as err:
                unresolved.append(f"{target.__qualname__}: {err}")
    assert not unresolved, unresolved
