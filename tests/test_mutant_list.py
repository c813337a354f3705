"""The fixed mutant list of tests/mutants.py still fits the source.

The mutant runner takes minutes, so an edit whose old text the source no
longer holds would otherwise show only there, as STALE.  This reads the
list without running any mutant.
"""

from mutants import MUTANTS, ROOT, _stale


def test_every_mutant_edit_applies():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)
    stale = [name for name, path, old, new in MUTANTS if _stale(ROOT, path, old, new)]
    assert not stale, f"mutant edits that no longer apply once: {stale}"
