"""The mutant catalogue stays applicable: each entry's old text occurs
exactly once in ``src/``, so a refactor that moves catalogued code must
update its entry, and each test it names is defined in its file
(``python tests/mutants.py`` runs the catalogue)."""
from __future__ import annotations

import pytest

from conftest import ROOT
from mutants import MUTANTS, Mutant, occurrences


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant: Mutant):
    assert mutant.old != mutant.new
    assert mutant.old in (ROOT / "src" / "fmkit" / mutant.file).read_text(encoding="utf-8")
    assert occurrences(mutant, ROOT / "src") == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        if name:  # a renamed test would otherwise surface only in the runner
            assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test
