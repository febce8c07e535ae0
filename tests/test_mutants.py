"""The mutant catalogue (``tests/mutants.py``) still matches the source.

Only the snippets are checked here; ``python tests/mutants.py`` applies
the mutants and runs their killing tests."""

from __future__ import annotations

from mutants import MUTANTS, ROOT


def test_every_snippet_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / "src" / mutant.path).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name


def test_every_mutant_names_existing_killing_tests():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.killed_by, mutant.name
        for node in mutant.killed_by:
            path, *_, function = node.split("::")
            source = (ROOT / path).read_text()
            assert f"def {function.split('[')[0]}(" in source, node
