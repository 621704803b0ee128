"""The mutation manifest stays in step with the code it breaks: each snippet
occurs exactly once, and each test it names exists.  Running the mutants
is a separate step (``python tests/mutants.py``)."""
from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert source(mutant).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests and mutant.why
    for test in mutant.tests:
        path, _, name = test.partition("::")
        name = name.partition("[")[0]
        text = (ROOT / "tests" / path).read_text(encoding="utf-8")
        assert not name or f"def {name}(" in text, test


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
