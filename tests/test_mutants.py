"""`tools/mutants.py` applies each committed mutant by exact text; a refactor
that moves or rewords a mutated line must not orphan it silently."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "mutants.py")


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _tool().MUTANTS


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_edit_occurs_exactly_once(name):
    # the edits apply in order, as the tool applies them, and each changes the file
    path, edits = MUTANTS[name]
    with open(os.path.join(ROOT, "src", "mcvqg", path)) as fh:
        text = fh.read()
    for old, new in edits:
        assert text.count(old) == 1, f"{path}: {old!r}"
        assert old != new
        text = text.replace(old, new)
