"""The mutation audit's list cannot rot: every mutant in scripts/mutants.py
still finds its old text exactly once in its file, changes it, and names
test files that exist.  Running the mutants themselves is
`python scripts/mutants.py`; this only checks the list."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)
    assert mutant.equivalent is None or mutant.equivalent.strip()
