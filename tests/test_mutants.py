import pytest
from mutants import MUTANTS, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert occurrences(mutant) == 1, f"{mutant.file} must hold {mutant.old!r} exactly once"
