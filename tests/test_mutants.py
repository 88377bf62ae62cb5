import ast

import pytest
from mutants import MUTANTS, PACKAGE, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert occurrences(mutant) == 1, f"{mutant.file} must hold {mutant.old!r} exactly once"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutated_file_still_parses(mutant):
    # a replacement that does not parse fails every test on import, which would count as a kill
    source = (PACKAGE / mutant.file).read_text(encoding="utf-8")
    ast.parse(source.replace(mutant.old, mutant.new), filename=mutant.file)
