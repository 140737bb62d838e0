"""The mutation gate's anchors (``tests/mutants.py``): each mutant's text
occurs exactly once in its file. The gate checks a mutant's text only when
it reaches that mutant, minutes into a run; this check takes well under a
second."""

from __future__ import annotations

import mutants


def test_every_mutant_text_occurs_once_in_its_file():
    counts = {mutant.name: (mutants.ROOT / mutant.file).read_text(encoding="utf-8")
              .count(mutant.old) for mutant in mutants.MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}
