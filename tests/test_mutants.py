"""The mutant registry stays in step with the code and the tests it names."""

import re

from mutants import MUTANTS, ROOT


def test_every_anchor_occurs_once_and_every_killer_exists():
    assert len(MUTANTS) >= 20
    for name, mutant in MUTANTS.items():
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.anchor) == 1, name
        assert mutant.replacement != mutant.anchor, name
        for node in mutant.tests:
            path, _, test = node.partition("::")
            assert re.search(rf"^def {re.escape(test)}\(",
                             (ROOT / path).read_text(), re.M), (name, node)
