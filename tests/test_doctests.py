import doctest
from pathlib import Path

import rankcalc.diagrams
import rankcalc.grassmann
import rankcalc.partitions
import rankcalc.perms
import rankcalc.rankset
import rankcalc.symfunc

MODULES = [
    rankcalc.partitions,
    rankcalc.symfunc,
    rankcalc.perms,
    rankcalc.rankset,
    rankcalc.grassmann,
    rankcalc.diagrams,
]


def test_module_doctests():
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def test_readme_quick_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
