import doctest
from pathlib import Path

import pytest

import qlverify.abelian
import qlverify.curves
import qlverify.cyclotomic
import qlverify.dirichlet
import qlverify.equivariant
import qlverify.ffqlc
import qlverify.gf
import qlverify.numtheory


@pytest.mark.parametrize(
    "module",
    [qlverify.numtheory, qlverify.abelian, qlverify.cyclotomic, qlverify.curves,
     qlverify.dirichlet, qlverify.equivariant, qlverify.ffqlc, qlverify.gf],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_worked_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
