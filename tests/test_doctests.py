import doctest

import pytest

import qlverify.abelian
import qlverify.cyclotomic
import qlverify.dirichlet
import qlverify.equivariant
import qlverify.gf
import qlverify.numtheory


@pytest.mark.parametrize(
    "module",
    [qlverify.numtheory, qlverify.abelian, qlverify.cyclotomic, qlverify.dirichlet,
     qlverify.equivariant, qlverify.gf],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
