"""Only qlverify.cyclotomic sees how a cyclotomic element is stored.

Other modules build elements from integer data through _root_sum and
_sum_of_products; the canonical form itself (_element, _reduce) stays
private to cyclotomic.  cyclotomic needs nothing from the finite-field
module gf.  The checks read the source with ast, so they import nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qlverify"
STORED_FORM = {"_element", "_reduce"}


def names_used(tree):
    """Every imported, read or attribute name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{a.name}" if node.module else a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)


def test_only_cyclotomic_references_the_stored_form():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.stem == "curves" for path in modules)
    for path in modules:
        if path.stem == "cyclotomic":
            continue
        used = STORED_FORM & set(names_used(ast.parse(path.read_text())))
        assert not used, f"{path.name} references {sorted(used)}"


def test_cyclotomic_imports_nothing_from_gf():
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    for module in imported_modules(tree):
        assert "gf" not in module.split("."), module
