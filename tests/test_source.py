"""Static checks over the package source."""

import ast
import collections
from pathlib import Path

import berkhyb

SRC = Path(berkhyb.__file__).parent

# called only by tests/test_acceptance.py, for acceptance criterion 9
UNREFERENCED_OK = {"lse_max_gap"}


def _names(node) -> collections.Counter:
    """Every Name and Attribute under ``node``, counted."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_referenced():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    everywhere = sum(map(_names, trees), collections.Counter())
    unreferenced = [
        d.name for tree in trees for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and everywhere[d.name] == _names(d)[d.name]
        and d.name not in UNREFERENCED_OK]
    assert unreferenced == []
