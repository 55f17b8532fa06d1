"""Static checks over the package source."""

import ast
import collections
from pathlib import Path

import berkhyb

SRC = Path(berkhyb.__file__).parent
TESTS = Path(__file__).parent


def _trees(root: Path) -> list:
    return [ast.parse(p.read_text()) for p in sorted(root.glob("*.py"))]


def _names(node) -> collections.Counter:
    """Every Name and Attribute under ``node``, counted."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_referenced():
    trees = _trees(SRC)
    everywhere = sum(map(_names, trees), collections.Counter())
    unreferenced = [
        d.name for tree in trees for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and everywhere[d.name] == _names(d)[d.name]]
    assert unreferenced == []


def test_every_method_is_referenced():
    # a method's name must appear outside its own body, in src/ or tests/
    trees = _trees(SRC)
    everywhere = sum(map(_names, trees + _trees(TESTS)), collections.Counter())
    unreferenced = [
        f"{c.name}.{d.name}" for tree in trees for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) for d in c.body
        if isinstance(d, ast.FunctionDef)
        and not (d.name.startswith("__") and d.name.endswith("__"))
        and everywhere[d.name] == _names(d)[d.name]]
    assert unreferenced == []


def _eager_imports(node):
    """(line, top-level package) of each absolute import that runs when the
    module is imported, that is, outside every function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield child.lineno, alias.name.split(".")[0]
        elif isinstance(child, ast.ImportFrom):
            if child.level == 0:
                yield child.lineno, child.module.split(".")[0]
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _eager_imports(child)


def test_numpy_and_mpmath_are_imported_on_first_use():
    # `import berkhyb.cli` and the exact kinds must not pay to load them
    eager = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line, package in _eager_imports(ast.parse(path.read_text()))
             if package in ("numpy", "mpmath")]
    assert eager == []


def test_input_formats_live_in_harness():
    # manifest reads the JSON and harness parses every input file through
    # it; no other module reads JSON
    readers = [
        f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
        if path.name not in ("harness.py", "manifest.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "from_json"
        or isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name) and node.value.id == "json"]
    assert readers == []
