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


def test_every_private_attribute_is_read():
    # an attribute a class sets on self (self._x = ...) must be read in src/
    stored, read = set(), set()
    for tree in _trees(SRC):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.add(node.attr)
    assert sorted(stored - read) == []


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


def test_no_module_imports_mpmath():
    # certified signs need only ints and decimal; mpmath is the tests' oracle
    imports = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "mpmath" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "mpmath"]
    assert imports == []


def _numpy_random_uses(tree):
    """Lines that import numpy.random or read ``random`` off numpy."""
    numpy_names = {"numpy"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.random") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("numpy.random") or node.module == "numpy" \
                    and any(a.name == "random" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names:
            yield node.lineno


def test_no_module_uses_numpy_random():
    # the lse sweep draws from harness._splitmix64; loading numpy.random
    # costs a val-eval process ~6 MB and ~10 ms
    uses = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _numpy_random_uses(ast.parse(path.read_text()))]
    assert uses == []
    probe = ast.parse("import numpy as np\nimport numpy.random\n"
                      "from numpy import random\nx = np.random.default_rng(1)\n")
    assert list(_numpy_random_uses(probe)) == [2, 3, 4]


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


def _report_layout(tree):
    """Lines that build a Check or spell a table key ("columns", "rows") as a
    dict key or a subscript."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "Check" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node.lineno
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.slice] if isinstance(node, ast.Subscript) else [])
        if any(isinstance(k, ast.Constant) and k.value in ("columns", "rows")
               for k in keys):
            yield node.lineno


def test_only_manifest_knows_the_check_record_and_table_layout():
    # runners add checks and tables through RunReport.check and .table
    spelled = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
               if path.name != "manifest.py"
               for line in _report_layout(ast.parse(path.read_text()))]
    assert spelled == []
    assert list(_report_layout(ast.parse((SRC / "manifest.py").read_text())))


def _denominator_lcms(tree, scope=""):
    """The enclosing function of each lcm call over ``.denominator``s."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and "lcm" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)) \
                and any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                        for arg in node.args for n in ast.walk(arg)):
            yield scope
        yield from _denominator_lcms(node, inner)


def test_only_the_lattice_and_the_oracle_clear_denominators():
    # exactnum._lattice puts rationals over one denominator for every
    # caller; brute_force_min keeps its own, as qm_eval's oracle
    clearing = sorted(f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
                      for scope in _denominator_lcms(ast.parse(path.read_text())))
    assert clearing == ["exactnum._lattice", "valuation.brute_force_min"]
