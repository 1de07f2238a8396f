"""Library code that only the tests use belongs in tests/helpers.py, and
a record class leaves storing its fields to `tdlab.record.Record`.

Every function, class and method in src/tdlab, dunders aside, must be used
by other library code, be read by the benchmark (perfbench/*.py), or be on
`KEPT` with its reason.  A name is used when it appears as a name or an
attribute in library code outside its own definition (an import is not a
use), or anywhere in perfbench, string constants included, since
perfbench/spans.py wraps functions by name.  Names are not qualified, so a
use of any `row` counts for `Matrix.row`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays though neither the library nor the benchmark uses it
KEPT = {
    "fixture": "the frozen fixtures that tests/test_golden.py and tests/test_guards.py read",
}


def _uses(tree, strings=False) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _parse(paths) -> list:
    return [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(paths)]


def test_every_library_definition_is_used_outside_the_tests():
    library = _parse((ROOT / "src" / "tdlab").glob("*.py"))
    used = sum(map(_uses, library), Counter())
    bench = sum((_uses(t, strings=True) for t in _parse((ROOT / "perfbench").glob("*.py"))),
                Counter())
    unused = [
        node.name
        for tree in library
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _uses(node)[node.name]
        and not bench[node.name]
        and node.name not in KEPT
    ]
    assert unused == []


def _stores_only(function) -> bool:
    """Whether every statement of `function`, a docstring aside, is a
    `setfield(...)` call."""
    body = [s for s in function.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return bool(body) and all(
        isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
        and isinstance(s.value.func, ast.Name) and s.value.func.id == "setfield"
        for s in body)


def test_no_init_only_stores_its_fields():
    """Record's one constructor binds and stores the fields; an __init__ of
    a class is written only to do more, as QRacahParams validates."""
    library = _parse((ROOT / "src" / "tdlab").glob("*.py"))
    storing = [
        cls.name
        for tree in library
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__" and _stores_only(node)
    ]
    assert storing == []
