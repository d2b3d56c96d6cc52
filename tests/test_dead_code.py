"""Guard against unreferenced code in the package.

Every top-level function and class of ``src/awekit``, and every method,
must be named somewhere besides its own definition: in ``src``,
``tests``, ``demos`` or ``benchmarks``. Dunder names are exempt.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "awekit"
SEARCHED = ("src", "tests", "demos", "benchmarks")


def _definitions(tree):
    """Names of top-level functions and classes and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name


def unreferenced_names():
    words = collections.Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = collections.Counter()
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name] += 1
            where.setdefault(name, f"{path.name}:{name}")
    return sorted(where[name] for name, count in defined.items()
                  if not (name.startswith("__") and name.endswith("__")) and words[name] <= count)


def test_every_definition_is_referenced():
    assert unreferenced_names() == []
