"""Guard against unreferenced and test-only code in the package, and
against configuration keys that nothing sets.

Every top-level function and class of ``src/awekit``, and every method,
must be used somewhere: in ``src``, ``tests``, ``demos`` or
``benchmarks``. It must also be used outside ``tests``, unless it is on
the allowlist below: oracles used only by tests live in ``tests/``. A
method is used by an attribute use (``x.name``); a top-level function or
class by its bare name (``name``) or through a module that an awekit
import binds (``module.name`` after ``from . import module``,
``from awekit import module`` or ``import awekit.module as module``). So
a local variable, a method or a numpy function that happens to share a
definition's name (``np.stack``) does not count, and neither does a
mention in a comment, docstring or string. Dunder names are exempt.

Every key of ``config.DEFAULTS`` must be set by a preset, or named in
``tests``, ``demos`` or ``benchmarks`` as a ``("section", "key")`` pair
or a ``"section.key"`` string, unless it is on the allowlist of keys kept
at their defaults.
"""

import ast
import collections
import pathlib
import re

from awekit import config

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "awekit"
SEARCHED = ("src", "tests", "demos", "benchmarks")

# Named only in tests, and kept in src because an acceptance criterion
# checks the package's own function.
TEST_ONLY_ALLOWED = {
    "ctc_loss_value",  # criterion 2: CTC loss against brute-force enumeration
    "dtw_cost",  # criterion 1: DTW cost against brute-force path enumeration
    "hamming_fraction",  # criterion 5: Hamming distance estimates the angle
}

# Config keys no preset sets and no test, demo or benchmark names: paper
# hyperparameters every run keeps at their defaults.
UNSET_KEYS_ALLOWED = {
    ("recognizer", "unit_normalize"): "prediction rows from written embeddings start at unit norm",
}


def _definitions(tree):
    """(kind, name) of top-level functions and classes ("top") and of their
    methods ("method")."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield "top", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield "method", item.name


def _awekit_modules(tree):
    """Names a file's awekit imports bind: ``from . import x``, ``from
    awekit import x``, ``import awekit.x as y``, ``import awekit``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 and node.module is None
                                                 or node.level == 0 and node.module == "awekit"):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "awekit")
    return bound


def _uses(tops, skip=()):
    """(kind, name) -> number of uses: "method" for every attribute use
    ``x.name``, "top" for every bare name and every ``module.name`` through
    a name an awekit import of the same file binds."""
    uses = collections.Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path in skip:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = _awekit_modules(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses["top", node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses["method", node.attr] += 1
                    if isinstance(node.value, ast.Name) and node.value.id in imported:
                        uses["top", node.attr] += 1
    return uses


def _package_definitions():
    """(kind, name) -> "file:name" over src/awekit."""
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for kind, name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                where.setdefault((kind, name), f"{path.name}:{name}")
    return where


def unreferenced_names():
    uses = _uses(SEARCHED)
    return sorted(spot for key, spot in _package_definitions().items() if not uses[key])


def names_used_only_by_tests():
    """Definitions used in tests but nowhere else; a re-export in
    ``awekit/__init__.py`` is not a use."""
    outside = _uses(("src", "demos", "benchmarks"), skip={PACKAGE / "__init__.py"})
    in_tests = _uses(("tests",))
    return sorted(spot for key, spot in _package_definitions().items()
                  if not outside[key] and in_tests[key] and key[1] not in TEST_ONLY_ALLOWED)


def test_every_definition_is_referenced():
    assert unreferenced_names() == []


def test_no_definition_is_used_only_by_tests():
    assert names_used_only_by_tests() == []


def _string_pair(nodes):
    if all(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in nodes[:2]):
        return tuple(n.value for n in nodes[:2])
    return None


def _named_config_keys():
    """("section", "key") pairs in tests, demos or benchmarks (this file
    aside): a tuple of two strings, the first two arguments of a call such
    as ``cfg.getint("training", "min_frames")``, or a "section.key" string."""
    named = set()
    for top in ("tests", "demos", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == pathlib.Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                    named.add(_string_pair(node.elts))
                elif isinstance(node, ast.Call) and len(node.args) >= 2:
                    named.add(_string_pair(node.args))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    m = re.fullmatch(r"(\w+)\.(\w+)", node.value)
                    if m:
                        named.add(m.groups())
    return named - {None}


def unexercised_config_keys():
    exercised = _named_config_keys() | {k for preset in config.PRESETS.values() for k in preset}
    return [f"{section}.{key}" for section, keys in config.DEFAULTS.items() for key in keys
            if (section, key) not in exercised and (section, key) not in UNSET_KEYS_ALLOWED]


def test_every_config_key_is_exercised():
    assert unexercised_config_keys() == []
