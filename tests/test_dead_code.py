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

Every value a run can select besides a key's default (each other choice
of a ``choices`` key, and the other value of a bool key) must be set by a
preset, a demo, a benchmark workload or an acceptance criterion, unless it
is on the allowlist of values with their reasons. Unit tests alone do not
count, so a new value either joins a recipe or is kept on purpose.
"""

import ast
import collections
import dataclasses
import pathlib
import re

import pytest

from awekit import config

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "awekit"
SEARCHED = ("src", "tests", "demos", "benchmarks")

# Named only in tests, and kept in src because an acceptance criterion
# checks the package's own function. Empty: the criteria call the kernels
# the pipelines run.
TEST_ONLY_ALLOWED = set()

# Config keys no preset sets and no test, demo or benchmark names: paper
# hyperparameters every run keeps at their defaults.
UNSET_KEYS_ALLOWED = {
    ("recognizer", "unit_normalize"): "prediction rows from written embeddings start at unit norm",
}

# Where a recipe sets a value, besides config.PRESETS.
RECIPE_FILES = ("demos/*.py", "benchmarks/awebench/workloads.py", "tests/test_acceptance.py")

# Non-default values no recipe sets: each is kept for the reason given.
UNSET_VALUES_ALLOWED = {
    ("written", "mode", "feature"): "distinctive-feature written input, for multilingual training "
                                    "(ROADMAP item 5)",
    ("objective", "strategy", "uniform"): "the plain triplet, the one-draw case of offending",
    ("recognizer", "unit_normalize", "false"): "criterion 8b's probes set it (ROADMAP item 0)",
    ("recognizer", "scheme", "convex"): "criterion 4 grad-checks objectives.combine_joint with it, "
                                        "called directly rather than through the config",
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


def _non_default_values():
    """(section, key, value) for every value a run can select besides
    the key's default."""
    for section, keys in config.SCHEMA.items():
        for key, (default, spec) in keys.items():
            if spec.type is bool:
                yield section, key, "false" if default == "true" else "true"
            for value in spec.choices or ():
                if value != default:
                    yield section, key, value


def _recipe_values():
    """(section, key, value) triples the presets and the recipe files set:
    a ``("section", "key"): "value"`` dict entry, a "section.key=value"
    string (a ``--set`` argument), or, for an entry whose value is computed
    (a loop variable), every string constant of the same file."""
    found = {(*k, v) for preset in config.PRESETS.values() for k, v in preset.items()}
    for path in sorted(p for pattern in RECIPE_FILES for p in ROOT.glob(pattern)):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            for k, v in zip(node.keys, node.values):
                pair = _string_pair(k.elts) if isinstance(k, ast.Tuple) and len(k.elts) == 2 else None
                if pair is None:
                    continue
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    found.add((*pair, v.value))
                else:
                    found.update((*pair, value) for value in strings)
        for string in strings:
            m = re.fullmatch(r"(\w+)\.(\w+)=(.*)", string)
            if m:
                found.add(m.groups())
    return found


def test_every_non_default_value_is_set_by_a_recipe():
    values = set(_non_default_values())
    set_by_recipes = _recipe_values()
    unset = sorted(v for v in values - set_by_recipes if v not in UNSET_VALUES_ALLOWED)
    assert unset == [], "set by no preset, demo, benchmark workload or acceptance criterion"
    # the allowlist names only values of the schema that no recipe sets
    assert sorted(v for v in UNSET_VALUES_ALLOWED if v not in values or v in set_by_recipes) == []


def test_a_value_no_recipe_sets_is_flagged(monkeypatch):
    """The check above fails on a choice that only unit tests could run,
    here a third pooling mode, and names it."""
    default, spec = config.SCHEMA["encoder"]["pooling"]
    wider = dataclasses.replace(spec, choices=(*spec.choices, "attention"))
    monkeypatch.setitem(config.SCHEMA, "encoder", {**config.SCHEMA["encoder"], "pooling": (default, wider)})
    assert ("encoder", "pooling", "attention") in set(_non_default_values()) - _recipe_values()
    with pytest.raises(AssertionError, match="attention"):
        test_every_non_default_value_is_set_by_a_recipe()
