"""Guard against unreferenced and test-only code in the package, and
against configuration keys that nothing sets.

Every top-level function and class of ``src/awekit``, and every method,
must be named somewhere besides its own definition: in ``src``,
``tests``, ``demos`` or ``benchmarks``. It must also be named outside
``tests``, unless it is on the allowlist below: oracles used only by
tests live in ``tests/``. Only names in code count: a mention in a
comment, docstring or string is not a use. Dunder names are exempt.

Every key of ``config.DEFAULTS`` must be set by a preset, or named in
``tests``, ``demos`` or ``benchmarks`` as a ``("section", "key")`` pair
or a ``"section.key"`` string, unless it is on the allowlist of keys kept
at their defaults.
"""

import ast
import collections
import pathlib
import re
import tokenize

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
    """Names of top-level functions and classes and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name


def _word_counts(tops, skip=()):
    words = collections.Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path not in skip:
                with path.open("rb") as f:
                    words.update(tok.string for tok in tokenize.tokenize(f.readline)
                                 if tok.type == tokenize.NAME)
    return words


def _package_definitions():
    """(name -> number of definitions, name -> "file:name") over src/awekit."""
    defined = collections.Counter()
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                defined[name] += 1
                where.setdefault(name, f"{path.name}:{name}")
    return defined, where


def unreferenced_names():
    words = _word_counts(SEARCHED)
    defined, where = _package_definitions()
    return sorted(where[name] for name, count in defined.items() if words[name] <= count)


def names_used_only_by_tests():
    """Definitions named in tests but nowhere else; a re-export in
    ``awekit/__init__.py`` is not a use."""
    outside = _word_counts(("src", "demos", "benchmarks"), skip={PACKAGE / "__init__.py"})
    in_tests = _word_counts(("tests",))
    defined, where = _package_definitions()
    return sorted(where[name] for name, count in defined.items()
                  if outside[name] <= count and in_tests[name] and name not in TEST_ONLY_ALLOWED)


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
