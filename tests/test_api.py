"""The package's public names: ekconst.__all__ against what it exports,
against what the frozen acceptance gate imports, and against what the
library itself calls."""
import ast
import inspect
from collections import Counter
from pathlib import Path

import ekconst

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
SOURCES = sorted(Path(ekconst.__file__).parent.glob("*.py"))

#: Public functions offered to library users that no library function
#: calls: the residue-class and streaming Chebyshev sums (README), the
#: reader of the scan CSV and the principal character of a group.
#: psi_mod_stream is not one: psi_stream calls it.
ENTRY_POINTS = {"psi_mod", "psi_stream", "parse_scan_csv",
                "principal_character"}


def _acceptance_imports():
    """(module, name) for every `from ekconst... import name` in the gate."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "ekconst"
            for alias in node.names]


def test_every_all_entry_resolves():
    missing = [name for name in ekconst.__all__
               if not hasattr(ekconst, name)]
    assert missing == []
    namespace = {}
    exec("from ekconst import *", namespace)
    assert set(ekconst.__all__) <= set(namespace)


def test_no_all_entry_is_duplicated():
    dupes = [name for name, n in Counter(ekconst.__all__).items() if n > 1]
    assert dupes == []


def test_acceptance_imports_are_exported():
    imports = _acceptance_imports()
    assert imports    # the gate does import from the package
    for module, name in imports:
        if module != "ekconst.cli":   # the CLI entry point stays in its module
            assert name in ekconst.__all__, (module, name)


def _function_loads():
    """(module, function, name) for every name a library function loads,
    as a Name or as the attribute of an Attribute; imports, the strings of
    __all__ and docstrings do not count."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    yield path.stem, fn.name, node.id
                elif isinstance(node, ast.Attribute):
                    yield path.stem, fn.name, node.attr


def test_every_public_function_is_reached():
    # a public function stays only where another library function (the CLI
    # included) calls it, the frozen gate imports it, or it is a named
    # entry point; a second route that only tests reach belongs in tests/
    functions = {name: getattr(ekconst, name).__module__.rsplit(".", 1)[-1]
                 for name in ekconst.__all__
                 if inspect.isfunction(getattr(ekconst, name))}
    reached = {name for module, fn, name in _function_loads()
               if name in functions and (module, fn) != (functions[name],
                                                         name)}
    gate = {name for _, name in _acceptance_imports()}
    # the named set lists only functions nothing else reaches
    assert ENTRY_POINTS <= set(functions)
    assert ENTRY_POINTS.isdisjoint(reached | gate)
    unreached = set(functions) - reached - gate - ENTRY_POINTS
    assert unreached == set()
