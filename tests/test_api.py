"""The package's public names: ekconst.__all__ against what it exports
and against what the frozen acceptance gate imports."""
import ast
from collections import Counter
from pathlib import Path

import ekconst

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


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
