"""The package's public names: ekconst.__all__ against what it exports,
against what the frozen acceptance gate imports, and against what the
library itself calls; and the public methods of its classes against what
the library and the gate read."""
import ast
import functools
import inspect
import types
from collections import Counter
from pathlib import Path

import ekconst

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
SOURCES = sorted(Path(ekconst.__file__).parent.glob("*.py"))

#: Public functions offered to library users that no library function
#: calls: the residue-class and streaming Chebyshev sums (README).
#: psi_mod_stream is not one: psi_stream calls it.
ENTRY_POINTS = {"psi_mod", "psi_stream"}

#: Public methods of exported classes that neither the library nor the
#: gate reads: the benchmark harness (perfbench/spans.py) wraps
#: ConductorCache.get to count cache hits and misses.
METHOD_ENTRY_POINTS = {("ConductorCache", "get")}


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


def _attribute_reads(path):
    """(function, name) for every attribute the file at path loads, with
    function the innermost enclosing def or None. A read through a private
    attribute (self._data.get), an imported module (os.environ.get) or a
    name the file binds to a container display (counts = {}; counts.get)
    is of another object's member and does not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    displays = (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.DictComp,
                ast.ListComp, ast.SetComp)
    roots |= {target.id for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, displays)
                for target in node.targets if isinstance(target, ast.Name)}

    def foreign(value):
        if isinstance(value, ast.Attribute) and value.attr.startswith("_"):
            return True
        while isinstance(value, ast.Attribute):
            value = value.value
        return isinstance(value, ast.Name) and value.id in roots

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Load)
                    and not foreign(child.value)):
                yield fn, child.attr
            yield from walk(child, fn)
    return list(walk(tree, None))


def _public_methods():
    """(class, name) for every public method, property or cached property
    of each class in __all__."""
    kinds = (types.FunctionType, property, functools.cached_property,
             classmethod, staticmethod)
    return {(name, attr) for name in ekconst.__all__
            if inspect.isclass(cls := getattr(ekconst, name))
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def test_every_public_method_is_read():
    # a public method or property stays only where the library (the CLI
    # included) or the frozen gate reads it, or it is a named entry point;
    # a member that only tests read belongs in tests/. A read inside a def
    # of the same name, the method's own body, does not count.
    methods = _public_methods()
    read = {attr for path in SOURCES for fn, attr in _attribute_reads(path)
            if fn != attr}
    read |= {attr for _, attr in _attribute_reads(ACCEPTANCE)}
    assert METHOD_ENTRY_POINTS <= methods
    assert all(attr not in read for _, attr in METHOD_ENTRY_POINTS)
    unread = {(cls, attr) for cls, attr in methods
              if attr not in read} - METHOD_ENTRY_POINTS
    assert unread == set()
