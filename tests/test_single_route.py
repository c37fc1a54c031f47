"""Structure of the library: one process pool, one route to conductor
totals, one exact sum of a float array and one kernel under every exact
sum of an array, one probe route from the CLI, one pass of decomp over the
prime powers, precision known only where the conductor cache is built, one
search of the prime tables.

Every check reads the source of src/ekconst with ast. A name counts where it
is loaded, that is called or passed as a value; imports, the strings of
__all__ and docstrings do not.
"""
import ast
from pathlib import Path

import ekconst

SOURCES = sorted(Path(ekconst.__file__).parent.glob("*.py"))


def _scoped_nodes():
    """(module, qualified name of the enclosing function or class, or
    "<module>", node) for every node of the library's source."""
    def walk(module, node, scope):
        yield module, scope or "<module>", node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            yield from walk(module, child, scope)

    for path in SOURCES:
        yield from walk(path.stem,
                        ast.parse(path.read_text(encoding="utf-8")), "")


def _name(node) -> str | None:
    """The name a Name or an Attribute node loads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_sources_found():
    assert {"ekgamma", "experiments", "decomp"} <= {p.stem for p in SOURCES}


def test_one_function_constructs_the_process_pool():
    sites = {(module, scope) for module, scope, node in _scoped_nodes()
             if isinstance(node, ast.Call)
             and _name(node.func) == "ProcessPoolExecutor"}
    assert sites == {("ekgamma", "_map_chunks")}


def test_conductor_totals_only_reached_through_fill():
    sites = {(module, scope) for module, scope, node in _scoped_nodes()
             if _name(node) == "conductor_totals"}
    assert sites == {("ekgamma", "ConductorCache.fill")}


def test_only_fsum_array_sums_a_tolist():
    # math.fsum(arr.tolist()) is fsum_array's route for short arrays; every
    # other module sums a float array through fsum_array
    sites = {(module, scope) for module, scope, node in _scoped_nodes()
             if isinstance(node, ast.Call) and _name(node.func) == "fsum"
             and any(isinstance(arg, ast.Call)
                     and _name(arg.func) == "tolist" for arg in node.args)}
    assert sites == {("accum", "fsum_array")}


def test_one_exact_sum_kernel():
    # np.frexp and np.bincount run only in accum's kernel, and the one
    # array sum (fixed_sum, which fsum_array rounds) and the segmented sum
    # of the conductor totals both call it
    kernel = {(module, scope) for module, scope, node in _scoped_nodes()
              if isinstance(node, ast.Call)
              and _name(node.func) in {"frexp", "bincount"}}
    assert kernel == {("accum", "_chunk_sums")}
    callers = {(module, scope) for module, scope, node in _scoped_nodes()
               if _name(node) == "_chunk_sums"}
    assert callers == {("accum", "fixed_sum"), ("accum", "fsum_segments")}
    array_sums = {(module, scope) for module, scope, node in _scoped_nodes()
                  if _name(node) == "fixed_sum" and module == "accum"}
    assert array_sums == {("accum", "fsum_array")}


def test_cli_probes_through_the_public_functions():
    # cmd_probe calls eh_probe and residue_sum_checks; the only private name
    # of experiments that cli uses is the _g formatter
    tree = ast.parse(next(p for p in SOURCES if p.stem == "cli")
                     .read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("experiments")
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in imported}
    loaded |= {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and _name(node.value) == "experiments"}
    assert {"eh_probe", "residue_sum_checks"} <= loaded
    assert {name for name in loaded if name.startswith("_")} == {"_g"}


def test_decomp_reads_the_prime_powers_once():
    # every long sum of decomp comes from _prime_power_pass: only it reads
    # the prime-power tables and takes residues, and only the ramified
    # helper reads Lambda at single prime powers
    readers = {"_prefix", "residues", "prime_powers", "prime_power_logs"}
    sites = {(scope, _name(node)) for module, scope, node in _scoped_nodes()
             if module == "decomp"
             and _name(node) in readers | {"_lambda_of"}}
    assert sites == {("_prime_power_pass", "_prefix"),
                     ("_prime_power_pass", "residues"),
                     ("_ramified_powers", "_lambda_of")}


def test_only_the_cache_layers_know_the_depth():
    # the depth of the special functions is a property of the conductor
    # cache: cli builds the cache with it, ekgamma names its tag, and
    # stieltjes evaluates at it; decomp and experiments pass a cache
    depth = {"n_terms", "DEFAULT_EM_TERMS", "precision_tag"}
    modules = {module for module, _, node in _scoped_nodes()
               if isinstance(node, (ast.Name, ast.Attribute))
               and _name(node) in depth}
    assert modules == {"stieltjes", "ekgamma", "cli"}


def test_one_function_searches_the_tables():
    # a needle of another dtype than the uint32 tables makes numpy copy the
    # whole table on every search, so every search goes through the helper
    # that casts it
    sites = {(module, scope) for module, scope, node in _scoped_nodes()
             if _name(node) == "searchsorted"}
    assert sites == {("sieve", "_search")}
