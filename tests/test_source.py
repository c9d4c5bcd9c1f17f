import ast
import collections
import importlib
import importlib.util
import io
import pathlib

import lspacecert
from lspacecert import cli, curves, errors
from lspacecert.certify import verify_certificate
from lspacecert.mcg import homology_action, monodromy_phi, standard_curve_system
from lspacecert.poly import charpoly

from conftest import clear_genus_caches


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so a check that must hold in
    # every run raises a typed error instead
    found = []
    for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _perfbench_tracer():
    """``perfbench/tracer.py``, which wraps package functions by name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_exists():
    # the benchmark wraps its targets by name, so a refactor that renames
    # one fails here, not only in the benchmark's own tests
    missing = []
    for module, name, _ in _perfbench_tracer().TARGETS:
        if not callable(getattr(importlib.import_module(f"lspacecert.{module}"), name, None)):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_benchmark_work_rows_read_the_arguments_they_size():
    # the benchmark sizes spans from positional arguments; a target whose
    # arguments move would size them wrong or not at all
    work = _perfbench_tracer().WORK
    system = standard_curve_system(2)
    b, c = system.betas[-1], system.c
    twisted = curves.dehn_twist(b, c, 3)
    args = (twisted.word,)
    assert work["curves.canonical_form"](args, curves.canonical_form(*args)) == (
        len(twisted), 0
    )
    args = (b.surface, twisted, c)
    out = curves._crossings(*args)
    assert out and work["curves._crossings"](args, out) == (len(twisted) * len(c), len(out))
    args = (b, c, 3)
    assert work["curves.dehn_twist"](args, curves.dehn_twist(*args)) == (len(b), len(twisted))
    # the homology layer: a word of 2g factors, and its action as 2g sparse rows
    for g in (2, 5):
        args = (monodromy_phi(g, 3),)
        rows = homology_action(*args)
        assert work["mcg.homology_action"](args, rows) == (g, 2 * g)
        assert work["poly.charpoly"]((rows,), charpoly(rows)) == (g, 2 * g)


def _named(node):
    """Every name and attribute name read or written under ``node``."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_every_package_function_has_a_caller():
    # library code that only tests use belongs in tests/: each function
    # defined in the package is named elsewhere in it, exported, wrapped by
    # the benchmark or run as a CLI command (by name); Python calls the
    # dunder methods by protocol
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py"))]
    named = collections.Counter(name for tree in trees for name in _named(tree))
    kept = set(lspacecert.__all__) | {name for _, name, _ in _perfbench_tracer().TARGETS}
    unused = [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith(("_cmd_", "__")) or node.name in kept)
        and named[node.name] == _named(node).count(node.name)
    ]
    assert unused == []


def test_the_coasting_decider_has_one_caller_the_walk():
    # every crossing form reads the blocks of one walk, _crossing_blocks, so
    # no form decides coasting rays by a loop of its own
    callers = []
    for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [
            (path.stem, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and "_coasting_blocks" in _named(node)
        ]
    assert callers == [("curves", "_crossing_blocks")]


# raises that may name a builtin exception, by (module, innermost function,
# exception): the text parsers, whose ValueError message the CLI prints after
# "error: " and the tests pin; the expression evaluator's check on its own
# syntax tree; and Python's read-only attribute protocol on a Curve
_BUILTIN_RAISES = {
    ("poly", "parse_poly", "ValueError"),
    ("curves", "_validate_word", "ValueError"),
    ("cli", "_parse_range", "ValueError"),
    ("cli", "_cmd_sweep", "ValueError"),
    ("dsl", "eval_expression", "TypeError"),
    ("curves", "__setattr__", "AttributeError"),
    ("curves", "__delattr__", "AttributeError"),
}


def _raised_names(tree):
    """(innermost enclosing function, raised name, line) for each raise."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            out.append((func, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_package_raises_only_workbench_errors():
    # every refusal is a typed WorkbenchError, which the CLI reports with its
    # type and exit code 1; only the listed raises may name a builtin
    found, allowed = [], set()
    for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, name, line in _raised_names(tree):
            if (path.stem, func, name) in _BUILTIN_RAISES:
                allowed.add((path.stem, func, name))
                continue
            exc = getattr(errors, name, None) if name else None
            if not (isinstance(exc, type) and issubclass(exc, errors.WorkbenchError)):
                found.append(f"{path.name}:{line} {func} raises {name}")
    assert found == []
    assert allowed == _BUILTIN_RAISES  # no stale entry


def _package_caches():
    """Every function with ``cache_clear`` defined in a module of the package,
    by its qualified name."""
    found = {}
    for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "lspacecert" if path.stem == "__init__" else f"lspacecert.{path.stem}"
        )
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) and (
                getattr(value, "__module__", None) == module.__name__
            ):
                found[f"{module.__name__}.{name}"] = value
    return found


def test_clear_genus_caches_empties_every_cache_of_the_package():
    # a cache that fresh_system_caches leaves filled would answer for a build
    # a test patches.  A certificate through the CLI, replayed and verified,
    # and a validation fill every cache found; a new cache they do not reach
    # fails the first check, and one that clear_genus_caches misses fails
    # the last
    caches = _package_caches()
    assert len(caches) >= 5  # surface, system, genus block, psi images, parser
    out = io.StringIO()
    assert cli.main(["certify", "-g", "2", "-n", "1", "--json"], out) == 0
    assert verify_certificate(cli.replay_json(out.getvalue()))
    assert cli.main(["validate", "-g", "2", "-n", "1"], out) == 0
    assert [name for name, f in caches.items() if not f.cache_info().currsize] == []
    clear_genus_caches()
    assert [name for name, f in caches.items() if f.cache_info().currsize] == []
