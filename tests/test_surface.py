"""The public surface the benchmark relies on, and nothing that was deleted.

The benchmark under bench/ reaches the library through `lib.<name>` on the
imported package and through the per-layer function table of its tracer.
Both are read here with ast, without importing or running the benchmark, so
a deletion in the library that would break it fails this suite first. The
library's own source is read the same way, to check that it holds no assert
and that every error class it declares is raised somewhere, and with the
tests, that no module imports a name it never reads. The tests are also read
for names that two of their modules define, and for a module that is named
after no library module.
"""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import tracer_layers

import latdefect
from latdefect.cli import verify as verify_command
from latdefect.enumeration import ForestPlan
from latdefect.reduction import lll_reduce_gram
from latdefect.verify import DEFAULT_RANK_BOUND, DEFAULT_TRIALS

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SOURCES = sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py"))

# Removed helpers that no library caller, command or benchmark reached.
DELETED = {
    "enumeration": ("coset_minimum", "rational_cholesky", "_solve", "_factor", "_columns",
                    "_cleared_vector", "_collapse_signs", "_Scaled", "_Worker",
                    "_require_symmetric", "_exact", "plan_solve"),
    "linalg": ("bareiss_determinant", "rational_rank", "integer_row_kernel", "first_asymmetry",
               "quadratic_value"),
    "lattice": ("is_minimal", "root_graph", "is_bipartite", "RootGraph"),
    "errors": ("NotRootsError", "NotIndependentError", "UnnormalizedSeifertDataError"),
    "glue": ("double", "_doubled_gram", "_restricted_pairings", "_basis2"),
    "defects": ("_halved", "_collapse_pairings"),
    "dinvariant": ("sum_with_homology_spheres", "reverse_pair"),
    "obstruction": ("positive_filling_obstruction", "sphere_filling_obstruction",
                    "definite_verdict", "sphere_definite_verdict", "_both_orientations"),
    "plumbing": ("bad_vertices", "parse_seifert"),
    "formats": ("tree_to_json", "tree_from_json"),
}


def lib_attributes(path: Path) -> set[str]:
    """Every name read as `lib.<name>` in one source file."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    }


def test_bench_sources_are_found():
    names = {path.name for path in BENCH_SOURCES}
    assert {"record_pool.py", "workloads.py", "tracer.py", "test_bench.py"} <= names


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda p: str(p.relative_to(BENCH)))
def test_every_lib_attribute_of_the_benchmark_resolves(path):
    missing = sorted(name for name in lib_attributes(path) if not hasattr(latdefect, name))
    assert missing == []


def test_benchmark_reaches_the_record_pool_names():
    used = set().union(*(lib_attributes(path) for path in BENCH_SOURCES))
    assert {"dual_gram", "gram", "CosetProblem", "shortest_in_coset"} <= used


def test_every_traced_layer_function_resolves():
    layers = tracer_layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"latdefect.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_exports_are_the_layer_functions():
    # the tracer wraps bindings by identity, so an export that is a copy of a
    # traced function, not the function itself, would escape tracing
    exported = [
        (layer, name)
        for layer, names in tracer_layers().items()
        for name in names
        if hasattr(latdefect, name)
    ]
    assert ("dinvariant", "spinc_classes") in exported
    copies = [
        f"{layer}.{name}"
        for layer, name in exported
        if getattr(importlib.import_module(f"latdefect.{layer}"), name) is not getattr(latdefect, name)
    ]
    assert copies == []


def test_all_is_unique_and_resolves():
    duplicates = [name for name, count in Counter(latdefect.__all__).items() if count > 1]
    assert duplicates == []
    assert [name for name in latdefect.__all__ if not hasattr(latdefect, name)] == []
    assert [name for name in latdefect.__all__ if inspect.ismodule(getattr(latdefect, name))] == []


def test_deleted_names_are_gone():
    everywhere = {name for names in DELETED.values() for name in names}
    assert everywhere.isdisjoint(latdefect.__all__)
    assert [name for name in everywhere if hasattr(latdefect, name)] == []
    left = [
        f"{module}.{name}"
        for module, names in DELETED.items()
        for name in names
        if hasattr(importlib.import_module(f"latdefect.{module}"), name)
    ]
    assert left == []
    assert "star_center" not in inspect.signature(latdefect.PlumbingTree).parameters
    assert not hasattr(latdefect.Covector, "pairing_with")
    assert not hasattr(latdefect.Covector, "norm")
    assert not hasattr(latdefect.IntegralLattice, "adjugate")
    assert list(inspect.signature(lll_reduce_gram).parameters) == ["gram"]
    assert {"scale", "minors", "products"}.isdisjoint(ForestPlan._fields)


def test_unread_fields_and_second_names_are_gone():
    # fields nothing read, and public names that repeated dual_gram and
    # discriminant_group; the group's per-lattice cache is private
    assert [f.name for f in dataclasses.fields(latdefect.SpinCClass)] == ["representative"]
    assert "source" not in {f.name for f in dataclasses.fields(latdefect.ConnectedSum)}
    assert "expression" not in {f.name for f in dataclasses.fields(latdefect.DInvariantReport)}
    lat = latdefect.a1_lattice()
    assert not hasattr(lat, "gram_inverse") and not hasattr(lat, "discriminant_group")
    assert latdefect.discriminant_group(lat) is latdefect.discriminant_group(lat)
    assert latdefect.dual_gram(lat) == ((Fraction(1, 2),),)
    # "any" is the one spelling of the unrestricted search
    assert latdefect.min_char_norm(lat, "any").min_norm == 0
    with pytest.raises(ValueError):
        latdefect.min_char_norm(lat, None)
    # one rank_bound and one trials default, for the function and the command
    parameters = inspect.signature(latdefect.verify_suite).parameters
    options = {p.name: p.default for p in verify_command.params}
    assert parameters["rank_bound"].default == options["rank_bound"] == DEFAULT_RANK_BOUND == 8
    assert parameters["trials"].default == options["trials"] == DEFAULT_TRIALS == 100


SOURCE = Path(latdefect.__file__).resolve().parent


def test_every_error_class_is_constructed():
    # an error class that nothing outside errors.py builds is dead taxonomy
    errors = ast.parse((SOURCE / "errors.py").read_text())
    declared = {
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and issubclass(getattr(latdefect, node.name), latdefect.ToolkitError)
    }
    declared.discard("ToolkitError")
    constructed = {
        node.func.id
        for path in SOURCE.glob("*.py")
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert len(declared) > 15
    assert sorted(declared - constructed) == []


def test_library_holds_no_assert():
    # invariants are raised ToolkitErrors, because python -O strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


TESTS = Path(__file__).resolve().parent


def unread_imports(path: Path) -> list[str]:
    """Names one module imports (other than from __future__) and never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted(name for name in bound if name not in read)
    return [f"{path.name}:{bound[name]} {name}" for name in unread]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; every other import must be read
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert len(paths) > 30
    assert [entry for path in paths for entry in unread_imports(path)] == []


def module_level_names(path: Path) -> set[str]:
    """Names one module defines at its top level by def, class or
    assignment, other than its test_* functions."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("test_")}


def test_no_two_test_modules_define_the_same_name():
    # a fixture, oracle or module binding shared by tests lives once, in
    # tests/helpers.py
    owners = {}
    for path in sorted(TESTS.glob("*.py")):
        for name in module_level_names(path):
            owners.setdefault(name, []).append(path.name)
    assert {name: paths for name, paths in owners.items() if len(paths) > 1} == {}


# test modules that check across library modules
CROSS_CUTTING = ("acceptance", "readme", "surface", "work", "formats_cli")
# test modules still named after finished migrations; they keep their names
# (and so their test ids) until their tests are folded into the test module
# of the library module each exercises, and this list only shrinks
MIGRATION_NAMED = ("dense_path", "fraction_free_search", "integer_kernel")


def test_each_test_module_names_a_library_module():
    # the tests of library module m live in test_m.py, so a change to one
    # module's code edits one test module
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    names = sorted(path.stem.removeprefix("test_") for path in TESTS.glob("test_*.py"))
    assert len(names) > len(CROSS_CUTTING)
    assert set(MIGRATION_NAMED) <= set(names)
    others = CROSS_CUTTING + MIGRATION_NAMED
    assert [name for name in names if name not in modules and name not in others] == []
