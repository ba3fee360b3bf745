"""Source hygiene checks on the package modules and their declared numpy
floor, using the stdlib only."""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symcube"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree) | _exported_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


ALLOWED_LOCAL_IMPORTS: set[tuple[str, str, str]] = set()


def _local_imports(tree: ast.Module) -> dict[int, tuple[str, str]]:
    """Line of each import inside a function -> (innermost function, module)."""
    out: dict[int, tuple[str, str]] = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    out[node.lineno] = (func.name, "." * node.level + (node.module or ""))
                elif isinstance(node, ast.Import):
                    out[node.lineno] = (func.name, ",".join(a.name for a in node.names))
    return out


def test_no_function_local_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, (func, module) in sorted(_local_imports(tree).items()):
            if (path.name, func, module) not in ALLOWED_LOCAL_IMPORTS:
                found.append(f"{path.name}:{line} {func}() imports {module}")
    assert not found, "imports inside functions: " + "; ".join(found)


def test_numpy_floor_has_bitwise_count():
    """``np.bitwise_count`` first appeared in numpy 2.0, so a package that
    calls it must declare at least that (read with a regex: Python 3.10 has
    no ``tomllib``)."""
    callers = [p.name for p in MODULES if "np.bitwise_count" in p.read_text()]
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)(?:\.(\d+))?', pyproject)
    assert floor, "pyproject.toml declares no numpy floor"
    version = (int(floor[1]), int(floor[2] or 0))
    assert not callers or version >= (2, 0), (
        f"{', '.join(callers)} call np.bitwise_count, but the floor is numpy {version}"
    )


def _benchmark_bindings() -> tuple[list, tuple]:
    """``FUNCTIONS`` and ``PERM_METHODS`` of the benchmark's layer table,
    read from its source without importing it."""
    path = SRC.parent.parent / "perfbench" / "layers.py"
    values = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "PERM_METHODS"):
                    values[target.id] = ast.literal_eval(node.value)
    return values["FUNCTIONS"], values["PERM_METHODS"]


def test_benchmark_traces_only_names_the_package_has():
    """The benchmark wraps these functions by name, so deleting or renaming
    one must fail here rather than in the benchmark."""
    functions, perm_methods = _benchmark_bindings()
    missing = [
        f"{module}.{name}"
        for module, name, _layer in functions
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    perm_group = importlib.import_module("symcube.perms").PermGroup
    missing += [f"PermGroup.{name}" for name in perm_methods if not hasattr(perm_group, name)]
    assert not missing, "the benchmark traces missing names: " + ", ".join(missing)


def test_package_exports_only_public_names():
    """Every name ``symcube/__init__.py`` re-exports is in the ``__all__``
    of the module it comes from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = ast.parse((SRC / f"{node.module}.py").read_text())
            exported = _exported_names(source)
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not missing, "re-exported but not in __all__: " + ", ".join(missing)


def _table_copies(tree: ast.Module) -> list[int]:
    """Lines that pass a ``.table`` attribute to ``np.array`` or ``np.asarray``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("array", "asarray")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "table"
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "groups.py"], ids=lambda p: p.name
)
def test_only_the_group_module_builds_table_arrays(path):
    """A group's Cayley table is already a read-only array; every module but
    ``groups`` reads it as it is."""
    lines = _table_copies(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} copies a group table into a new array at lines {lines}"


def _paratopy_constructions(tree: ast.Module) -> list[tuple[str, int]]:
    """(innermost function, line) of each call of ``ParatopyElement``."""
    out = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "ParatopyElement"
                ):
                    out.append((func.name, node.lineno))
    return out


def test_paratopies_are_built_by_one_decoder():
    """Symmetries travel as transversal point permutations; only
    ``equivalence._witness_from_point_map`` turns one into a
    ``ParatopyElement``, where the public API returns it."""
    found = [
        f"{path.name}:{line} {func}()"
        for path in MODULES
        for func, line in _paratopy_constructions(ast.parse(path.read_text(), filename=str(path)))
        if (path.name, func) != ("equivalence.py", "_witness_from_point_map")
    ]
    assert not found, "ParatopyElement built outside the decoder: " + "; ".join(found)
