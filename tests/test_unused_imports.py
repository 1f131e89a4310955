"""Every name a module of the package imports is used in that module, every
import is at module level, and every module-level function and class, and
every method, is used in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_bench_targets import _load_tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "encdiff"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_modules_are_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    """An import inside a function or a block hides a dependency; none is needed
    for an import cycle in this package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert not nested, f"imports not at module level: {', '.join(nested)}"


# module-level functions and classes that nothing in the package calls, each kept
# for a reader outside it
UNREFERENCED_API = {
    "continuous_vloss": "the acceptance gate and the README's library example call it",
    "marginal": "the acceptance gate calls it, and the benchmark's tracer wraps it",
    "sde_step": "the README lists the reverse-SDE step as a package feature",
    "write_idx": "the benchmark writes its IDX workload with it",
}


def _referenced(node: ast.AST) -> set[str]:
    """Names read in node (bare and attribute names) and names it imports, which
    the module must use, perhaps under another name."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_every_function_and_class_is_referenced():
    """A function or class that only tests call is surface the package does not
    need.  A reference inside its own definition, or in __init__.py's exports,
    does not count."""
    defined = {}
    referenced = set()
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = f"{path.name}:{stmt.lineno}"
                names.discard(stmt.name)
            referenced |= names
    unreferenced = sorted(f"{name} ({where})" for name, where in defined.items()
                          if name not in referenced and name not in UNREFERENCED_API)
    assert not unreferenced, f"defined but never used in the package: {', '.join(unreferenced)}"
    stale = sorted(name for name in UNREFERENCED_API if name in referenced or name not in defined)
    assert not stale, f"allowlisted but used in the package or gone: {', '.join(stale)}"


def _reads(node: ast.AST) -> Counter:
    """Each name read in node, bare or as an attribute, with its count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_method_is_referenced():
    """A method that nothing in the package calls is surface the package does not
    need.  Python calls the special methods; the only others kept are the names
    the benchmark's tracer wraps (perfbench/tracer.py's TARGETS), which it needs
    defined.  A read inside the method's own definition does not count."""
    pinned = {path.rpartition(".")[2] for _, path, *_ in _load_tracer().TARGETS}
    reads = Counter()
    methods = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += _reads(tree)
        methods += [(f"{path.name}:{cls.name}.{f.name}", f) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for f in cls.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    unreferenced = sorted(where for where, f in methods
                          if reads[f.name] == _reads(f)[f.name] and f.name not in pinned)
    assert not unreferenced, f"methods never used in the package: {', '.join(unreferenced)}"
