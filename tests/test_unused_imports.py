"""Every name a module of the package imports is used in that module, every
import is at module level, every module-level function and class, and every
method, is used in the package, and every defaulted parameter takes a second
value there."""

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


def _attribute_reads(node: ast.AST) -> Counter:
    """Each name read in node as an attribute, obj.name, with its count."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


# methods that nothing in the package calls, each kept only because the
# benchmark's tracer wraps it by name (perfbench/tracer.py's TARGETS), which
# needs it defined
TRACER_PINNED_METHODS = {
    "IdentityEncoder.encode_dlambda_t": "the tracer wraps every encoder's encode methods",
    "NonTrainableEncoder.encode_dlambda_t": "the tracer wraps every encoder's encode methods",
    "TrainableEncoder.encode_dlambda_t": "the tracer wraps every encoder's encode methods",
    "TrainableEncoder.dy_dlambda_t": "the tracer wraps the trainable encoder's views",
    "TrainableEncoder.y_t": "the tracer wraps the trainable encoder's views",
    "Tensor.reachable_ids": "the tracer counts its calls as graph walks",
}


def test_every_method_is_referenced():
    """A method that nothing in the package calls is surface the package does not
    need.  A method is only ever called as obj.name, so only attribute reads
    count: a local variable of the same name does not.  Python calls the special
    methods; the only others kept are TRACER_PINNED_METHODS, exactly, each of
    which the tracer must still wrap.  A read inside the method's own definition
    does not count."""
    pinned = {path for _, path, *_ in _load_tracer().TARGETS}
    reads = Counter()
    methods = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += _attribute_reads(tree)
        methods += [(path.name, f"{cls.name}.{f.name}", f) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for f in cls.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    unread = {name: module for module, name, f in methods
              if reads[f.name] == _attribute_reads(f)[f.name]}
    unreferenced = sorted(f"{module}:{name}" for name, module in unread.items()
                          if name not in TRACER_PINNED_METHODS)
    assert not unreferenced, f"methods never used in the package: {', '.join(unreferenced)}"
    stale = sorted(name for name in TRACER_PINNED_METHODS
                   if name not in unread or name not in pinned)
    assert not stale, ("allowlisted but used in the package, gone or not traced: "
                       + ", ".join(stale))


# defaulted parameters that no call in the package sets, each kept for a caller outside it
ONE_VALUE_PARAMETERS = {
    "objective.discrete_diffusion_loss.w": "README's weighted-loss example sets the paper's "
                                           "weight w",
    "verify.sde_richardson_oracle.s": "acceptance criterion 10 runs s = 0.37, 0.2 and 0.6",
    "cli.main.argv": "the console script calls main() with none, the tests with theirs",
}


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None, str]]:
    """Each defaulted parameter of fn: its name, its position in a call (None for
    keyword-only; a method's self or cls takes none) and its default's dump."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - bound, ast.dump(default)) for i, (arg, default)
           in enumerate(zip(positional[first:], fn.args.defaults), start=first)]
    return out + [(arg.arg, None, ast.dump(default))
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]


def _callee(call: ast.Call, cls: ast.ClassDef | None) -> str | None:
    """The name a call reaches a definition by: f(...), obj.f(...), a class's
    name for its __init__, and super().__init__(...) for the base class's."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "__init__" and isinstance(func.value, ast.Call) and cls is not None:
        base = cls.bases[0]
        return base.id if isinstance(base, ast.Name) else base.attr
    return func.attr


def _walk_calls(node: ast.AST, cls: ast.ClassDef | None = None):
    """(callee, call) for each call in node, knowing the class it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield _callee(child, cls), child
        yield from _walk_calls(child, child if isinstance(child, ast.ClassDef) else cls)


def test_every_defaulted_parameter_takes_a_second_value():
    """A defaulted parameter that every call in the package leaves at its default,
    or sets to the same literal, is an option with one value in use: a constant.
    A call sets it by keyword or by position; a call of a class's name, or
    super().__init__ in a subclass, sets its __init__'s."""
    params = []  # (callee name, where, parameter, position, default)
    calls = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.stem
        calls += _walk_calls(tree)
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                params += [(fn.name, f"{module}.{fn.name}", *p) for p in _defaulted(fn, False)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                params += [(cls.name if fn.name == "__init__" else fn.name,
                            f"{module}.{cls.name}.{fn.name}", *p)
                           for fn in cls.body if isinstance(fn, ast.FunctionDef)
                           for p in _defaulted(fn, True)]

    def set_by(call: ast.Call, name: str, position: int | None, default: str) -> bool:
        given = [kw.value for kw in call.keywords if kw.arg == name]
        if position is not None and position < len(call.args) \
                and not any(isinstance(a, ast.Starred) for a in call.args[:position + 1]):
            given.append(call.args[position])
        return any(ast.dump(value) != default for value in given)

    one_value = {f"{where}.{name}" for callee, where, name, position, default in params
                 if not any(set_by(call, name, position, default)
                            for c, call in calls if c == callee)}
    unlisted = sorted(one_value - ONE_VALUE_PARAMETERS.keys())
    assert not unlisted, f"parameters with one value in use: {', '.join(unlisted)}"
    stale = sorted(ONE_VALUE_PARAMETERS.keys() - one_value)
    assert not stale, f"allowlisted but set in the package or gone: {', '.join(stale)}"
