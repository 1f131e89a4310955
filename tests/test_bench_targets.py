"""Tooling test: every function the traced benchmark wraps still exists where
the tracer looks for it, in its owner's own namespace."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import encdiff

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_an_own_attribute():
    missing = []
    for module_name, path, *_ in _load_tracer().TARGETS:
        owner = importlib.import_module(f"encdiff.{module_name}")
        owner_path, _, attr = path.rpartition(".")
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"trace targets not defined on their owners: {missing}"



RUN_PATH = TRACER_PATH.with_name("run.py")


def _ed_chains(tree: ast.AST) -> set[str]:
    """Each attribute chain rooted at the name `ed`, such as `ed.train.restore`,
    with `()` for each call it reads through: `ed.Tensor().node_id`."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, (ast.Attribute, ast.Call)):
            parts.append("." + node.attr if isinstance(node, ast.Attribute) else "()")
            node = node.value if isinstance(node, ast.Attribute) else node.func
        if parts and parts[-1] != "()" and isinstance(node, ast.Name) and node.id == "ed":
            chains.add("ed" + "".join(reversed(parts)))
    return chains


def _resolves(chain: str) -> bool:
    """Whether chain resolves on the package.  Past a call it goes on only
    from a class, looking its instances' attributes up on the class; a
    function's result is not followed."""
    obj = encdiff
    for part in re.findall(r"\.\w+|\(\)", chain[len("ed"):]):
        if part == "()":
            if not isinstance(obj, type):
                return True
        elif hasattr(obj, part[1:]):
            obj = getattr(obj, part[1:])
        else:
            return False
    return True


def test_every_ed_name_in_the_benchmark_resolves():
    """Every name that perfbench/run.py reads from the package `ed` exists.
    run.py is parsed, not imported: importing it pins the process to one CPU.
    It imports encdiff.train and encdiff.verify itself, so they are imported
    here too."""
    importlib.import_module("encdiff.train")
    importlib.import_module("encdiff.verify")
    chains = _ed_chains(ast.parse(RUN_PATH.read_text(), filename=str(RUN_PATH)))
    assert {"ed.Tensor().node_id", "ed.objective.batch_vloss_graph", "ed.train.restore"} <= chains
    missing = sorted(c for c in chains if not _resolves(c))
    assert not missing, f"names perfbench/run.py reads that the package lacks: {missing}"
