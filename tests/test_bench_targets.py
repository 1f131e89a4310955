"""Tooling test: every function the traced benchmark wraps still exists where
the tracer looks for it, in its owner's own namespace."""

import importlib
import importlib.util
from pathlib import Path

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
