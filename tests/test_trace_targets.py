"""The benchmark's tracer patches nuanneal functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import nuanneal

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    missing = []
    for owner, attr, name, _ in _tracing_module().targets(nuanneal):
        # The tracer reads class attributes through __dict__ (so a
        # classmethod stays one) and module attributes through getattr.
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing, "traced call sites missing: " + ", ".join(missing)
