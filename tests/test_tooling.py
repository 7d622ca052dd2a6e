"""Checks on the repository's tooling that reads the library from outside."""

import importlib
import importlib.util
from pathlib import Path

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def test_trace_patches_resolve():
    # the benchmark's layer tracer patches these names by lookup, with no
    # default, so a renamed or moved function breaks every traced pass
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    trace_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_layers)
    assert trace_layers.PATCHES
    for module_name, attr, _ in trace_layers.PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
