"""The benchmark's trace points name attributes that exist in routelens."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    assert tracing.TRACE_POINTS
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in tracing.TRACE_POINTS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
