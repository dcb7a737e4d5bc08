"""The benchmark's per-layer trace wraps program names; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    # no bytecode is written next to the benchmark's files
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_boundary_resolves():
    boundaries = _load_layers().BOUNDARIES
    assert boundaries
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer in boundaries
        if not hasattr(importlib.import_module(f"spectranorm.{module}"), attr)
    ]
    assert missing == []
