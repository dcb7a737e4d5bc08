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


def test_benchmark_layers_lie_on_the_call_path(monkeypatch):
    # a wrapped name the program no longer calls would make its layer read 0
    from spectranorm import enumeration, search, sweep

    calls = []

    def wrap(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((sweep, "chunk_quantities"), (search, "chunk_quantities"),
                         (enumeration, "symmetric_eigenvalues_batch"),
                         (enumeration, "chromatic_number_masks")):
        wrap(module, name)
    enumeration.clear_class_tables()  # a cold build solves the stack and chi
    sweep.run_sweep(5)
    search.extremal("MAX_ENERGY", 5)
    assert set(calls) == {
        "spectranorm.sweep.chunk_quantities",
        "spectranorm.search.chunk_quantities",
        "spectranorm.enumeration.symmetric_eigenvalues_batch",
        "spectranorm.enumeration.chromatic_number_masks",
    }
