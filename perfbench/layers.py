"""Per-layer timing by wrapping the names one program module imports from the next.

Nothing in the program changes: while a `Tracer` is installed, each name in
`BOUNDARIES` is replaced in its importing module by a wrapper that records a
span, and the original is put back afterwards. A layer's self time is its
span time minus the time of the spans opened inside it. A name a later
version of the program no longer has is skipped, and its layer reads 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (importing module, name, layer). The importing module looks the name up at
# call time, so replacing it there puts a span around every call across that
# boundary.
BOUNDARIES = [
    ("cli", "main", "cli"),
    ("cli", "load_subject", "fileio"),
    ("cli", "run_sweep", "sweep"),
    ("cli", "extremal", "search"),
    ("cli", "run_experiment", "asymptotics"),
    ("cli", "run_registry", "bounds"),
    ("sweep", "_sweep_chunk", "sweep.chunk"),
    ("sweep", "chunk_quantities", "enumeration"),
    ("search", "_search_chunk", "search.chunk"),
    ("search", "chunk_quantities", "enumeration"),
    ("enumeration", "adjacency_batch", "enumeration.adjacency"),
    ("enumeration", "symmetric_eigenvalues_batch", "batched"),
    ("enumeration", "chromatic_number_masks", "enumeration.chi"),
    # the sweep re-checks its equality examples through `bounds.check_bound`
    ("bounds", "check_bound", "sweep.confirm"),
    ("bounds", "chromatic_number", "graphs.chi"),
    ("bounds", "hermitian_eigenvalues", "eigen.eig"),
    ("bounds", "singular_values", "eigen.svd"),
    ("norms", "hermitian_eigenvalues", "eigen.eig"),
    ("norms", "singular_values", "eigen.svd"),
    ("constructions", "singular_values", "eigen.svd"),
    ("asymptotics", "_eigenvalues_of_hermitian_array", "eigen.eig"),
]


def _batch_size(args, kwargs):
    stack = args[0] if args else next(iter(kwargs.values()))
    return int(stack.shape[0])


_ITEMS = {"batched": _batch_size}


class Tracer:
    """In-memory span totals per layer: time, child time, calls and items."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.missing = []
        self._open = []          # child-time accumulators of the open spans
        self._saved = []

    def self_time(self, layer: str) -> float:
        return self.total[layer] - self.child[layer]

    def _wrap(self, layer: str, fn):
        items = _ITEMS.get(layer)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            acc = [0.0]
            self._open.append(acc)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                self.total[layer] += dt
                self.child[layer] += acc[0]
                self.calls[layer] += 1
                if self._open:
                    self._open[-1][0] += dt
                if items is not None:
                    self.items[layer] += items(args, kwargs)

        return span

    def __enter__(self):
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(f"spectranorm.{module_name}")
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        if self.missing:
            print(f"trace: not found, layer reads 0: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def layer_metrics(self) -> dict:
        """The per-layer metrics this trace yields (pool waits are added by the caller)."""
        return {
            "enumeration.adjacency_s": self.total["enumeration.adjacency"],
            "enumeration.chi_s": self.total["enumeration.chi"],
            "enumeration.chi_calls": self.calls["enumeration.chi"],
            "enumeration.self_s": self.self_time("enumeration"),
            "batched.eig_s": self.total["batched"],
            "batched.graphs": self.items["batched"],
            "sweep.eval_s": self.self_time("sweep.chunk"),
            "sweep.confirm_s": self.total["sweep.confirm"],
            "search.objective_s": self.self_time("search.chunk"),
            "eigen.eig_s": self.total["eigen.eig"],
            "eigen.svd_s": self.total["eigen.svd"],
            "eigen.calls": self.calls["eigen.eig"] + self.calls["eigen.svd"],
            "asymptotics.self_s": self.self_time("asymptotics"),
            "graphs.chi_s": self.total["graphs.chi"],
            "graphs.chi_calls": self.calls["graphs.chi"],
            "bounds.self_s": self.self_time("bounds") + self.self_time("sweep.confirm"),
            "fileio.parse_s": self.total["fileio"],
            "cli.self_s": self.self_time("cli"),
        }
