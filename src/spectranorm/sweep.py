"""Exhaustive bound verification over all order-n graphs.

Runs every registry row on every graph of a given order. The rows only read
graph invariants, so they run on the isomorphism classes, all at once and in
the calling process: the order's class table (`enumeration.class_table`) is
itself the rows' record of its classes, and `BoundRow.run` runs on it as
`check` runs it on a single subject. Labelled counts are sums of orbit
sizes; a canonical sweep counts the representatives alone.

Every (row, parameter) cell is evaluated first, into (cells x classes)
tables that keep only applicability, slack, holds and numeric equality;
no cell keeps its sides once its row has run. Each cell's evaluated,
violation and equality counts are then one product of those tables with
the class weights, and its least slack one masked minimum. The examples
follow, per cell: the first labelled graphs in mask order whose class the
cell flags. An equality example's slack is read off the slack table, and
its verdict is the one `check` gives (`BoundRow.equality_verdict`), taken
once per (cell, class) on a context of the class representative with the
table's spectrum and chromatic number.

Work whose inputs repeat across cells is done once per sweep: the examples
of each distinct set of flagged classes (one `first_members` call and one
graph6 string per mask), each class's context with every structural fact
its detectors read (the complete-multipartite parts, the strongly-regular
parameters and the singular-value profile), and each exponent's power sum
(`bounds._spow`, on this sweep's copy of the table). All of it is local
to the call, except the orbit heads behind the examples, which are kept on
the table for the next sweep (`ClassTable.first_members`).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds
from .enumeration import chunk_quantities, class_table
from .graphs import Graph, write_graph6

_MAX_EXAMPLES = 8


@dataclass
class SweepRowSummary:
    """Aggregate for one (bound, parameter) cell.

    `skipped` counts the graphs a precondition or a non-finite side leaves
    out; equality_count counts numeric equalities (|slack| inside tolerance),
    and each equality example carries the verdict `check` gives.
    """

    bound_id: str
    params: dict
    evaluated: int = 0
    skipped: int = 0
    violations: int = 0
    min_slack: Optional[float] = None
    equality_count: int = 0
    equality_examples: list = field(default_factory=list)
    violation_examples: list = field(default_factory=list)
    skip_reason: Optional[str] = None


def _sweep_chunk(n, p_values, k_values, tol_scale, canonical) -> list[SweepRowSummary]:
    """Every row on every class of order n, as one stack; q's grid is p's."""
    table = chunk_quantities(n)
    table.chi  # solved on the cached table, not on this sweep's copy
    record = copy.copy(table)  # the table's arrays, with a power-sum memo for this sweep
    record.powers = {}
    weight = table.counts(canonical)
    scanned = int(weight.sum())

    @functools.cache
    def context(c):
        one = slice(c, c + 1)
        return bounds.SubjectContext(Graph(n, int(table.reps[c])),
                                     eigs=table.eigs[one], chi=table.chi[one])

    graph6 = functools.cache(lambda mask: write_graph6(Graph(n, mask)))
    by_flags = {}  # flag mask bytes -> (class, graph6) of the first members it flags

    def examples(flags):
        key = flags.tobytes()
        if key not in by_flags:
            by_flags[key] = [(c, graph6(mask)) for c, mask in table.first_members(
                np.flatnonzero(flags), _MAX_EXAMPLES, canonical=canonical)]
        return by_flags[key]

    cells = [(row, params) for row in bounds._ROWS.values()
             for params in bounds._param_grid(row, p_values, None, k_values)]
    app = np.zeros((len(cells), table.size), dtype=bool)
    holds, equal, slack = np.zeros_like(app), np.zeros_like(app), np.zeros(app.shape)
    rows = []
    for i, (row, params) in enumerate(cells):
        app[i], reason, values = row.run(record, params, tol_scale)
        rows.append(SweepRowSummary(row.bound_id, params, skipped=scanned, skip_reason=reason))
        if reason is None:
            slack[i], holds[i], equal[i] = values[3:]
    flags = np.stack([app, app & ~holds, app & equal])
    _, viol, eq = flags
    # one product; einsum casts the flags in buffers, where `@` would copy them all to int64
    evaluated, violations, equalities = np.einsum("fck,k->fc", flags, weight)
    min_slack = np.where(app, slack, np.inf).min(axis=1)

    for i, ((row, params), s) in enumerate(zip(cells, rows)):
        if s.skip_reason is not None:
            continue
        s.evaluated = int(evaluated[i])
        s.skipped = scanned - s.evaluated
        s.violations = int(violations[i])
        s.min_slack = float(min_slack[i])
        s.equality_count = int(equalities[i])
        verdicts = {}  # class -> the verdict its examples share
        for c, g6 in examples(eq[i]):
            if c not in verdicts:
                # every example is a numeric equality: the row's `equal` flagged it
                equality, witness = row.equality_verdict(context(c), params, True)
                verdicts[c] = {"slack": float(slack[i, c]), "equality": equality,
                               "witness": witness}
            s.equality_examples.append({"graph6": g6, **verdicts[c]})
        s.violation_examples = [g6 for _, g6 in examples(viol[i])]
    return rows


@dataclass
class SweepReport:
    n: int
    p_values: tuple
    k_values: tuple
    tol_scale: float
    canonical: bool
    graphs_scanned: int
    total_violations: int
    rows: list


def run_sweep(n: int, p_values=(1.0,), k_values=(1,), *,
              tol_scale: float = 1.0, canonical: bool = False) -> SweepReport:
    """Check every registry row on every order-n graph; fully deterministic."""
    tol_scale = bounds._tol_scale(tol_scale)
    p_values = tuple(float(p) for p in p_values)
    k_values = tuple(int(k) for k in k_values)
    rows = _sweep_chunk(n, p_values, k_values, tol_scale, canonical)
    return SweepReport(
        n=n,
        p_values=p_values,
        k_values=k_values,
        tol_scale=tol_scale,
        canonical=canonical,
        graphs_scanned=int(class_table(n).counts(canonical).sum()),
        total_violations=sum(r.violations for r in rows),
        rows=rows,
    )
