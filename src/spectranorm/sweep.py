"""Exhaustive bound verification over all order-n graphs.

Runs every registry row on every graph of a given order. The rows only read
graph invariants, so they run on the isomorphism classes, all at once and in
the calling process: the order's class table (`enumeration.class_table`) is
itself the rows' record of its classes, and the rows' own array-valued
preconditions and formulas run on it (`check` runs the same definitions on a
single subject).
Labelled counts are sums of orbit sizes, and a row's examples are the first
labelled graphs in mask order whose class it flags; a canonical sweep counts
and lists the representatives alone. An equality example's slack is read
off the row's own arrays on the table, so no row is evaluated twice, and its
verdict is the one `check` gives (`BoundRow.equality_verdict`). The slack
and the detectors read only class invariants, so the row's structural
detector runs once per (row cell, class), on the class representative, with
its spectrum and chromatic number taken from the table, and every example of
that class gets its verdict.
"""

from __future__ import annotations

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

    equality_count counts numeric equalities (|slack| inside tolerance);
    the retained examples additionally carry the detector-gated equality
    verdict that the single-subject checker gives.
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


def _sweep_chunk(n, p_values, q_values, k_values, tol_scale, canonical) -> list[SweepRowSummary]:
    """Every row on every class of order n, as one stack.

    Equality examples are (class, mask, slack) and violation examples
    (class, mask); `run_sweep` gives them their verdicts and graph6 strings.
    """
    table = chunk_quantities(n)
    weight = table.counts(canonical)
    scanned = int(weight.sum())
    rows = []
    for row in bounds._ROWS.values():
        for params in bounds._param_grid(row, p_values, q_values, k_values):
            app, reason = row.gate(table, params)
            s = SweepRowSummary(row.bound_id, params, skipped=scanned, skip_reason=reason)
            rows.append(s)
            if reason is not None:
                continue
            _, _, _, slack, holds, equal = row.evaluate(table, params, tol_scale)
            viol = app & ~holds
            eq = app & equal
            s.evaluated = int(weight[app].sum())
            s.skipped = scanned - s.evaluated
            s.violations = int(weight[viol].sum())
            s.min_slack = float(slack[app].min())
            s.equality_count = int(weight[eq].sum())
            # the examples are the first flagged graphs in mask order
            s.equality_examples = [
                (c, mask, float(slack[c]))
                for c, mask in table.first_members(np.flatnonzero(eq), _MAX_EXAMPLES,
                                                   canonical=canonical)]
            s.violation_examples = table.first_members(np.flatnonzero(viol), _MAX_EXAMPLES,
                                                       canonical=canonical)
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


def run_sweep(n: int, p_values=(1.0,), k_values=(1,), *, q_values=None,
              tol_scale: float = 1.0, canonical: bool = False) -> SweepReport:
    """Check every registry row on every order-n graph; fully deterministic."""
    tol_scale = bounds._tol_scale(tol_scale)
    p_values = tuple(float(p) for p in p_values)
    k_values = tuple(int(k) for k in k_values)
    rows = _sweep_chunk(n, p_values, q_values, k_values, tol_scale, canonical)

    # one context per class, on its representative, with the table's spectrum
    # and chromatic number; the examples of a class share its verdict
    table = class_table(n)
    contexts: dict[int, bounds.SubjectContext] = {}
    for s in rows:
        row = bounds._ROWS[s.bound_id]
        verdicts = {}
        for c, _, slack in s.equality_examples:
            if c in verdicts:
                continue
            if c not in contexts:
                one = slice(c, c + 1)
                contexts[c] = bounds.SubjectContext(Graph(n, int(table.reps[c])),
                                                    eigs=table.eigs[one], chi=table.chi[one])
            # every example is a numeric equality: the row's `equal` flagged it
            equality, witness = row.equality_verdict(contexts[c], s.params, True)
            verdicts[c] = {"slack": slack, "equality": equality, "witness": witness}
        s.equality_examples = [{"graph6": write_graph6(Graph(n, mask)), **verdicts[c]}
                               for c, mask, _ in s.equality_examples]
        s.violation_examples = [write_graph6(Graph(n, mask)) for _, mask in s.violation_examples]

    return SweepReport(
        n=n,
        p_values=p_values,
        k_values=k_values,
        tol_scale=tol_scale,
        canonical=canonical,
        graphs_scanned=int(table.counts(canonical).sum()),
        total_violations=sum(r.violations for r in rows),
        rows=rows,
    )
