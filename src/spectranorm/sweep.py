"""Exhaustive bound verification over all order-n graphs.

Runs every registry row on every graph of a given order. The rows only read
graph invariants, so they run on the class representatives of the order's
class table (`enumeration.class_table`), all at once and in the calling
process: the table's spectra, edge counts and chromatic numbers fill one
`bounds.Quantities` record, and the rows' own array-valued preconditions and
formulas run on it (`check` runs the same definitions on a single subject).
Labelled counts are sums of orbit sizes, and a row's examples are the first
labelled graphs in mask order whose class it flags; a canonical sweep counts
and lists the representatives alone. The equality examples kept are
confirmed through `bounds.check_bound`, which adds the structural detector
verdict, once per (row cell, class): the slack and the detectors read only
class invariants, so the check runs on the class representative, with its
spectrum and chromatic number taken from the table, and every example of
that class gets its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds
from .enumeration import chunk_quantities, class_table
from .graphs import Graph, pair_count, write_graph6

_MAX_EXAMPLES = 8


@dataclass
class SweepRowSummary:
    """Aggregate for one (bound, parameter) cell.

    equality_count counts numeric equalities (|slack| inside tolerance);
    the retained examples additionally carry the single-subject checker's
    detector-gated equality verdict.
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

    def to_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "params": self.params,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "equality_count": self.equality_count,
            "equality_examples": self.equality_examples,
            "violation_examples": self.violation_examples,
            "skip_reason": self.skip_reason,
        }


def _sweep_chunk(n, p_values, q_values, k_values, tol_scale, canonical) -> list[SweepRowSummary]:
    """Every row on every class of order n, as one stack; examples are (class, mask) pairs."""
    table = class_table(n)
    q = chunk_quantities(n, 0, 1 << pair_count(n), need_chi=True, canonical=True)
    classes, m = q["classes"], q["m"]
    weight = table.counts(canonical)
    scanned = int(weight.sum())
    every = np.ones(classes.size, dtype=bool)
    # a graph's adjacency matrix is square, 0/1 and nonnegative, with
    # |A|_1 = |A|_2^2 = 2m and |A|_inf = 1 unless it has no edge
    record = bounds.Quantities(
        size=classes.size, n_rows=n, n_cols=n, sig=q["sig"], eigs=q["eigs"],
        m=m, chi=q["chi"], ent1=2.0 * m, ent2_sq=2.0 * m,
        entinf=(m > 0).astype(float), is_graph=every, nonneg=every, zero_one=every,
    )
    rows = []
    for row in bounds._ROWS.values():
        for params in bounds._param_grid(row, p_values, q_values, k_values):
            app, reason = row.gate(record, params)
            s = SweepRowSummary(row.bound_id, params, skipped=scanned, skip_reason=reason)
            rows.append(s)
            if reason is not None:
                continue
            _, _, _, slack, holds, equal = row.evaluate(record, params, tol_scale)
            viol = app & ~holds
            eq = app & equal
            s.evaluated = int(weight[app].sum())
            s.skipped = scanned - s.evaluated
            s.violations = int(weight[viol].sum())
            s.min_slack = float(slack[app].min())
            s.equality_count = int(weight[eq].sum())
            # the examples are the first flagged graphs in mask order
            s.equality_examples = table.first_members(classes[eq], _MAX_EXAMPLES,
                                                      canonical=canonical)
            s.violation_examples = table.first_members(classes[viol], _MAX_EXAMPLES,
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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p_values": list(self.p_values),
            "k_values": list(self.k_values),
            "tol_scale": self.tol_scale,
            "canonical": self.canonical,
            "graphs_scanned": self.graphs_scanned,
            "total_violations": self.total_violations,
            "rows": [r.to_dict() for r in self.rows],
        }


def run_sweep(n: int, p_values=(1.0,), k_values=(1,), *, q_values=None,
              tol_scale: float = 1.0, canonical: bool = False) -> SweepReport:
    """Check every registry row on every order-n graph; fully deterministic."""
    p_values = tuple(float(p) for p in p_values)
    k_values = tuple(int(k) for k in k_values)
    rows = _sweep_chunk(n, p_values, q_values, k_values, tol_scale, canonical)

    # one context per class, on its representative, with the table's spectrum
    # and chromatic number; the examples of a class share its verdict
    table = class_table(n)
    contexts: dict[int, bounds.SubjectContext] = {}
    for s in rows:
        verdicts = {}
        for c in dict.fromkeys(c for c, _ in s.equality_examples):
            if c not in contexts:
                ctx = contexts[c] = bounds.SubjectContext(Graph(n, int(table.reps[c])))
                one = np.array([c])
                ctx.eigs, ctx.chi = table.eigs[one], table.chi(one)
            chk = bounds.check_bound(s.bound_id, contexts[c], tol_scale=tol_scale, **s.params)
            verdicts[c] = {"slack": chk.slack, "equality": chk.equality,
                           "witness": chk.equality_witness}
        s.equality_examples = [{"graph6": write_graph6(Graph(n, mask)), **verdicts[c]}
                               for c, mask in s.equality_examples]
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
