"""Exhaustive extremal search over all labeled graphs of small order.

Objectives:
  XI_K            max Ky Fan k-norm                    (needs k)
  TAU_K           max sum of the k largest eigenvalues (needs k)
  SPREAD          max mu_1 - mu_n
  MAX_ENERGY      max Schatten 1-norm
  MAX_SCHATTEN_P  max Schatten p-norm                  (needs p)

Objectives are graph invariants, so the search evaluates them on the
spectra of the order's class table (`enumeration.class_table`), every class
at once and in the calling process, and keeps the classes within `_TIE_TOL`
of the maximum. A labelled search counts every member of those classes and
lists them in graph6 order, capped at 100; a canonical search counts and
lists the representatives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .enumeration import _mask_bits, chunk_quantities, class_table
from .graphs import Graph, pair_count, write_graph6
from .norms import kyfan_of, schatten_of

OBJECTIVES = ("XI_K", "TAU_K", "SPREAD", "MAX_ENERGY", "MAX_SCHATTEN_P")
# the parameter an objective takes, by name; the others take none
OBJECTIVE_PARAMS = {"XI_K": "k", "TAU_K": "k", "MAX_SCHATTEN_P": "p"}

_TIE_TOL = 1e-9
_WITNESS_CAP = 100


@dataclass(frozen=True)
class SearchRecord:
    objective: str
    n: int
    param: Optional[float]
    value: float
    witnesses: tuple[str, ...]
    witness_count: int
    graphs_scanned: int
    notes: str


def _objective_values(table, objective: str, param) -> np.ndarray:
    n, sig, eigs = table.n, table.sig, table.eigs
    if objective == "XI_K":
        return kyfan_of(sig, int(param))
    if objective == "TAU_K":
        k = min(int(param), n)
        return eigs[:, :k].sum(axis=1)
    if objective == "SPREAD":
        return eigs[:, 0] - eigs[:, -1]
    if objective == "MAX_ENERGY":
        return sig.sum(axis=1)
    if objective == "MAX_SCHATTEN_P":
        return schatten_of(sig, float(param))
    raise ValueError(f"unknown objective {objective!r}")


def _search_chunk(n: int, objective: str, param) -> np.ndarray:
    """The objective on every class of order n, in class order."""
    return _objective_values(chunk_quantities(n), objective, param)


def _graph6_order(masks: np.ndarray, n: int) -> np.ndarray:
    """Masks with their pair bits reversed, which sorts them as graph6 does.

    graph6 writes pair bit 0 first, so for one order its string order is
    the order of the reversed masks. Reversing twice gives the mask back.
    """
    return _mask_bits(masks, n)[:, ::-1] @ (1 << np.arange(pair_count(n)))


def _witnesses(n: int, classes: list, canonical: bool) -> tuple[str, ...]:
    """graph6 strings of the graphs scanned in the given classes, sorted, capped."""
    table = class_table(n)
    if canonical:
        groups = [table.reps[classes]]
    else:
        groups = (table.orbit(c) for c in classes)
    keys = np.concatenate(
        [np.sort(_graph6_order(g, n))[:_WITNESS_CAP] for g in groups])
    masks = _graph6_order(np.sort(keys)[:_WITNESS_CAP], n)
    return tuple(write_graph6(Graph(n, int(mask))) for mask in masks)


def _notes_for(objective: str, n: int, param) -> str:
    if objective in ("XI_K", "TAU_K"):
        k = int(param)
        return f"reference upper line (1+sqrt(k))n/2 = {(1 + math.sqrt(k)) * n / 2.0:.12g}"
    if objective == "SPREAD":
        return f"reference line (2n-1)/sqrt(3) = {(2 * n - 1) / math.sqrt(3.0):.12g}"
    if objective == "MAX_ENERGY":
        return f"reference absolute bound n(1+sqrt(n))/2 = {n * (1 + math.sqrt(n)) / 2.0:.12g}"
    p = float(param)
    if p < 2.0:
        line = (2.0 ** (-p) * n ** (1.0 + p / 2.0) + float(n) ** p) ** (1.0 / p)
        return f"reference upper line (2^-p n^(1+p/2) + n^p)^(1/p) = {line:.12g}"
    return f"reference upper line sqrt(n(n-1)) = {math.sqrt(n * (n - 1.0)):.12g}"


def extremal(objective: str, n: int, param=None, *,
             canonical: bool = False) -> SearchRecord:
    """Exact maximum of an objective over all labeled graphs of order n."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    name = OBJECTIVE_PARAMS.get(objective)
    if name == "k":
        if param is None or int(param) < 1:
            raise ValueError(f"{objective} needs a positive integer k")
        param = int(param)
    elif name == "p":
        if param is None or not 1.0 <= float(param) < math.inf:
            raise ValueError(f"{objective} needs a finite p >= 1")
        param = float(param)
    else:
        param = None

    values = _search_chunk(n, objective, param)
    best = float(values.max())
    tied = np.flatnonzero(values >= best - _TIE_TOL)
    table = class_table(n)
    weights = table.counts(canonical)
    return SearchRecord(
        objective=objective,
        n=n,
        param=param,
        value=best,
        witnesses=_witnesses(n, tied, canonical),
        witness_count=int(weights[tied].sum()),
        graphs_scanned=int(weights.sum()),
        notes=_notes_for(objective, n, param),
    )


@dataclass(frozen=True)
class SpreadComparison:
    n: int
    max_spread: float
    max_kyfan2: float
    spread_witnesses: tuple[str, ...]
    kyfan2_witnesses: tuple[str, ...]
    maxima_coincide: bool
    identity_max_gap: float
    graphs_scanned: int


def compare_spread_vs_f2(n: int) -> SpreadComparison:
    """Max spread vs max Ky Fan 2-norm, plus the per-graph identity check.

    Reports whether the two maxima coincide at this order; nothing is
    asserted (coincidence is only expected for large orders).
    """
    spread = extremal("SPREAD", n)
    xi2 = extremal("XI_K", n, 2 if n >= 2 else 1)
    # the per-graph identity: F2 = max(|mu_1| + |mu_2|, |mu_1| + |mu_n|)
    table = chunk_quantities(n)
    eigs = np.abs(table.eigs)
    f2 = kyfan_of(table.sig, 2)
    alt = np.maximum(eigs[:, 0] + (eigs[:, 1] if n > 1 else 0.0), eigs[:, 0] + eigs[:, -1])
    return SpreadComparison(
        n=n,
        max_spread=spread.value,
        max_kyfan2=xi2.value,
        spread_witnesses=spread.witnesses[:5],
        kyfan2_witnesses=xi2.witnesses[:5],
        maxima_coincide=abs(spread.value - xi2.value) <= _TIE_TOL,
        identity_max_gap=float(np.abs(f2 - alt).max()),
        graphs_scanned=spread.graphs_scanned,
    )
