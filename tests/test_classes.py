"""The per-order class table, against independent oracles and a labelled reference.

The reference sweep and search below solve every labelled graph (or every
orbit minimum, found here by trying all relabellings) with the stack
solver, and run the bound rows on them directly; the class-table
`run_sweep` and `extremal` must reproduce them.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from spectranorm import bounds
from spectranorm.enumeration import (
    adjacency_batch,
    chunk_quantities,
    class_table,
    enumerate_graphs,
    mask_ranges,
    symmetric_eigenvalues_batch,
)
from spectranorm.graphs import (
    Graph,
    chromatic_number_masks,
    neighbor_masks_of,
    pair_count,
    pair_index,
    pair_list,
    parse_graph6,
    write_graph6,
)
from spectranorm.search import _graph6_order, extremal
from spectranorm.sweep import run_sweep

A000088 = [1, 1, 2, 4, 11, 34, 156, 1044]  # graphs on n unlabelled vertices, n = 0..7
P_GRID = (1.0, 1.5, 2.0, 3.0)
K_GRID = (1, 2, 3)


def _relabelled(masks: np.ndarray, n: int) -> np.ndarray:
    """(n!, B) images of the masks under every vertex permutation."""
    out = np.zeros((math.factorial(n), masks.size), dtype=np.int64)
    for i, perm in enumerate(permutations(range(n))):
        for t, (u, v) in enumerate(pair_list(n)):
            out[i] |= ((masks >> t) & 1) << pair_index(perm[u], perm[v])
    return out


def test_class_counts_match_oeis():
    for n in range(1, 8):
        assert class_table(n).reps.size == A000088[n], n


def test_weights_sum_to_labelled_count_and_divide_n_factorial():
    for n in range(1, 8):
        table = class_table(n)
        assert int(table.weights.sum()) == 1 << pair_count(n)
        assert all(math.factorial(n) % int(w) == 0 for w in table.weights)
        assert (table.index >= 0).all()


def test_representative_is_its_orbit_minimum():
    for n in range(1, 8):
        table = class_table(n)
        images = _relabelled(table.reps, n)
        assert (images.min(axis=0) == table.reps).all(), n
        # every image lies in the representative's class
        assert (table.index[images] == np.arange(table.reps.size)).all(), n
        assert np.all(np.diff(table.reps) > 0)


def test_class_spectra_match_graph_atlas():
    nx = pytest.importorskip("networkx")
    by_order: dict[int, list] = {}
    for gx in nx.graph_atlas_g()[1:]:  # entry 0 is the order-0 graph
        a = nx.to_numpy_array(gx, nodelist=sorted(gx.nodes()))
        by_order.setdefault(gx.number_of_nodes(), []).append(np.linalg.eigvalsh(a))
    assert sorted(by_order) == list(range(1, 8))
    for n, spectra in by_order.items():
        table = class_table(n)
        assert table.reps.size == len(spectra), n
        ref = np.round(np.sort(np.array(spectra), axis=1), 6)
        got = np.round(np.sort(table.eigs, axis=1), 6)
        ref = ref[np.lexsort(ref.T[::-1])]
        got = got[np.lexsort(got.T[::-1])]
        assert np.abs(ref - got).max() < 1e-9, n


def test_canonical_enumeration_lists_the_representatives():
    for n in range(1, 6):
        assert [g.mask for g in enumerate_graphs(n, canonical=True)] \
            == class_table(n).reps.tolist()


def test_gathered_order7_quantities_match_a_direct_solve():
    ranges = mask_ranges(7)
    pairs = pair_list(7)
    for chunk in (0, 77, 128, 255):
        lo, hi = ranges[chunk]
        q = chunk_quantities(7, lo, hi, need_chi=True)
        direct = symmetric_eigenvalues_batch(adjacency_batch(q["masks"], 7))
        assert np.abs(q["eigs"] - direct).max() < 1e-12, chunk
        assert (q["m"] == [int(mk).bit_count() for mk in q["masks"]]).all()
        for i, mk in enumerate(q["masks"][:50].tolist()):
            assert q["chi"][i] == chromatic_number_masks(neighbor_masks_of(7, mk, pairs))


def test_graph6_order_key():
    for n in (4, 5):
        masks = np.arange(1 << pair_count(n), dtype=np.int64)
        keys = _graph6_order(masks, n)
        assert (_graph6_order(keys, n) == masks).all()
        by_key = [write_graph6(Graph(n, int(mk))) for mk in masks[np.argsort(keys)]]
        assert by_key == sorted(by_key)


# --- labelled reference ----------------------------------------------------------

def _scanned_masks(n: int, canonical: bool) -> np.ndarray:
    masks = np.arange(1 << pair_count(n), dtype=np.int64)
    if canonical:
        masks = masks[_relabelled(masks, n).min(axis=0) == masks]
    return masks


def _reference_record(n: int, masks: np.ndarray):
    eigs = symmetric_eigenvalues_batch(adjacency_batch(masks, n))
    m = np.array([int(mk).bit_count() for mk in masks], dtype=np.int64)
    pairs = pair_list(n)
    chi = np.array([chromatic_number_masks(neighbor_masks_of(n, int(mk), pairs))
                    for mk in masks], dtype=np.int64)
    every = np.ones(masks.size, dtype=bool)
    return bounds.Quantities(
        size=masks.size, n_rows=n, n_cols=n, eigs=eigs,
        sig=np.sort(np.abs(eigs), axis=1)[:, ::-1], m=m, chi=chi,
        ent1=2.0 * m, ent2_sq=2.0 * m, entinf=(m > 0).astype(float),
        is_graph=every, nonneg=every, zero_one=every,
    )


def _reference_sweep(n, masks, record, p_values, k_values) -> dict:
    def g6(selected):
        return [write_graph6(Graph(n, int(mk))) for mk in selected[:8]]

    cells = {}
    for row in bounds._ROWS.values():
        for params in bounds._param_grid(row, p_values, None, k_values):
            app, reason = row.gate(record, params)
            cell = {"evaluated": 0, "skipped": masks.size, "violations": 0,
                    "min_slack": None, "equality_count": 0,
                    "equality_examples": [], "violation_examples": [],
                    "skip_reason": reason}
            if reason is None:
                _, _, _, slack, holds, equal = row.evaluate(record, params, 1.0)
                viol, eq = app & ~holds, app & equal
                cell.update(
                    evaluated=int(app.sum()), skipped=int((~app).sum()),
                    violations=int(viol.sum()), min_slack=float(slack[app].min()),
                    equality_count=int(eq.sum()),
                    equality_examples=g6(masks[eq]), violation_examples=g6(masks[viol]))
            cells[(row.bound_id, tuple(sorted(params.items())))] = cell
    return cells


@pytest.mark.parametrize("canonical", [False, True])
def test_sweep_matches_labelled_reference(canonical):
    for n in range(1, 6):
        masks = _scanned_masks(n, canonical)
        record = _reference_record(n, masks)
        for p_values, k_values in (((1.0,), (1,)), (P_GRID, K_GRID)):
            ref = _reference_sweep(n, masks, record, p_values, k_values)
            report = run_sweep(n, p_values, k_values, canonical=canonical)
            assert report.graphs_scanned == masks.size
            assert len(report.rows) == len(ref)
            for row in report.rows:
                cell = ref[(row.bound_id, tuple(sorted(row.params.items())))]
                where = (n, row.bound_id, row.params)
                for key in ("evaluated", "skipped", "violations", "equality_count",
                            "skip_reason", "violation_examples"):
                    assert getattr(row, key) == cell[key], (where, key)
                assert [ex["graph6"] for ex in row.equality_examples] \
                    == cell["equality_examples"], where
                if cell["min_slack"] is None:
                    assert row.min_slack is None, where
                else:
                    assert abs(row.min_slack - cell["min_slack"]) <= 1e-12, where


class _NoIndex:
    def __getitem__(self, key):
        raise AssertionError("the sweep read the labelled index")


def test_sweep_never_reads_the_labelled_index(monkeypatch):
    for n, p_values, k_values, canonical in ((6, P_GRID, K_GRID, False),
                                             (5, (1.0,), (1,), True)):
        monkeypatch.setattr(class_table(n), "index", _NoIndex())
        report = run_sweep(n, p_values, k_values, canonical=canonical)
        assert any(row.equality_examples for row in report.rows), n


def test_sweep_confirms_once_per_cell_and_class(monkeypatch):
    calls = []
    check_bound = bounds.check_bound

    def counted(*args, **kwargs):
        calls.append(args[0])
        return check_bound(*args, **kwargs)

    monkeypatch.setattr(bounds, "check_bound", counted)
    report = run_sweep(6, P_GRID, K_GRID)
    examples = [(cell, ex) for cell, row in enumerate(report.rows)
                for ex in row.equality_examples]
    masks = np.array([parse_graph6(ex["graph6"]).mask for _, ex in examples], dtype=np.int64)
    classes = _relabelled(masks, 6).min(axis=0).tolist()
    verdicts = {}
    for (cell, ex), c in zip(examples, classes):
        verdict = (ex["slack"], ex["equality"], ex["witness"])
        assert verdicts.setdefault((cell, c), verdict) == verdict, (report.rows[cell].bound_id, c)
    assert len(calls) == len(verdicts) < len(examples)


def _reference_objectives(n: int, record) -> dict:
    sig, eigs = record.sig, record.eigs
    out = {("SPREAD", None): eigs[:, 0] - eigs[:, -1],
           ("MAX_ENERGY", None): sig.sum(axis=1)}
    for k in K_GRID:
        out[("XI_K", k)] = sig[:, :k].sum(axis=1)
        out[("TAU_K", k)] = eigs[:, :k].sum(axis=1)
    for p in P_GRID:
        out[("MAX_SCHATTEN_P", p)] = (sig**p).sum(axis=1) ** (1.0 / p)
    return out


@pytest.mark.parametrize("canonical", [False, True])
def test_extremal_matches_labelled_reference(canonical):
    for n in range(1, 6):
        masks = _scanned_masks(n, canonical)
        record = _reference_record(n, masks)
        for (objective, param), vals in _reference_objectives(n, record).items():
            best = float(vals.max())
            tied = sorted(write_graph6(Graph(n, int(mk)))
                          for mk in masks[vals >= best - 1e-9])
            rec = extremal(objective, n, param, canonical=canonical)
            where = (n, objective, param)
            assert abs(rec.value - best) <= 1e-12, where
            assert rec.witnesses == tuple(tied[:100]), where
            assert rec.witness_count == len(tied), where
            assert rec.graphs_scanned == masks.size, where
