"""The per-order class table, against independent oracles and a labelled reference.

The reference sweep and search below solve every labelled graph (or every
orbit minimum, found here by trying all relabellings) with the stack
solver, and run the bound rows on them directly; the class-table
`run_sweep` and `extremal` must reproduce them.
"""

import dataclasses
import math
import types
from itertools import permutations

import numpy as np
import pytest

from spectranorm import bounds, enumeration
from spectranorm.enumeration import (
    adjacency_batch,
    class_table,
    enumerate_graphs,
    symmetric_eigenvalues_batch,
)
from spectranorm.graphs import (
    Graph,
    chromatic_number_masks,
    pair_count,
    pair_index,
    pair_list,
    parse_graph6,
    write_graph6,
)
from spectranorm.search import _graph6_order, extremal
from spectranorm.sweep import run_sweep

from test_marking import chunk_quantities, mask_ranges, marking_classes

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


def test_clear_class_tables_makes_the_next_build_cold(monkeypatch):
    before = class_table(5)
    products = []
    images = enumeration._images

    def counted(masks, n):
        products.append(n)
        return images(masks, n)

    monkeypatch.setattr(enumeration, "_images", counted)
    class_table.cache_clear()
    assert class_table(5) is not before
    assert products == []  # the table alone was rebuilt, on cached classes
    enumeration.clear_class_tables()
    again = class_table(5)
    assert sorted(set(products)) == [2, 3, 4, 5]  # every order below was generated again
    assert np.array_equal(again.reps, before.reps)
    assert np.array_equal(again.weights, before.weights)


def test_weights_sum_to_labelled_count_and_divide_n_factorial():
    for n in range(1, 8):
        table = class_table(n)
        assert int(table.weights.sum()) == 1 << pair_count(n)
        assert all(math.factorial(n) % int(w) == 0 for w in table.weights)


def test_table_matches_orbit_marking():
    for n in range(1, 8):
        table = class_table(n)
        reps, weights, _ = marking_classes(n)
        assert np.array_equal(table.reps, reps), n
        assert np.array_equal(table.weights, weights), n


def test_weights_of_each_edge_count_sum_to_a_binomial():
    # the labelled graphs with m edges are the C(C(n,2), m) choices of m pairs
    for n in range(1, 8):
        table = class_table(n)
        for m in range(pair_count(n) + 1):
            assert int(table.weights[table.m == m].sum()) == math.comb(pair_count(n), m), (n, m)


def test_representative_is_its_orbit_minimum():
    for n in range(1, 8):
        table = class_table(n)
        images = _relabelled(table.reps, n)
        assert (images.min(axis=0) == table.reps).all(), n
        # every image lies in the representative's class
        for c in range(table.reps.size):
            assert np.array_equal(table.orbit(c), np.unique(images[:, c])), (n, c)
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
    for chunk in (0, 77, 128, 255):
        lo, hi = ranges[chunk]
        q = chunk_quantities(7, lo, hi, need_chi=True)
        direct = symmetric_eigenvalues_batch(adjacency_batch(q["masks"], 7))
        assert np.abs(q["eigs"] - direct).max() < 1e-12, chunk
        assert (q["m"] == [int(mk).bit_count() for mk in q["masks"]]).all()
        for i, mk in enumerate(q["masks"][:50].tolist()):
            assert q["chi"][i] == chromatic_number_masks(Graph(7, mk).neighbor_masks())


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
    chi = np.array([chromatic_number_masks(Graph(n, int(mk)).neighbor_masks())
                    for mk in masks], dtype=np.int64)
    every = np.ones(masks.size, dtype=bool)
    return types.SimpleNamespace(
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
            app, reason, values = row.run(record, params, 1.0)
            cell = {"evaluated": 0, "skipped": masks.size, "violations": 0,
                    "min_slack": None, "equality_count": 0,
                    "equality_examples": [], "violation_examples": [],
                    "skip_reason": reason}
            if reason is None:
                _, _, _, slack, holds, equal = values
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


def test_sweep_confirms_once_per_cell_and_class(monkeypatch):
    # the row's detector runs once per (row cell, class), on the representative
    calls = []

    def counted(row):
        def detector(ctx, params):
            calls.append((row.bound_id, tuple(params.items()), ctx.graph.mask))
            return row.detector(ctx, params)
        return detector

    for bound_id, row in list(bounds._ROWS.items()):
        if row.detector is not None:
            monkeypatch.setitem(bounds._ROWS, bound_id,
                                dataclasses.replace(row, detector=counted(row)))
    report = run_sweep(6, P_GRID, K_GRID)
    examples = [(cell, ex) for cell, row in enumerate(report.rows)
                for ex in row.equality_examples
                if bounds._ROWS[row.bound_id].detector is not None]
    masks = np.array([parse_graph6(ex["graph6"]).mask for _, ex in examples], dtype=np.int64)
    classes = _relabelled(masks, 6).min(axis=0).tolist()
    verdicts = {}
    for (cell, ex), c in zip(examples, classes):
        row = report.rows[cell]
        verdict = (ex["slack"], ex["equality"], ex["witness"])
        key = (row.bound_id, tuple(row.params.items()), c)
        assert verdicts.setdefault(key, verdict) == verdict, key
    assert sorted(calls) == sorted(verdicts)
    assert len(calls) < len(examples)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("p_values, k_values", [((1.0,), (1,)), (P_GRID, K_GRID)])
def test_rows_on_the_table_match_run_registry_per_class(p_values, k_values):
    # the class table is the rows' record: each class gets, bit for bit, what
    # the single-subject path gives its representative
    for n in range(1, 7):
        table = class_table(n)
        per_class = [bounds.run_registry(Graph(n, rep), p_values=p_values, k_values=k_values)
                     for rep in table.reps.tolist()]
        cells = [(row, params) for row in bounds._ROWS.values()
                 for params in bounds._param_grid(row, p_values, None, k_values)]
        assert all(len(checks) == len(cells) for checks in per_class)
        for i, (row, params) in enumerate(cells):
            # a class's skip reason is its first failed precondition
            reasons = [None] * table.size
            for check in row.applies:
                ok, reason = check(table, params)
                for c in np.flatnonzero(~np.broadcast_to(ok, (table.size,))).tolist():
                    reasons[c] = reasons[c] or reason
            app, reason, values = row.run(table, params, 1.0)
            if reason is None:
                lhs, rhs, _, slack, holds, _ = values
            for c, checks in enumerate(per_class):
                chk, where = checks[i], (n, c, row.bound_id, params)
                assert (chk.bound_id, chk.params) == (row.bound_id, params), where
                assert chk.skip_reason == reasons[c] and chk.skipped == (not app[c]), where
                if app[c]:
                    assert [_bits(chk.lhs), _bits(chk.rhs), _bits(chk.slack)] \
                        == [_bits(lhs[c]), _bits(rhs[c]), _bits(slack[c])], where
                    assert chk.holds == bool(holds[c]), where


@pytest.mark.parametrize("tol_scale", [1.0, 1e3])
@pytest.mark.parametrize("canonical", [False, True])
def test_sweep_examples_match_check_bound_on_their_class(canonical, tol_scale):
    # the sweep reads an example's slack off the row's arrays on the table and
    # runs only the detector; `check_bound` on the class representative's
    # context, spectrum and chi taken from the table, is the oracle
    for n in range(4, 7):
        table = class_table(n)
        report = run_sweep(n, P_GRID, K_GRID, tol_scale=tol_scale, canonical=canonical)
        examples = [(row, ex) for row in report.rows for ex in row.equality_examples]
        masks = np.array([parse_graph6(ex["graph6"]).mask for _, ex in examples], dtype=np.int64)
        reps = _relabelled(masks, n).min(axis=0)
        classes = np.searchsorted(table.reps, reps).tolist()
        assert np.array_equal(table.reps[classes], reps)
        contexts = {}
        for (row, ex), c in zip(examples, classes):
            if c not in contexts:
                one = slice(c, c + 1)
                contexts[c] = bounds.SubjectContext(Graph(n, int(table.reps[c])),
                                                    eigs=table.eigs[one], chi=table.chi[one])
            chk = bounds.check_bound(row.bound_id, contexts[c], tol_scale=tol_scale, **row.params)
            where = (n, row.bound_id, row.params, ex["graph6"])
            assert _bits(ex["slack"]) == _bits(chk.slack), where
            assert ex["equality"] is chk.equality, where
            assert ex["witness"] == chk.equality_witness, where
        assert len(examples) > 100, n


def test_first_members_match_an_uncached_orbit():
    limits = (1, 8, 100, 8, 1)  # the stored heads grow, then serve shorter reads
    for n in range(1, 7):
        table = enumeration.ClassTable(n)  # a table of its own, with no stored heads
        assert table._heads == {}
        orbits = [np.unique(enumeration._images(table.reps[c:c + 1], n)).astype(np.int64)
                  for c in range(table.size)]
        for c, orbit in enumerate(orbits):
            for limit in limits:
                assert table.first_members([c], limit) == [(c, mk) for mk in orbit[:limit].tolist()]
                assert table.first_members([c], limit, canonical=True) == [(c, int(orbit[0]))]
        everything = sorted((mk, c) for c, orbit in enumerate(orbits) for mk in orbit.tolist())
        for limit in limits:
            firsts = table.first_members(range(table.size)[::-1], limit)
            assert firsts == [(c, mk) for mk, c in everything[:limit]], (n, limit)
        assert sorted(table._heads) == list(range(table.size))
        for c, head in table._heads.items():
            # a copy of at most 100 masks, not a view that holds the whole orbit
            assert not head.flags.writeable and head.base is None
            assert np.array_equal(head, orbits[c][:100])
            with pytest.raises(ValueError):
                head[0] = -1


def test_stored_heads_leave_the_sweep_unchanged_and_go_with_the_table():
    first = run_sweep(6, P_GRID, K_GRID)
    assert class_table(6)._heads
    assert run_sweep(6, P_GRID, K_GRID) == first
    enumeration.clear_class_tables()
    assert class_table(6)._heads == {}
    assert run_sweep(6, P_GRID, K_GRID) == first


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
