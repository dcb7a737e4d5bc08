"""Enumeration, extremal search, and the vectorized sweep engine."""

import numpy as np
import pytest

from spectranorm.bounds import run_registry
from spectranorm.enumeration import enumerate_graphs
from spectranorm.errors import TooLarge
from spectranorm.graphs import Graph, complete, write_graph6
from spectranorm.search import compare_spread_vs_f2, extremal
from spectranorm.sweep import run_sweep

from test_marking import chunk_quantities


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    # labeled -> isomorphism classes
    assert sum(1 for _ in enumerate_graphs(3, canonical=True)) == 4
    assert sum(1 for _ in enumerate_graphs(4, canonical=True)) == 11
    assert sum(1 for _ in enumerate_graphs(5, canonical=True)) == 34
    assert sum(1 for _ in enumerate_graphs(6, canonical=True)) == 156
    with pytest.raises(TooLarge):
        next(enumerate_graphs(9))


def test_enumeration_is_increasing_mask_order():
    masks = [g.mask for g in enumerate_graphs(3)]
    assert masks == sorted(masks)


def test_chunk_quantities_match_scalar_solver():
    from spectranorm.eigen import hermitian_eigenvalues
    from spectranorm.graphs import chromatic_number

    q = chunk_quantities(4, 0, 64, need_chi=True)
    for i, mask in enumerate(q["masks"]):
        g = Graph(4, int(mask))
        ref = hermitian_eigenvalues(g.adjacency_matrix()).values
        assert np.max(np.abs(q["eigs"][i] - ref)) < 1e-10
        assert q["m"][i] == g.num_edges()
        assert q["chi"][i] == chromatic_number(g)


def test_xi_k_records():
    rec = extremal("XI_K", 4, 4)
    assert abs(rec.value - 6.0) < 1e-9
    assert rec.witnesses == (write_graph6(complete(4)),)
    assert rec.witness_count == 1
    rec = extremal("XI_K", 5, 1)
    assert abs(rec.value - 4.0) < 1e-9
    assert write_graph6(complete(5)) in rec.witnesses


def test_tau_k_ties():
    rec = extremal("TAU_K", 2, 2)
    assert abs(rec.value) < 1e-12
    assert rec.witness_count == 2  # K_2 and the empty graph both reach 0
    assert set(rec.witnesses) == {"A?", "A_"}


def test_max_energy_record():
    rec = extremal("MAX_ENERGY", 4)
    assert abs(rec.value - 6.0) < 1e-9  # K_4 attains the absolute bound
    assert rec.value <= 4 * (1 + 2.0) / 2 + 1e-9


def test_max_schatten_p_record():
    rec = extremal("MAX_SCHATTEN_P", 4, 3.0)
    # sigma_1 dominates for large p; K_4 gives (27+3)^(1/3)
    assert abs(rec.value - 30.0 ** (1.0 / 3.0)) < 1e-9


def test_max_schatten_p_1000_at_n4_is_k4_alone():
    # sum sigma_i^1000 overflows on 19 of the 64 graphs; the maximum is K4's 3
    rec = extremal("MAX_SCHATTEN_P", 4, 1000.0)
    assert rec.value == pytest.approx(3.0, rel=1e-14)
    assert rec.witnesses == (write_graph6(complete(4)),) and rec.witness_count == 1


def test_tau_le_xi_and_monotonicity():
    xi = {}
    for n in range(2, 6):
        for k in range(1, n + 1):
            xi[(n, k)] = extremal("XI_K", n, k).value
            tau = extremal("TAU_K", n, k).value
            assert tau <= xi[(n, k)] + 1e-9
    for (n, k), v in xi.items():
        if (n, k + 1) in xi:
            assert v <= xi[(n, k + 1)] + 1e-9
        if (n + 1, k) in xi:
            assert v <= xi[(n + 1, k)] + 1e-9


def test_canonical_and_labeled_extrema_agree():
    for n in range(2, 7):
        full = extremal("MAX_ENERGY", n)
        canon = extremal("MAX_ENERGY", n, canonical=True)
        assert abs(full.value - canon.value) < 1e-12
        assert canon.graphs_scanned < full.graphs_scanned or n < 3
    assert abs(extremal("XI_K", 6, 3).value
               - extremal("XI_K", 6, 3, canonical=True).value) < 1e-12


def test_search_thread_determinism():
    a = extremal("XI_K", 5, 2)
    b = extremal("XI_K", 5, 2)
    assert a == b
    assert compare_spread_vs_f2(5) == compare_spread_vs_f2(5)


def test_invalid_objective_params():
    with pytest.raises(ValueError):
        extremal("XI_K", 4)
    with pytest.raises(ValueError):
        extremal("MAX_SCHATTEN_P", 4, 0.5)
    with pytest.raises(ValueError):
        extremal("NOPE", 4)


def test_spread_comparison():
    rep = compare_spread_vs_f2(2)
    assert abs(rep.max_spread - 2.0) < 1e-12
    assert abs(rep.max_kyfan2 - 2.0) < 1e-12
    rep = compare_spread_vs_f2(4)
    assert rep.identity_max_gap < 1e-8
    assert rep.max_spread <= rep.max_kyfan2 + 1e-9  # Fan dominance


def test_sweep_zero_violations_n5():
    rep = run_sweep(5, p_values=(1.0, 1.5, 2.0, 3.0), k_values=(1, 2, 3))
    assert rep.total_violations == 0
    assert rep.graphs_scanned == 1024


def test_sweep_matches_reference_registry_n4():
    """The vectorized sweep agrees with the scalar reference row by row."""
    p_values = (1.0, 1.5, 2.0, 3.0)
    k_values = (1, 2, 3)
    report = run_sweep(4, p_values, k_values)
    # accumulate reference results over all 64 graphs
    ref = {}
    for mask in range(64):
        g = Graph(4, mask)
        for chk in run_registry(g, p_values=p_values, q_values=p_values,
                                k_values=k_values):
            key = (chk.bound_id, tuple(sorted(chk.params.items())))
            slot = ref.setdefault(key, {"evaluated": 0, "skipped": 0,
                                        "min_slack": None, "eq": 0})
            if chk.skipped:
                slot["skipped"] += 1
                continue
            slot["evaluated"] += 1
            if not chk.holds:
                slot.setdefault("violations", 0)
            if slot["min_slack"] is None or chk.slack < slot["min_slack"]:
                slot["min_slack"] = chk.slack
            if abs(chk.slack) <= 1e-7 * (1 + abs(chk.lhs) + abs(chk.rhs)):
                slot["eq"] += 1
    for row in report.rows:
        key = (row.bound_id, tuple(sorted(row.params.items())))
        slot = ref[key]
        assert row.evaluated == slot["evaluated"], key
        assert row.skipped == slot["skipped"], key
        assert row.equality_count == slot["eq"], key
        if row.min_slack is not None:
            assert abs(row.min_slack - slot["min_slack"]) < 1e-10, key


def test_sweep_thread_determinism():
    a = run_sweep(4, (1.0, 2.0), (1, 2))
    b = run_sweep(4, (1.0, 2.0), (1, 2))
    assert a == b


def test_sweep_canonical_mode():
    rep = run_sweep(4, (1.0,), (1,), canonical=True)
    assert rep.graphs_scanned == 11
    assert rep.total_violations == 0

