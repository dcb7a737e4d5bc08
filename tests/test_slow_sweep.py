"""Full order-7 soundness sweep over 2,097,152 labeled graphs, and the order-8 class table.

Opt in with SPECTRANORM_SLOW=1. The order-7 sweep runs on the 1044 class
representatives and takes seconds; the order-8 table (12,346 classes) takes
about 20 s to build by vertex extension, is checked against the
orbit-marking oracle (which needs a 512 MB labelled index and another
20 s), and its chromatic numbers are checked against a scan with no bounds.
The order-8 sweep and searches then run on the whole table in this process.
"""

import os
import time

import pytest

from spectranorm.sweep import run_sweep

pytestmark = pytest.mark.skipif(
    not os.environ.get("SPECTRANORM_SLOW"),
    reason="set SPECTRANORM_SLOW=1 to run the order-7 sweep and the order-8 table",
)


def test_order7_sweep_zero_violations():
    t0 = time.perf_counter()
    report = run_sweep(7, p_values=(1.0, 1.5, 2.0, 3.0), k_values=(1, 2, 3))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 3-full order-7 sweep: "
          f"{'PASS' if report.total_violations == 0 else 'FAIL'} "
          f"({elapsed:.0f}s, {report.graphs_scanned} graphs)")
    assert report.graphs_scanned == 2097152
    assert report.total_violations == 0
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30 min"


def test_order8_class_table():
    import math

    from spectranorm.enumeration import class_table

    table = class_table(8)
    assert table.reps.size == 12346  # OEIS A000088
    assert int(table.weights.sum()) == 1 << 28
    assert all(math.factorial(8) % int(w) == 0 for w in table.weights)


def test_order8_table_matches_orbit_marking():
    import math

    import numpy as np

    from spectranorm.enumeration import class_table
    from test_marking import marking_classes

    table = class_table(8)
    for m in range(29):
        assert int(table.weights[table.m == m].sum()) == math.comb(28, m), m
    reps, weights, _ = marking_classes(8)
    marking_classes.cache_clear()  # its labelled index is 512 MB
    assert np.array_equal(table.reps, reps)
    assert np.array_equal(table.weights, weights)


def test_order8_chi_against_the_plain_decision_scan():
    # reference: the first k from 1 up that the DSATUR decision search accepts,
    # with no clique, independence or coloring bound to start from
    import numpy as np

    from spectranorm.enumeration import class_table
    from spectranorm.graphs import Graph, _k_colorable

    table = class_table(8)
    chi = table.chi[np.arange(table.reps.size)]
    for c, rep in enumerate(table.reps.tolist()):
        adj = Graph(8, rep).neighbor_masks()
        k = 1
        while not _k_colorable(adj, k):
            k += 1
        assert chi[c] == k, rep


def test_order7_sweep_labelled_and_canonical_counts():
    p_values, k_values = (1.0, 1.5, 2.0, 3.0), (1, 2, 3)
    labelled = run_sweep(7, p_values, k_values)
    assert labelled.graphs_scanned == 2097152
    assert labelled.total_violations == 0
    assert all(r.evaluated + r.skipped == 2097152 for r in labelled.rows)
    canonical = run_sweep(7, p_values, k_values, canonical=True)
    assert canonical.graphs_scanned == 1044
    assert canonical.total_violations == 0


def test_order8_sweep_and_searches_on_the_whole_table():
    import numpy as np

    from spectranorm.enumeration import class_table
    from spectranorm.search import compare_spread_vs_f2, extremal

    report = run_sweep(8, p_values=(1.0, 1.5, 2.0, 3.0), k_values=(1, 2, 3))
    assert report.graphs_scanned == 1 << 28
    assert report.total_violations == 0
    record = extremal("MAX_ENERGY", 8)
    assert abs(record.value - 14.3252778628) < 1e-9
    assert record.witness_count == 5040
    assert compare_spread_vs_f2(8).identity_max_gap < 1e-8
    # the sweep solved chi for every class in this process, and kept it
    assert np.all(vars(class_table(8))["chi"] > 0)
