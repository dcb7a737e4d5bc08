"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `ACCEPTANCE <k> <name>: PASS/FAIL` line (visible
with `pytest -s`). The order-7 soundness sweep has a stated 8-core budget;
this module runs its order-6 fallback, and the full order-7 sweep lives in
test_slow_sweep.py behind the SPECTRANORM_SLOW environment flag.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from spectranorm.asymptotics import gamma_fn, run_experiment, semicircle_constant
from spectranorm.bounds import check_bound, detect_complete_multipartite
from spectranorm.cli import main as cli_main
from spectranorm.constructions import dft_matrix
from spectranorm.eigen import hermitian_eigenvalues
from spectranorm.graphs import (
    Graph,
    blow_up,
    closed_walks,
    complete,
    complete_multipartite,
    cycle,
    paley,
    path,
    write_graph6,
)
from spectranorm.norms import kyfan_norm, schatten_norm
from spectranorm.search import extremal
from spectranorm.sweep import run_sweep

from test_marking import chunk_quantities, mask_ranges


@contextmanager
def _criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - started:.1f}s)")


def _eigs(g: Graph) -> np.ndarray:
    return hermitian_eigenvalues(g.adjacency_matrix()).values


def test_criterion_1_closed_form_spectra():
    with _criterion(1, "closed-form spectra"):
        t0 = time.perf_counter()
        worst = 0.0

        for n in range(2, 11):
            expect = np.array([n - 1.0] + [-1.0] * (n - 1))
            worst = max(worst, np.abs(_eigs(complete(n)) - expect).max())
        for a in range(1, 6):
            for b in range(1, 6):
                got = _eigs(complete_multipartite([a, b]))
                root = math.sqrt(a * b)
                expect = np.array([root] + [0.0] * (a + b - 2) + [-root])
                worst = max(worst, np.abs(got - expect).max())
        for n in range(3, 11):
            expect = np.sort([2 * math.cos(2 * math.pi * j / n) for j in range(n)])[::-1]
            worst = max(worst, np.abs(_eigs(cycle(n)) - expect).max())
        for n in range(1, 11):
            expect = np.sort(
                [2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)])[::-1]
            worst = max(worst, np.abs(_eigs(path(n)) - expect).max())
        for q in (5, 13):
            r = math.sqrt(q)
            expect = np.sort(
                [(q - 1) / 2.0]
                + [(-1 + r) / 2.0] * ((q - 1) // 2)
                + [(-1 - r) / 2.0] * ((q - 1) // 2))[::-1]
            worst = max(worst, np.abs(_eigs(paley(q)) - expect).max())

        elapsed = time.perf_counter() - t0
        assert worst < 1e-8, f"max abs error {worst:g}"
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_2_identity_suite():
    with _criterion(2, "identity suite n<=6 plus n=7 S_2"):
        t0 = time.perf_counter()
        for n in range(1, 7):
            for lo, hi in mask_ranges(n):
                q = chunk_quantities(n, lo, hi)
                sig, eigs, m, masks = q["sig"], q["eigs"], q["m"], q["masks"]
                s2_err = np.abs(np.sqrt((sig**2).sum(axis=1)) - np.sqrt(2.0 * m)).max()
                assert s2_err < 1e-8, f"n={n}: S_2 identity error {s2_err:g}"
                for k in (1, 2, 3):
                    power_sum = (sig ** (2 * k)).sum(axis=1)
                    walks = np.array(
                        [closed_walks(Graph(n, int(mk)), 2 * k) for mk in masks],
                        dtype=float)
                    err = np.abs(power_sum - walks).max()
                    assert err < 1e-6, f"n={n} 2k={2 * k}: walk identity error {err:g}"
                if n >= 2:
                    f2 = sig[:, :2].sum(axis=1)
                    alt = np.maximum(
                        np.abs(eigs[:, 0]) + np.abs(eigs[:, 1]),
                        np.abs(eigs[:, 0]) + np.abs(eigs[:, -1]))
                    assert np.abs(f2 - alt).max() < 1e-8
                assert (np.cumsum(eigs, axis=1)
                        <= np.cumsum(sig, axis=1) + 1e-9).all()
        # order 7, S_2 identity only
        for lo, hi in mask_ranges(7):
            q = chunk_quantities(7, lo, hi)
            err = np.abs(
                np.sqrt((q["sig"]**2).sum(axis=1)) - np.sqrt(2.0 * q["m"])).max()
            assert err < 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


def test_criterion_3_soundness_sweep_order6():
    with _criterion(3, "bound soundness sweep (n=6 fallback)"):
        t0 = time.perf_counter()
        report = run_sweep(6, p_values=(1.0, 1.5, 2.0, 3.0), k_values=(1, 2, 3))
        elapsed = time.perf_counter() - t0
        assert report.graphs_scanned == 32768
        assert report.total_violations == 0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


def test_criterion_4_equality_characterizations():
    with _criterion(4, "equality characterizations n<=6"):
        mismatches = []
        for n in range(1, 7):
            matchings = 0
            for lo, hi in mask_ranges(n):
                q = chunk_quantities(n, lo, hi, need_chi=True)
                sig, eigs, m, chi = q["sig"], q["eigs"], q["m"], q["chi"]
                energy = sig.sum(axis=1)
                mu1 = eigs[:, 0]
                sig1 = sig[:, 0]

                cap_slack = energy - 2.0 * mu1
                cap_tol = 1e-7 * (1.0 + np.abs(energy) + np.abs(2.0 * mu1))
                cap_eq = np.abs(cap_slack) <= cap_tol

                schr_slack = energy - 2.0 * sig1
                schr_tol = 1e-7 * (1.0 + np.abs(energy) + np.abs(2.0 * sig1))
                schr_eq = (np.abs(schr_slack) <= schr_tol) & (m >= 1)

                for i, mask in enumerate(q["masks"]):
                    g = Graph(n, int(mask))
                    parts = detect_complete_multipartite(g)
                    if bool(cap_eq[i]) != (parts is not None):
                        mismatches.append(("CAPOROSSI", n, int(mask)))
                    if m[i] >= 1:
                        detected = parts is not None and len(parts) == chi[i]
                        if bool(schr_eq[i]) != detected:
                            mismatches.append(("SCHR_LOWER", n, int(mask)))

                if n in (2, 4, 6):
                    mc_slack = np.sqrt(2.0 * m * n) - energy
                    mc_tol = 1e-7 * (1.0 + energy + np.sqrt(2.0 * m * n))
                    mc_numeric = np.abs(mc_slack) <= mc_tol
                    for i, mask in enumerate(q["masks"]):
                        g = Graph(n, int(mask))
                        is_matching = g.num_edges() * 2 == n and all(
                            a.bit_count() == 1 for a in g.neighbor_masks())
                        matchings += is_matching
                        if is_matching and not mc_numeric[i]:
                            mismatches.append(("MCCLELLAND-missed", n, int(mask)))
                        if mc_numeric[i]:
                            flag = check_bound("MCCLELLAND", g).equality
                            if flag != is_matching:
                                mismatches.append(("MCCLELLAND", n, int(mask)))
            if n in (2, 4, 6):
                expect_matchings = (math.factorial(n)
                                    // (2 ** (n // 2) * math.factorial(n // 2)))
                assert matchings == expect_matchings, (n, matchings)
        assert not mismatches, f"{len(mismatches)} mismatches: {mismatches[:5]}"


def test_criterion_5_point_values():
    with _criterion(5, "named point values"):
        k4 = complete(4)
        assert abs(kyfan_norm(k4, 4) - 6.0) < 1e-9
        chk = check_bound("KYFAN_01", k4, k=4)
        assert chk.equality
        assert chk.equality_witness["plain"] is True
        assert chk.equality_witness["nonzero_sigma"] == 4

        for t in range(1, 6):
            got = kyfan_norm(blow_up(k4, t), 4)
            assert abs(got - 6.0 * t) < 1e-7, f"t={t}: {got}"
        chk = check_bound("KYFAN_01", blow_up(k4, 3), k=4)
        assert chk.equality and chk.equality_witness["nonzero_sigma"] == 4

        for n in (2, 4, 8):
            got = schatten_norm(dft_matrix(n), 1.0)
            assert abs(got - n ** 1.5) < 1e-9, f"dft({n}): {got}"
            chk = check_bound("SCHATTEN_ABS_MAT", dft_matrix(n), p=1.0)
            assert chk.equality


def test_criterion_6_gamma_constants():
    with _criterion(6, "gamma and semicircle constants"):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi) < 1e-10
        assert abs(semicircle_constant(1.0) - 4.0 / (3.0 * math.pi)) < 1e-12
        assert abs(semicircle_constant(2.0) - 0.25) < 1e-12


def test_criterion_7_monte_carlo():
    with _criterion(7, "Monte Carlo at n=400 (seed 7)"):
        t0 = time.perf_counter()
        s1 = run_experiment(400, 1.0, 5, 7)
        assert 0.92 <= s1.normalized <= 1.08, s1.normalized
        s4 = run_experiment(400, 4.0, 5, 7)
        assert 0.47 <= s4.mean / 400.0 <= 0.53, s4.mean / 400.0
        sigma1 = sum(s1.sigma1_over_n) / len(s1.sigma1_over_n)
        assert 0.48 <= sigma1 <= 0.52, sigma1
        sigma2 = sum(s1.sigma2_over_sqrt_n) / len(s1.sigma2_over_sqrt_n)
        assert 0.8 <= sigma2 <= 1.2, sigma2
        # finite-size trend: deviation from 1 shrinks with n (within slack)
        dev = {n: abs(run_experiment(n, 1.0, 5, 7).normalized - 1.0)
               for n in (100, 200, 400)}
        assert dev[400] <= dev[100] + 0.02, dev
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_criterion_8_extremal_records():
    with _criterion(8, "extremal records"):
        for n in range(1, 7):
            rec = extremal("XI_K", n, 1)
            assert abs(rec.value - (n - 1.0)) < 1e-9, (n, rec.value)
            assert write_graph6(complete(n)) in rec.witnesses
        for n in range(2, 7):
            for k in range(2, n + 1):
                rec = extremal("XI_K", n, k)
                assert rec.value <= 0.5 * (1 + math.sqrt(k)) * n + 1e-7, (n, k)
        for n in range(1, 8):
            rec = extremal("MAX_ENERGY", n)
            assert rec.value <= n * (1 + math.sqrt(n)) / 2.0 + 1e-7, (n, rec.value)
        # byte-identical CLI output across 1, 2, and 8 threads
        import contextlib
        import io

        outputs = []
        for t in ("1", "2", "8"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["search", "--objective", "XI_K", "--n", "5",
                                 "--k", "2", "--threads", t, "--format", "json"])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_9_determinism():
    with _criterion(9, "seeded determinism"):
        a = run_experiment(80, 1.0, 3, 11)
        b = run_experiment(80, 1.0, 3, 11)
        assert a == b
        r1 = extremal("SPREAD", 5)
        r2 = extremal("SPREAD", 5)
        r3 = extremal("SPREAD", 5)
        assert r1 == r2 == r3
        import contextlib
        import io

        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["random", "--n", "60", "--p", "1",
                                 "--samples", "2", "--seed", "5",
                                 "--format", "json"])
            assert code == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
