"""Random-graph sampling, gamma function, predicted norms."""

import json
import math

import numpy as np
import pytest

from spectranorm.asymptotics import (
    _pair_bits,
    gamma_fn,
    predicted_schatten,
    run_experiment,
    sample_gn_half,
    semicircle_constant,
)
from spectranorm.errors import DomainError, TooLarge
from spectranorm.graphs import write_graph6


def test_gamma_known_values():
    assert abs(gamma_fn(1.0) - 1.0) < 1e-12
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi) < 1e-10
    assert abs(gamma_fn(2.5) - 1.3293403881791370) < 1e-9
    for n in range(1, 10):
        assert abs(gamma_fn(n + 1) - math.factorial(n)) <= 1e-10 * math.factorial(n)


def test_gamma_recurrence():
    rng = np.random.default_rng(2)
    for x in rng.uniform(0.1, 29.0, size=40):
        lhs = gamma_fn(x + 1.0)
        rhs = x * gamma_fn(x)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.5)


def test_semicircle_constants():
    assert abs(semicircle_constant(1.0) - 4.0 / (3.0 * math.pi)) < 1e-12
    assert abs(semicircle_constant(2.0) - 0.25) < 1e-12
    assert semicircle_constant(1.0) > semicircle_constant(1.5) > semicircle_constant(2.0)


def test_predicted_schatten():
    assert abs(predicted_schatten(100, 1.0) - (4 / (3 * math.pi)) * 1000.0) < 1e-9
    assert abs(predicted_schatten(100, 2.0) - 100 / math.sqrt(2)) < 1e-12
    assert abs(predicted_schatten(100, 3.0) - 50.0) < 1e-12


def test_sampling_determinism():
    a = sample_gn_half(50, 7)
    b = sample_gn_half(50, 7)
    assert write_graph6(a) == write_graph6(b)
    c = sample_gn_half(50, 8)
    assert a != c
    assert sample_gn_half(50, 7, index=1) != a


@pytest.mark.parametrize("n", [1, 2, 7, 13, 400])
def test_sampled_graph_matches_the_sampled_adjacency(n):
    # C(n, 2) mod 8 is 0, 1, 5, 6 and 0: the packed mask's last byte is partial
    from spectranorm.asymptotics import _sample_adjacency

    for seed, index in ((0, 0), (5, 3)):
        got = sample_gn_half(n, seed, index).adjacency_matrix().data
        want = _sample_adjacency(n, seed, index)
        assert np.array_equal(got.real, want) and not got.imag.any()


def test_sample_order_one():
    g = sample_gn_half(1, 3)
    assert g.n == 1 and g.num_edges() == 0


def test_edge_density_band():
    # binomial concentration: 20 samples at n=200 within a 3-sigma band
    total = 200 * 199 // 2
    dens = [_pair_bits(200, 11, i).sum() / total for i in range(20)]
    mean = sum(dens) / len(dens)
    assert 0.48 <= mean <= 0.52


def test_experiment_determinism_and_fields():
    a = run_experiment(60, 1.0, 2, 5)
    b = run_experiment(60, 1.0, 2, 5)
    assert a == b
    assert a.samples == 2 and len(a.values) == 2
    assert a.stdev >= 0.0


def test_experiment_p2_uses_edge_count():
    stats = run_experiment(40, 2.0, 3, 9)
    for i, v in enumerate(stats.values):
        m = sample_gn_half(40, 9, index=i).num_edges()
        assert v == math.sqrt(2.0 * m)


def test_experiment_coarse_band_small_n():
    # finite-size sanity only; the tight acceptance bands run at n=400
    stats = run_experiment(100, 1.0, 3, 7)
    assert 0.9 <= stats.normalized <= 1.3
    assert all(0.45 <= s <= 0.55 for s in stats.sigma1_over_n)


def test_order_guard():
    with pytest.raises(TooLarge):
        sample_gn_half(2001, 1)
    with pytest.raises(TooLarge):
        run_experiment(2001, 1.0, 1, 1)


@pytest.mark.parametrize("p", [0.0, 0.5, math.nan, math.inf, -math.inf])
def test_experiment_rejects_p_before_sampling(monkeypatch, p):
    from spectranorm import asymptotics

    def drawn(n, seed, index):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "_sample_adjacency", drawn)
    with pytest.raises(DomainError):
        run_experiment(10, p, 1, 1)


@pytest.mark.parametrize("p", ["0", "nan", "inf"])
def test_random_cli_rejects_p(capsys, p):
    from spectranorm.cli import main

    code = main(["random", "--n", "10", "--samples", "1", "--seed", "1", "--p", p,
                 "--format", "json"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and error["type"] == "DomainError"


def test_experiment_determinism_past_the_cache():
    # nothing is kept between calls; a repeat solves every sample again
    for p in (1.0, 2.0, 3.0):
        a = run_experiment(70, p, 2, 13)
        assert run_experiment(70, p, 2, 13) == a


def test_p2_cache_entry_is_not_read_as_a_full_spectrum():
    # p = 2 solves for sigma_1 and sigma_2 only; a later p = 1 call on the
    # same samples must still see the energy
    fresh = run_experiment(50, 1.0, 2, 21)
    p2 = run_experiment(50, 2.0, 2, 21)
    assert run_experiment(50, 1.0, 2, 21) == fresh
    assert p2.sigma1_over_n == fresh.sigma1_over_n
    assert p2.sigma2_over_sqrt_n == fresh.sigma2_over_sqrt_n


def test_p2_diagnostics_match_the_full_solve_at_n20_seed8():
    # lambda_n from the extremes solve once read one ulp off the full solve's
    # here, so sigma_2 / sqrt(n) differed between p = 2 and p = 3; the value
    # is the QL kernel's, which solves this order
    p2 = run_experiment(20, 2.0, 1, 8)
    p3 = run_experiment(20, 3.0, 1, 8)
    assert p2.sigma2_over_sqrt_n == p3.sigma2_over_sqrt_n == (0.9319333136651569,)
    assert p2.sigma1_over_n == p3.sigma1_over_n


def _fixed_adjacency(case):
    from spectranorm.graphs import complete, empty_graph, paley, with_isolated

    g = {"empty": empty_graph(6), "complete": complete(9)}.get(case)
    if g is None:
        # four exact zero eigenvalues; with the isolated vertices first, the
        # count at 0 meets exact zero pivots in its first rows
        g = with_isolated(paley(13), 4)
    a = g.adjacency_matrix().data.real.copy()
    return a[::-1, ::-1].copy() if case == "isolated_first" else a


@pytest.mark.parametrize("case", [1, 2, 3, 40, 400, "empty", "complete", "isolated",
                                  "isolated_first"])
def test_p1_from_the_positive_half_matches_the_full_spectrum(monkeypatch, case):
    from spectranorm import asymptotics

    if isinstance(case, str):
        a = _fixed_adjacency(case)
        monkeypatch.setattr(asymptotics, "_sample_adjacency", lambda n, seed, index: a.copy())
        n, samples = a.shape[0], 1
    else:
        n, samples = case, 3 if case < 400 else 1
    tol = 8 * n * np.finfo(float).eps
    stats = run_experiment(n, 1.0, samples, 17)
    for i in range(samples):
        a = asymptotics._sample_adjacency(n, 17, i)
        full = np.sort(np.abs(asymptotics._eigenvalues_of_hermitian_array(a, "all")))[::-1]
        energy = float(full.sum())
        assert abs(stats.values[i] - energy) <= tol * energy
        # sigma_1 and sigma_2 within the bisection tolerance of the full solve's
        assert stats.sigma1_over_n[i] * n == pytest.approx(full[0], rel=0.0, abs=tol)
        if n > 1:
            sigma2 = stats.sigma2_over_sqrt_n[i] * math.sqrt(n)
            assert sigma2 == pytest.approx(full[1], rel=0.0, abs=tol)


def test_p1_cache_entry_is_not_read_as_a_full_spectrum(monkeypatch):
    # p = 1 solves the upper half of each spectrum; a later p = 3 call on
    # the same samples must still solve for every eigenvalue
    from spectranorm import asymptotics

    fresh = run_experiment(50, 3.0, 2, 21)
    parts, solve = [], asymptotics._eigenvalues_of_hermitian_array

    def recorded(w, part="all"):
        parts.append(part)
        return solve(w, part)

    monkeypatch.setattr(asymptotics, "_eigenvalues_of_hermitian_array", recorded)
    p1 = run_experiment(50, 1.0, 2, 21)
    assert run_experiment(50, 3.0, 2, 21) == fresh
    assert parts == ["positive", "positive", "all", "all"]
    tol = 8 * 50 * np.finfo(float).eps
    assert p1.sigma1_over_n == pytest.approx(fresh.sigma1_over_n, rel=0.0, abs=tol)
    assert p1.sigma2_over_sqrt_n == pytest.approx(fresh.sigma2_over_sqrt_n, rel=0.0, abs=tol)


def test_random_json_is_identical_across_blas_threads():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectranorm

    src = str(Path(spectranorm.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "spectranorm", "random", "--n", "300", "--p", "1",
            "--samples", "1", "--seed", "5", "--format", "json"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert b'"n": 300' in outs[0]
