"""Norm functionals against closed forms and structural identities."""

import math

import numpy as np
import pytest

from spectranorm.cmatrix import CMatrix
from spectranorm.constructions import all_ones, dft_matrix
from spectranorm.enumeration import enumerate_graphs
from spectranorm.graphs import blow_up, complete, complete_multipartite, cycle
from spectranorm.norms import (
    energy,
    entrywise_norm,
    kyfan2_eigen_identity,
    kyfan_norm,
    schatten_norm,
    spectral_norms,
)


def test_energy_k2():
    assert abs(schatten_norm(complete(2), 1) - 2.0) < 1e-12


def test_energy_c5_closed_form():
    # cycle spectrum 2 cos(2 pi j / 5): energy = 2 + 2 sqrt(5)
    assert abs(schatten_norm(cycle(5), 1) - (2 + 2 * math.sqrt(5))) < 1e-10


def test_schatten2_is_sqrt_2m():
    star = complete_multipartite([1, 3])
    assert abs(schatten_norm(star, 2) - math.sqrt(6)) < 1e-10


def test_schatten2_identity_through_norm_engine():
    # exhaustive at order 4, sampled at orders 6 and 7
    from spectranorm.graphs import Graph

    for mask in range(64):
        g = Graph(4, mask)
        assert abs(schatten_norm(g, 2) - math.sqrt(2 * g.num_edges())) < 1e-8
    rng = np.random.default_rng(19)
    for n in (6, 7):
        for mask in rng.integers(0, 1 << (n * (n - 1) // 2), size=60):
            g = Graph(n, int(mask))
            assert abs(schatten_norm(g, 2) - math.sqrt(2 * g.num_edges())) < 1e-8


def test_kyfan_k4():
    assert abs(kyfan_norm(complete(4), 4) - 6.0) < 1e-12


def test_kyfan_rank_one_saturates():
    j = all_ones(3, 5)
    for k in (1, 2, 3, 9):
        assert abs(kyfan_norm(j, k) - math.sqrt(15)) < 1e-9


def test_kyfan_blow_up():
    assert abs(kyfan_norm(blow_up(complete(4), 3), 4) - 18.0) < 1e-7


def test_entrywise():
    assert abs(entrywise_norm(all_ones(2, 3), 1) - 6.0) < 1e-12
    assert abs(entrywise_norm(complete(2), 2) - math.sqrt(2)) < 1e-12
    assert abs(entrywise_norm(dft_matrix(3), math.inf) - 1.0) < 1e-9
    # tiny entries must not underflow to zero when raised to the power p
    tiny = CMatrix.from_array(1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(entrywise_norm(tiny, 2) / (math.sqrt(30.0) * 1e-200) - 1.0) < 1e-12


def test_order_validation():
    with pytest.raises(ValueError):
        schatten_norm(complete(2), 0.5)
    with pytest.raises(ValueError):
        schatten_norm(complete(2), math.inf)
    with pytest.raises(ValueError):
        kyfan_norm(complete(2), 0)
    with pytest.raises(ValueError):
        entrywise_norm(complete(2), 0.9)


def test_energy_alias():
    assert energy(cycle(4)) == schatten_norm(cycle(4), 1)


def test_kyfan2_identity_examples():
    lhs, rhs = kyfan2_eigen_identity(complete(3))
    assert abs(lhs - 3.0) < 1e-9 and abs(rhs - 3.0) < 1e-9
    lhs, rhs = kyfan2_eigen_identity(complete_multipartite([1, 2]))
    assert abs(lhs - 2 * math.sqrt(2)) < 1e-9
    assert abs(rhs - 2 * math.sqrt(2)) < 1e-9
    from spectranorm.graphs import empty_graph

    lhs, rhs = kyfan2_eigen_identity(empty_graph(2))
    assert lhs == 0.0 and rhs == 0.0


def test_kyfan2_identity_exhaustive_n5():
    for g in enumerate_graphs(5):
        lhs, rhs = kyfan2_eigen_identity(g)
        assert abs(lhs - rhs) < 1e-8


def test_power_mean_monotonicity_random():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = rng.integers(1, 5)
        n = rng.integers(m, 7)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        a = CMatrix.from_array(z)
        for p, q in [(1, 2), (1.5, 3), (2, 4), (1, 1.5)]:
            left = m ** (-1 / p) * schatten_norm(a, p)
            right = m ** (-1 / q) * schatten_norm(a, q)
            assert left <= right + 1e-9


def test_kyfan_full_equals_trace_norm():
    rng = np.random.default_rng(12)
    for _ in range(6):
        m = rng.integers(1, 5)
        n = rng.integers(1, 6)
        a = CMatrix.from_array(rng.standard_normal((m, n)))
        assert abs(kyfan_norm(a, min(m, n)) - schatten_norm(a, 1)) < 1e-9


def test_schatten_p_ge2_below_sqrt_2m():
    rng = np.random.default_rng(13)
    from spectranorm.graphs import Graph

    for mask in rng.integers(0, 1 << 15, size=40):
        g = Graph(6, int(mask))
        bound = math.sqrt(2 * g.num_edges())
        for p in (2.0, 2.5, 3.0, 6.0):
            assert schatten_norm(g, p) <= bound + 1e-9


def test_fan_dominance_small():
    from spectranorm.eigen import hermitian_eigenvalues, singular_values

    for g in enumerate_graphs(4):
        mu = hermitian_eigenvalues(g.adjacency_matrix()).values
        sig = singular_values(g.adjacency_matrix()).values
        for k in range(1, g.n + 1):
            assert mu[:k].sum() <= sig[:k].sum() + 1e-9


# --- Schatten norms past the float range of sum sigma^p --------------------------

def test_k4_schatten_at_p_1000_is_about_3():
    # sum sigma_i^1000 = 3^1000 + 3 overflows; the norm itself is 3 (1 + 3^-999)^(1/1000)
    assert schatten_norm(complete(4), 1000) == pytest.approx(3.0, rel=1e-14)


def test_schatten_of_keeps_the_plain_arithmetic_where_the_sum_is_normal():
    from spectranorm.norms import schatten_of

    rng = np.random.default_rng(11)
    sig = np.sort(rng.random((6, 9)) * 5.0, axis=1)[:, ::-1]
    for p in (1.5, 2.0, 3.0, 7.25, 100.0):
        assert np.array_equal(schatten_of(sig, p), (sig**p).sum(axis=1) ** (1.0 / p))
        for row in sig:
            assert float(schatten_of(row, p)) == float(np.sum(row**p) ** (1.0 / p))


@pytest.mark.parametrize("scale", [1e-300, 1e-30, 1.0, 1e30, 1e300])
def test_schatten_of_is_finite_at_any_scale(scale):
    from spectranorm.norms import schatten_of

    # rows: an overflow or an underflow at p = 1000 for most scales, a zero row,
    # and one sigma alone
    sig = scale * np.array([[3.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    got = schatten_of(sig, 1000.0)
    assert np.all(np.isfinite(got))
    assert got[0] == pytest.approx(3.0 * scale, rel=1e-14)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(2.0 * scale, rel=1e-14)


def test_energy_at_a_subnormal_scale_takes_the_scaled_form():
    from spectranorm.eigen import singular_values

    # sum sigma_i is subnormal: p = 1 is sigma_1 sum(sigma_i / sigma_1), as at every other p
    a = np.random.default_rng(20).standard_normal((6, 6))
    m = CMatrix.from_array(1e-310 * a)
    sig = singular_values(m).values
    assert 0.0 < sig.sum() < np.finfo(float).tiny
    top = sig.max()
    assert energy(m) == schatten_norm(m, 1.0) == float(top * (sig / top).sum())
    assert energy(m) == pytest.approx(1e-310 * energy(CMatrix.from_array(a)), rel=1e-12)


def test_kyfan_sum_past_the_double_range_is_inf_without_a_warning():
    # sigma = sqrt(2) 1e308 twice; the pytest setting turns a RuntimeWarning
    # into an error, so the sum must overflow quietly, as schatten_of does
    a = CMatrix.from_array(np.array([[1e308, 1e308], [1e308, -1e308]]))
    schatten, kyfan = spectral_norms(a, [1, 2], [1, 2, 3])
    assert schatten == [math.inf, math.inf]
    assert kyfan[0] == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
    assert kyfan[1:] == [math.inf, math.inf]
    # finite sums keep their bits
    b = CMatrix.from_array(np.array([[3.0, 1.0], [1.0, 2.0]]))
    sig = np.linalg.svd(b.data, compute_uv=False)
    assert spectral_norms(b, [], [1, 2])[1] == pytest.approx([sig[0], sig.sum()], rel=1e-15)
