"""One Schatten p-norm: every (sum x_i^p)^(1/p) is `norms.schatten_of` on a record row.

`norms`, `check` and `random` root one power sum by one rule, so they print
the same bits for one quantity, and a sum that passes the double range is
rescaled by the row's largest value instead of being read as 0 or inf, at
any scale of the subject and any exponent.
"""

import math

import numpy as np
import pytest

from spectranorm.asymptotics import run_experiment, sample_gn_half
from spectranorm.bounds import run_registry
from spectranorm.cmatrix import CMatrix
from spectranorm.graphs import complete, paley
from spectranorm.norms import entrywise_norm, schatten_norm

_NOT_FINITE = "a side of the bound is not finite in double precision"
_ROOTED = ["SCHATTEN_P_GE2", "SCHR_LOWER", "POWER_MEAN"]


def _lhs(subject, bound_id, p):
    (chk,) = run_registry(subject, bound_ids=[bound_id], p_values=(p,))
    assert not chk.skipped, chk.skip_reason
    return chk.lhs


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_matrix_norms_are_the_check_lhs_bit_for_bit(p):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = CMatrix.from_array(rng.standard_normal((12, 20))
                               + 1j * rng.standard_normal((12, 20)))
        assert schatten_norm(a, p) == _lhs(a, "SCHATTEN_ABS_MAT", p), seed


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_random_values_are_the_norms_and_check_values_bit_for_bit(p):
    for index, n in enumerate(range(5, 65)):
        (value,) = run_experiment(n, p, 1, seed=index).values
        g = sample_gn_half(n, index)
        assert value == schatten_norm(g, p), n
        if p >= 2.0:
            assert value == _lhs(g, "SCHATTEN_P_GE2", p), n


def _gaussian(scale):
    rng = np.random.default_rng(7)
    return CMatrix.from_array(scale * (rng.standard_normal((4, 6))
                                       + 1j * rng.standard_normal((4, 6))))


def _rooted_sides(a):
    (power_mean,) = run_registry(a, bound_ids=["POWER_MEAN"], p_values=(1.5,), q_values=(2.0,))
    (abs_mat,) = run_registry(a, bound_ids=["SCHATTEN_ABS_MAT"], p_values=(1.5,))
    return np.array([power_mean.lhs, power_mean.rhs, abs_mat.lhs])


def _root_tol(scale):
    """Relative error of a p-th root of a normal sum x near scale^p.

    The root is x ** fl(1/p), whose exponent is off by up to 2^-53 relative;
    x^(1/p) turns that into a relative error of |ln x| 2^-53 / p, about
    |ln scale| eps / 2, beyond the few ulps of the sum itself.
    """
    return np.finfo(float).eps * (4.0 + abs(math.log(scale)) / 2.0)


@pytest.mark.parametrize("scale", [1e-200, 1e-9, 1.0, 1e9, 1e200])
def test_rooted_sides_scale_with_the_matrix(scale):
    # sigma_i^2 of entries near 1e-200 is 0 and of entries near 1e200 is inf,
    # so the q = 2 side is rescaled there, and lands within a few ulps; the
    # p = 1.5 sums stay normal and keep their plain roots
    got, base = _rooted_sides(_gaussian(scale)), _rooted_sides(_gaussian(1.0))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, scale * base, rtol=_root_tol(scale), atol=0.0)
    np.testing.assert_allclose(got[1], scale * base[1], rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_entrywise_norm_is_the_schatten_of_the_moduli(scale):
    # the moduli as one row: the same rule, rescaled at either end of the range
    mods = np.abs(_gaussian(1.0).data)
    for p in (1.0, 1.5, 2.0, 3.0):
        want = scale * float(np.sum(mods**p) ** (1.0 / p))
        assert math.isclose(entrywise_norm(_gaussian(scale), p), want,
                            rel_tol=_root_tol(scale)), p


@pytest.mark.parametrize("graph, p, sigma_1", [(complete(4), 1000.0, 3.0),
                                                (paley(29), 300.0, 14.0)])
def test_rooted_graph_rows_evaluate_past_the_double_range(graph, p, sigma_1):
    # sigma_1^p passes the double range; the rooted rows read the norm sigma_1
    # (1 + sum_(i>1) (sigma_i / sigma_1)^p)^(1/p), which rounds to sigma_1
    checks = {c.bound_id: c for c in run_registry(graph, p_values=(p,), q_values=(p,))}
    for bound_id in _ROOTED:
        assert not checks[bound_id].skipped, bound_id
        assert checks[bound_id].holds, bound_id
    assert checks["SCHATTEN_P_GE2"].lhs == checks["SCHR_LOWER"].lhs == sigma_1
    power_mean = checks["POWER_MEAN"]
    assert power_mean.lhs == power_mean.rhs == graph.n ** (-1.0 / p) * sigma_1
    # the rows whose side is the unrooted sum sigma_i^p still skip
    for bound_id in ("SCHATTEN_EDGES", "KM_MATRIX"):
        assert checks[bound_id].skip_reason == _NOT_FINITE, bound_id
