"""Norm functionals: Schatten, Ky Fan, entrywise, energy.

Every function accepts either a CMatrix or a Graph; graphs delegate to their
adjacency matrix with no separate code path.
"""

from __future__ import annotations

import math
import operator
from typing import Union

import numpy as np

from .cmatrix import CMatrix
from .eigen import hermitian_eigenvalues, singular_values
from .graphs import Graph

Subject = Union[CMatrix, Graph]


def as_matrix(subject: Subject) -> CMatrix:
    if isinstance(subject, Graph):
        return subject.adjacency_matrix()
    if isinstance(subject, CMatrix):
        return subject
    raise TypeError(f"expected CMatrix or Graph, got {type(subject).__name__}")


def _check_schatten_order(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"Schatten order must be a finite real >= 1, got {p}")
    return p


def _check_kyfan_order(k: int) -> int:
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"Ky Fan order must be a positive integer, got {k}")
    return k


def schatten_of(sig: np.ndarray, p: float) -> np.ndarray:
    """(sum_i sigma_i^p)^(1/p) along the last axis of an array of singular values.

    Where sum sigma_i^p is a normal double, this is that arithmetic as
    written. Where it overflows or underflows, it is sigma_1 (sum (sigma_i /
    sigma_1)^p)^(1/p), as `entrywise_norm` scales, whose sum lies in [1, n].
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = (sig**p).sum(axis=-1)
        top = sig.max(axis=-1, initial=0.0, keepdims=True)
        scaled = top[..., 0] * ((sig / top) ** p).sum(axis=-1) ** (1.0 / p)
    normal = (total >= np.finfo(float).tiny) & (total < math.inf)
    return np.where(normal | (top[..., 0] == 0.0), total ** (1.0 / p), scaled)


def kyfan_of(sig: np.ndarray, k) -> np.ndarray:
    """Sum of the k largest of descending singular values along the last axis: the
    running sum read at min(k, count), for `norms`, `check` and `search` alike. k
    may hold one order per leading index; past the double range the sum is inf."""
    with np.errstate(over="ignore"):
        run = np.cumsum(sig, axis=-1)
    at = np.minimum(k, sig.shape[-1]) - 1
    return run[..., at] if np.ndim(at) == 0 else np.take_along_axis(run, at[..., None], -1)[..., 0]


def spectral_norms(subject: Subject, ps, ks) -> tuple[list[float], list[float]]:
    """Schatten p-norms for each p in ps and Ky Fan k-norms for each k in ks.

    The singular values are computed once, whatever the number of orders.
    """
    ps = [_check_schatten_order(p) for p in ps]
    ks = [_check_kyfan_order(k) for k in ks]
    sig = singular_values(as_matrix(subject)).values
    return [float(schatten_of(sig, p)) for p in ps], [float(kyfan_of(sig, k)) for k in ks]


def schatten_norm(subject: Subject, p: float) -> float:
    """(sum_i sigma_i^p)^(1/p) over all singular values; p = 1 is the energy."""
    return spectral_norms(subject, [p], [])[0][0]


def energy(subject: Subject) -> float:
    """Sum of singular values (trace norm); alias for the Schatten 1-norm."""
    return schatten_norm(subject, 1.0)


def kyfan_norm(subject: Subject, k: int) -> float:
    """Sum of the k largest singular values; k past min(m, n) saturates."""
    return spectral_norms(subject, [], [k])[1][0]


def entrywise_norm(subject: Subject, p: float) -> float:
    """|A|_p = (sum |a_ij|^p)^(1/p); p = inf gives max |a_ij|."""
    mods = np.abs(as_matrix(subject).data)
    if p == math.inf:
        return float(mods.max())
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"entrywise order must be >= 1 or inf, got {p}")
    top = float(mods.max())
    if top == 0.0:
        return 0.0
    # scale by the largest modulus so mods**p neither underflows nor overflows
    return top * float(np.sum((mods / top) ** p) ** (1.0 / p))


def kyfan2_eigen_identity(g: Graph) -> tuple[float, float]:
    """Both sides of ||G||_F2 = max(|mu_1| + |mu_2|, |mu_1| + |mu_n|)."""
    if not isinstance(g, Graph) or g.n < 2:
        raise ValueError("identity needs a graph on at least 2 vertices")
    lhs = kyfan_norm(g, 2)
    mu = hermitian_eigenvalues(g.adjacency_matrix()).values
    rhs = max(abs(mu[0]) + abs(mu[1]), abs(mu[0]) + abs(mu[-1]))
    return lhs, float(rhs)
