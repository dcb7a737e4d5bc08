"""Norm functionals: Schatten, Ky Fan, entrywise, energy.

Every function accepts either a CMatrix or a Graph. A graph's singular values
are the moduli of its eigenvalues from the Hermitian solve, sigma_i = |lambda_i|,
as `check`, `sweep`, `search` and `random` read them; a matrix's come from
`singular_values`. Either is held as a one-row record, (1, k), as the bound
rows hold it.

Every (sum_i x_i^p)^(1/p) in the package is `schatten_of` on such (B, k)
rows: the Schatten norms here, in the bound rows, in `search` and in
`random`, and the entrywise norm of the moduli as one (1, mn) row. So one
quantity has the same bits in every command, and a sum that passes the
double range is rescaled by the row's largest value, not read as 0 or inf.
"""

from __future__ import annotations

import math
import operator
from typing import Union

import numpy as np

from .cmatrix import CMatrix
from .eigen import hermitian_eigenvalues, singular_values, symmetric_singular_values
from .graphs import Graph

Subject = Union[CMatrix, Graph]

_TINY = np.finfo(float).tiny  # the smallest normal double


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


def schatten_of(sig: np.ndarray, p: float, total=None) -> np.ndarray:
    """(sum_i sigma_i^p)^(1/p) of each row of a (B, k) record of singular values.

    This is the one place a power sum is rooted. `total` is the rows' sum
    sigma_i^p when the caller has it (`bounds._spow`), else it is formed
    here. Where that sum is a normal double the result is its root, as
    written. On a row whose sum overflows, or is subnormal or 0, while its
    largest value sigma_1 is finite and positive, it is
    sigma_1 (sum (sigma_i / sigma_1)^p)^(1/p), whose sum lies in [1, k]; only
    those rows pay for the rescaling.
    """
    if total is None:
        with np.errstate(over="ignore"):
            total = (sig**p).sum(axis=-1)
    root = total ** (1.0 / p)
    odd = (total < _TINY) | np.isinf(total)
    rows = sig[odd]
    if rows.any():  # an all-zero row, such as the empty graph's, has the root 0
        top = rows.max(axis=-1)
        live = (top > 0.0) & (top < math.inf)
        top, rows = top[live], rows[live]
        with np.errstate(over="ignore"):  # the norm itself may pass the double range
            scaled = top * ((rows / top[:, None]) ** p).sum(axis=-1) ** (1.0 / p)
        root[np.flatnonzero(odd)[live]] = scaled
    return root


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

    The singular values are computed once, whatever the number of orders. A
    graph's are |lambda_i| from one Hermitian solve, kept as the one-row
    record `bounds.SubjectContext.sig` holds; a matrix's are `singular_values`,
    kept as the same one-row record. So sum sigma_i^p and its root take the
    numpy loops of the bound rows and `check`'s bits.
    """
    ps = [_check_schatten_order(p) for p in ps]
    ks = [_check_kyfan_order(k) for k in ks]
    if isinstance(subject, Graph):
        eigs = hermitian_eigenvalues(subject.adjacency_matrix()).values
        sig = symmetric_singular_values(eigs[None, :])
    else:
        sig = singular_values(as_matrix(subject)).values[None, :]
    return [schatten_of(sig, p).item() for p in ps], [kyfan_of(sig, k).item() for k in ks]


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
    """|A|_p = (sum |a_ij|^p)^(1/p), `schatten_of` of the moduli as one row;
    p = inf gives max |a_ij|."""
    mods = np.abs(as_matrix(subject).data)
    if p == math.inf:
        return float(mods.max())
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"entrywise order must be >= 1 or inf, got {p}")
    return schatten_of(mods.reshape(1, -1), p).item()


def kyfan2_eigen_identity(g: Graph) -> tuple[float, float]:
    """Both sides of ||G||_F2 = max(|mu_1| + |mu_2|, |mu_1| + |mu_n|), from one solve.

    By Perron-Frobenius a graph's two largest moduli are |mu_1| and the larger
    of |mu_2| and |mu_n|, so both sides add the same two doubles.
    """
    if not isinstance(g, Graph) or g.n < 2:
        raise ValueError("identity needs a graph on at least 2 vertices")
    mu = hermitian_eigenvalues(g.adjacency_matrix()).values
    lhs = kyfan_of(symmetric_singular_values(mu[None, :]), 2).item()
    rhs = max(abs(mu[0]) + abs(mu[1]), abs(mu[0]) + abs(mu[-1]))
    return lhs, float(rhs)
