"""Batched cyclic Jacobi for stacks of small real symmetric matrices.

Exhaustive sweeps and searches need the spectrum of every isomorphism class
of order <= 8 graphs, up to 12,346 adjacency matrices. Looping the scalar
solver over each one is dominated by interpreter overhead, so this module
applies one cyclic Jacobi schedule to a whole stack at once, with
per-matrix rotation angles. The stack is stored batch-last, as (n, n, B), so
each row or column rotation reads and writes contiguous runs of B values.
Agreement with the scalar solver is covered by tests.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

SWEEP_LIMIT = 100

# Convergence: off-diagonal Frobenius norm below _CONV_TOL * (1 + |M|_2).
_CONV_TOL = 1e-12
_TINY = 1e-150


def _batch_off2(a: np.ndarray) -> np.ndarray:
    # direct off-diagonal sum; subtracting diagonal mass from the total
    # cancels catastrophically near convergence
    sq = a * a
    np.einsum("iib->ib", sq)[:] = 0.0
    return sq.sum(axis=(0, 1))


def symmetric_eigenvalues_batch(mats: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for a (B, n, n) stack of symmetric matrices."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a (B, n, n) stack")
    b, n, _ = mats.shape
    if n == 1:
        return mats[:, 0, 0].reshape(b, 1).copy()
    a = np.ascontiguousarray(mats.transpose(1, 2, 0))

    frob = np.sqrt((a * a).sum(axis=(0, 1)))
    thresh2 = (_CONV_TOL * (1.0 + frob)) ** 2
    skip_cut = float(np.min(np.sqrt(thresh2))) / (2.0 * n)

    rp = np.empty((n, b))
    rq = np.empty((n, b))
    t = np.empty(b)
    tau = np.empty(b)
    c = np.empty(b)
    s = np.empty(b)

    for _ in range(SWEEP_LIMIT):
        if np.all(_batch_off2(a) <= thresh2):
            diag = np.einsum("iib->bi", a)
            return np.sort(diag, axis=1)[:, ::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                amax = np.abs(apq)
                if amax.max() <= skip_cut:
                    continue
                small = amax <= _TINY
                np.divide(a[q, q] - a[p, p],
                          2.0 * np.where(small, 1.0, apq), out=tau)
                np.abs(tau, out=t)
                np.clip(t, 0.0, 1e150, out=t)  # keep tau*tau finite
                np.sqrt(1.0 + t * t, out=c)
                np.add(t, c, out=t)
                np.divide(np.where(tau >= 0, 1.0, -1.0), t, out=t)
                t[small] = 0.0
                np.sqrt(1.0 + t * t, out=c)
                np.reciprocal(c, out=c)
                np.multiply(t, c, out=s)
                np.copyto(rp, a[p])
                np.copyto(rq, a[q])
                np.multiply(c, rp, out=a[p])
                a[p] -= s * rq
                np.multiply(s, rp, out=a[q])
                a[q] += c * rq
                np.copyto(rp, a[:, p])
                np.copyto(rq, a[:, q])
                np.multiply(c, rp, out=a[:, p])
                a[:, p] -= s * rq
                np.multiply(s, rp, out=a[:, q])
                a[:, q] += c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise NoConvergence(
        f"batched Jacobi did not converge in {SWEEP_LIMIT} sweeps (n={n})"
    )
