"""Constructors and classifiers for special matrices.

Covers the all-ones matrix, the discrete Fourier transform matrix, Sylvester
Hadamard matrices, Kronecker products, the J - 2A transform of a 0/1 matrix,
plainness, and membership in the Hadamard-type class (constant entry modulus
and A A* = cI, read as every singular value equal). Each matrix family
refuses more than `_KRON_ENTRY_CAP` entries before it allocates. `EQ_TOL`
and `_values_equal` are also the bound registry's one equality rule.
"""

from __future__ import annotations

import numpy as np

from .cmatrix import CMatrix
from .eigen import allones_quotient_modulus, singular_values
from .errors import NotPowerOfTwo, NotZeroOne, PreconditionFailed, SizeOverflow

_KRON_ENTRY_CAP = 10**6
EQ_TOL = 1e-7  # relative band of every equality decision on singular values


def _check_entries(entries: int, what: str) -> None:
    if entries > _KRON_ENTRY_CAP:
        raise SizeOverflow(f"{what} would have {entries} entries (cap {_KRON_ENTRY_CAP})")


def all_ones(m: int, n: int) -> CMatrix:
    if m < 1 or n < 1:
        raise ValueError("all_ones needs positive dimensions")
    _check_entries(m * n, "all_ones")
    return CMatrix.from_array(np.ones((m, n)))


def dft_matrix(n: int) -> CMatrix:
    """n x n discrete Fourier transform matrix, a_kj = exp(2*pi*i*k*j/n)."""
    if n < 1:
        raise ValueError("dft_matrix needs n >= 1")
    _check_entries(n * n, "dft")
    idx = np.arange(n)
    return CMatrix.from_array(np.exp(2j * np.pi * np.outer(idx, idx) / n))


def sylvester_hadamard(order: int) -> CMatrix:
    """+-1 Hadamard matrix of power-of-two order by the doubling construction."""
    if order < 1 or order & (order - 1):
        raise NotPowerOfTwo(f"order must be a power of two, got {order}")
    _check_entries(order * order, "hadamard")
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return CMatrix.from_array(h)


def kronecker(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product; singular values are all pairwise products."""
    _check_entries(a.rows * b.rows * a.cols * b.cols, "product")
    return CMatrix.from_array(np.kron(a.data, b.data))


def _check_zero_one(a: CMatrix) -> None:
    d = a.data
    ok = (np.abs(d.imag) == 0) & ((d.real == 0.0) | (d.real == 1.0))
    if not np.all(ok):
        raise NotZeroOne("matrix entries must all be 0 or 1")


def _complement(d: np.ndarray) -> CMatrix:
    """J - 2D, unchecked."""
    return CMatrix.from_array(np.ones_like(d) - 2.0 * d)


def one_complement(a: CMatrix) -> CMatrix:
    """J - 2A for a 0/1 matrix; the result has entries +-1."""
    _check_zero_one(a)
    return _complement(a.data)


def _values_equal(values: np.ndarray, scale: float) -> bool:
    """Whether the values span at most EQ_TOL (1 + scale)."""
    if values.size <= 1:
        return True
    return float(values.max() - values.min()) <= EQ_TOL * (1.0 + scale)


def _plain_at(a: CMatrix, sigma1: float) -> bool:
    """`is_plain` for a matrix whose sigma_1 is already known."""
    return _values_equal(np.array([allones_quotient_modulus(a), sigma1]), sigma1)


def is_plain(a: CMatrix) -> bool:
    """Whether the all-ones vectors form a top singular pair for A.

    Checked as |<j_m, A j_n>| / sqrt(mn) == sigma_1(A) within a relative
    tolerance; the modulus reading keeps sign-flipped matrices plain.
    """
    return _plain_at(a, float(singular_values(a)[0]))


def _constant_modulus(d: np.ndarray) -> bool:
    """Whether every entry has one common nonzero modulus, within 1e-9 relative."""
    mods = np.abs(d)
    top = float(mods.max())
    return top > 0.0 and float(mods.min()) >= top * (1.0 - 1e-9)


def _had_at(a: CMatrix, sig: np.ndarray) -> bool:
    """`in_had_class` for a matrix whose singular values `sig` are already known."""
    return _constant_modulus(a.data) and _values_equal(sig, float(sig[0]))


def in_had_class(a: CMatrix) -> bool:
    """Membership in Had_{m,n}: constant entry modulus and A A* = cI, every sigma equal.

    Requires m <= n. The zero matrix is rejected: "same modulus" is read as a
    common nonzero modulus, matching the scalar-multiple-of-Hadamard picture.
    """
    if a.rows > a.cols:
        raise PreconditionFailed("Had_{m,n} is defined for m <= n")
    return _had_at(a, singular_values(a).values)
