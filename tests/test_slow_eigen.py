"""The scalar eigensolver and singular values against numpy at large orders.

Opt in with SPECTRANORM_SLOW=1. Each order-2000 solve takes seconds, and
the complex one holds a few 64 MB copies of its matrix; each k = 1000
singular value solve takes a few seconds, most of it the bidiagonalization.
"""

import os

import numpy as np
import pytest

from spectranorm.cmatrix import CMatrix
from spectranorm.eigen import hermitian_eigenvalues, singular_values

pytestmark = pytest.mark.skipif(
    not os.environ.get("SPECTRANORM_SLOW"),
    reason="set SPECTRANORM_SLOW=1 to cross-check the eigensolver at n = 1000 and 2000",
)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [1000, 2000])
def test_hermitian_eigenvalues_against_eigvalsh(n, complex_entries):
    rng = np.random.default_rng(n + complex_entries)
    z = rng.standard_normal((n, n))
    if complex_entries:
        z = z + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    ref = np.linalg.eigvalsh(h)[::-1]
    vals = hermitian_eigenvalues(CMatrix.from_array(h)).values
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("shape, complex_entries", [((1000, 1100), True), ((1100, 1000), False)])
def test_singular_values_against_svd(shape, complex_entries):
    rng = np.random.default_rng(shape[0])
    z = rng.standard_normal(shape)
    if complex_entries:
        z = z + 1j * rng.standard_normal(shape)
    ref = np.linalg.svd(z, compute_uv=False)
    sig = singular_values(CMatrix.from_array(z)).values
    assert np.max(np.abs(sig - ref)) <= 1e-12 * ref[0]
