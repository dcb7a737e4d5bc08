"""The scalar eigensolver against numpy at the largest orders `random` samples.

Opt in with SPECTRANORM_SLOW=1. Each order-2000 solve takes seconds, and
the complex one holds a few 64 MB copies of its matrix.
"""

import os

import numpy as np
import pytest

from spectranorm.cmatrix import CMatrix
from spectranorm.eigen import hermitian_eigenvalues

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
