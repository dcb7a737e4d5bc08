"""Eigensolver and singular value unit tests plus randomized cross-checks."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import spectranorm
from spectranorm import eigen
from spectranorm.cmatrix import CMatrix
from spectranorm.constructions import all_ones, dft_matrix, sylvester_hadamard
from spectranorm.eigen import (
    EigenSpectrum,
    SingularSpectrum,
    hermitian_eigenvalues,
    rayleigh_allones,
    singular_values,
    symmetric_eigenvalues_batch,
)
from spectranorm.errors import NoConvergence, NonRealRayleigh, NotHermitian
from spectranorm.graphs import blow_up, complete
from spectranorm.norms import schatten_norm


def test_k2_eigenvalues():
    spec = hermitian_eigenvalues(complete(2).adjacency_matrix())
    assert np.allclose(spec.values, [1.0, -1.0], atol=1e-12)


def test_two_i_minus_j_eigenvalues():
    m = CMatrix.from_array(2 * np.eye(4) - np.ones((4, 4)))
    spec = hermitian_eigenvalues(m)
    assert np.allclose(spec.values, [2.0, 2.0, 2.0, -2.0], atol=1e-12)


def test_zero_matrix_eigenvalues():
    m = CMatrix.from_array(np.zeros((5, 5)))
    assert np.allclose(hermitian_eigenvalues(m).values, 0.0)


def test_not_hermitian_raises():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(CMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(all_ones(2, 3))


def test_not_hermitian_messages():
    # the single-matrix entry point names no lane; the stack names the first bad one
    with pytest.raises(NotHermitian, match="^matrix is not Hermitian within tolerance$"):
        hermitian_eigenvalues(CMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(NotHermitian, match="^lane 0 of 1 is not Hermitian"):
        symmetric_eigenvalues_batch(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


def test_trace_drift_raises_per_lane(monkeypatch):
    # a solver bug that moves one lane's eigenvalues off its trace
    solve = eigen._tridiagonal_eigenvalues

    def drifting(d, e, ranks=None):
        out = solve(d, e, ranks)
        out[-1] += 1e-3  # the last lane only
        return out

    stack = np.stack([complete(3).adjacency_matrix().data.real] * 3)
    symmetric_eigenvalues_batch(stack)
    monkeypatch.setattr(eigen, "_tridiagonal_eigenvalues", drifting)
    with pytest.raises(NoConvergence, match="drifted from the trace"):
        symmetric_eigenvalues_batch(stack)
    with pytest.raises(NoConvergence, match="drifted from the trace"):
        hermitian_eigenvalues(complete(3).adjacency_matrix())


@pytest.mark.parametrize("s", [1e-13, 1e-200])
def test_not_hermitian_raises_at_small_scale(s):
    # the symmetry tolerance is relative to max|a_ij|, not absolute
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(CMatrix.from_array(np.array([[0.0, s], [0.0, 0.0]])))


def test_roundoff_asymmetry_accepted_at_small_scale():
    rng = np.random.default_rng(41)
    z = rng.standard_normal((6, 6))
    h = (z + z.T) * 1e-200
    h[0, 1] = np.nextafter(h[0, 1], np.inf)
    h[4, 2] = h[4, 2] * (1 + 4e-16)
    assert h[0, 1] != h[1, 0] and h[4, 2] != h[2, 4]
    vals = hermitian_eigenvalues(CMatrix.from_array(h)).values
    ref = np.sort(np.linalg.eigvalsh(z + z.T))[::-1] * 1e-200
    assert np.allclose(vals, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_dft4_singular_values():
    assert np.allclose(singular_values(dft_matrix(4)).values, 2.0, atol=1e-10)


def test_allones_rank_one_singulars():
    sig = singular_values(all_ones(3, 5)).values
    assert len(sig) == 3
    assert abs(sig[0] - np.sqrt(15)) < 1e-10
    assert np.all(sig[1:] < 1e-9)


def test_k2_singular_values():
    sig = singular_values(complete(2).adjacency_matrix())
    assert np.allclose(sig.values, [1.0, 1.0], atol=1e-12)


def test_rayleigh_values():
    assert abs(rayleigh_allones(all_ones(2, 2)) - 2.0) < 1e-12
    m = CMatrix.from_array(2 * np.eye(4) - np.ones((4, 4)))
    assert abs(rayleigh_allones(m) + 2.0) < 1e-12
    assert abs(rayleigh_allones(complete(2).adjacency_matrix()) - 1.0) < 1e-12


def test_rayleigh_nonreal_raises():
    with pytest.raises(NonRealRayleigh):
        rayleigh_allones(CMatrix.from_rows([[1j]]))


def test_singulars_match_conjugate_transpose():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.integers(1, 6)
        n = rng.integers(1, 7)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        a = CMatrix.from_array(z)
        sa = singular_values(a).values
        sb = singular_values(CMatrix.from_array(z.conj().T)).values
        assert np.allclose(sa[: min(m, n)], sb[: min(m, n)], atol=1e-9)


def test_hermitian_moduli_equal_singulars():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = rng.integers(2, 8)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        eig = hermitian_eigenvalues(CMatrix.from_array(h)).values
        sig = singular_values(CMatrix.from_array(h)).values
        assert np.allclose(np.sort(np.abs(eig)), np.sort(sig), atol=1e-9)


def test_sigma_square_sum_matches_frobenius():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(1, 7)
        n = rng.integers(1, 7)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sig = singular_values(CMatrix.from_array(z)).values
        f2sq = np.sum(np.abs(z) ** 2)
        assert abs(np.sum(sig**2) - f2sq) <= 1e-9 * (1 + f2sq)


def test_eigen_sum_matches_trace():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = rng.integers(2, 9)
        z = rng.standard_normal((n, n))
        h = z + z.T
        eig = hermitian_eigenvalues(CMatrix.from_array(h)).values
        assert abs(eig.sum() - np.trace(h)) <= 1e-9 * (1 + abs(np.trace(h)))


def test_lapack_crosscheck():
    # independent oracle: numpy's LAPACK-backed solver on random inputs
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = rng.integers(2, 12)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        mine = hermitian_eigenvalues(CMatrix.from_array(h)).values
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.max(np.abs(mine - ref)) < 1e-10 * (1 + np.abs(ref).max())


def test_degenerate_spectrum_converges():
    # blow-ups have heavily repeated singular values; regression for a
    # convergence-detection failure
    g = blow_up(complete(4), 3)
    sig = singular_values(g.adjacency_matrix()).values
    expect = np.array([9.0, 3.0, 3.0, 3.0] + [0.0] * 8)
    assert np.allclose(sig, expect, atol=1e-9)


def test_spectrum_types_reject_bad_data():
    with pytest.raises(ValueError):
        EigenSpectrum(np.array([1.0, 2.0]))  # not nonincreasing
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([2.0, -1.0]))
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 2.0]))


def test_cmatrix_validation():
    with pytest.raises(ValueError):
        CMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        CMatrix.from_rows([[np.inf]])
    with pytest.raises(ValueError):
        CMatrix.from_rows([[np.nan]])
    m = CMatrix(2, 3, range(6))
    assert m.rows == 2 and m.cols == 3
    assert m.data.ravel().tolist() == [complex(x) for x in range(6)]


# --- scale: inputs are divided by max|a_ij| before any product ------------------

def test_eigenvalues_at_huge_scale():
    m = CMatrix.from_array(np.array([[0.0, 1e160], [1e160, 0.0]]))
    vals = hermitian_eigenvalues(m).values
    assert np.allclose(vals, [1e160, -1e160], rtol=1e-12, atol=0.0)


def test_singular_values_at_tiny_scale():
    a = 1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]])
    sig = singular_values(CMatrix.from_array(a)).values
    assert np.allclose(sig, [5.464985704219043e-200, 3.659661906262578e-201],
                       rtol=1e-12, atol=0.0)


def test_schatten_norm_at_huge_scale():
    assert abs(schatten_norm(CMatrix.from_array(1e200 * np.eye(2)), 1) - 2e200) <= 1e188


def test_small_singular_values_survive():
    # squaring into a Gram product would bury everything below ~1e-8
    rng = np.random.default_rng(29)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    expect = np.array([1.0, 1e-3, 1e-5, 1e-6, 1e-8, 1e-10])
    sig = singular_values(CMatrix.from_array(u @ np.diag(expect) @ v)).values
    assert np.all(np.abs(sig - expect) <= 1e-6 * expect + 1e-14 * expect[0]), sig


# --- cross-checks against numpy at sizes the kernel is used for -----------------

@pytest.mark.parametrize("n", [50, 200])
def test_eigvalsh_crosscheck_large(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for h in ((z + z.T).real, (z + z.conj().T) / 2):
        mine = hermitian_eigenvalues(CMatrix.from_array(h)).values
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.max(np.abs(mine - ref)) < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [50, 200])
def test_svd_crosscheck_large(n):
    rng = np.random.default_rng(n + 1)
    for shape in ((n, n + 7), (n + 7, n)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mine = singular_values(CMatrix.from_array(z)).values
        ref = np.linalg.svd(z, compute_uv=False)
        assert np.max(np.abs(mine - ref)) < 1e-12 * ref[0]


# --- edge cases -----------------------------------------------------------------

def test_order_one_and_two():
    assert np.allclose(hermitian_eigenvalues(CMatrix.from_rows([[-3.5]])).values, [-3.5],
                       atol=1e-14)
    assert np.allclose(singular_values(CMatrix.from_rows([[-3 + 4j]])).values, [5.0])
    h = np.array([[2.0, 1 - 1j], [1 + 1j, -1.0]])
    assert np.allclose(hermitian_eigenvalues(CMatrix.from_array(h)).values,
                       np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-14)


def test_zero_matrix_singular_values():
    assert singular_values(CMatrix.from_array(np.zeros((3, 5)))).values.tolist() == [0.0] * 3


def test_diagonal_matrix_has_no_offdiagonal():
    # e == 0 throughout: every Sturm pivot that hits zero meets e_i^2 = 0
    d = np.array([3.0, -1.0, 0.0, 3.0, 2.5, -1.0])
    vals = hermitian_eigenvalues(CMatrix.from_array(np.diag(d))).values
    assert np.allclose(vals, np.sort(d)[::-1], atol=1e-14)
    sig = singular_values(CMatrix.from_array(np.diag(d))).values
    assert np.allclose(sig, np.sort(np.abs(d))[::-1], atol=1e-14)


def test_block_diagonal_matrix():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((4, 4))
    h = np.zeros((9, 9))
    h[:4, :4] = z + z.T
    h[4:, 4:] = 2 * np.eye(5) - np.ones((5, 5))
    vals = hermitian_eigenvalues(CMatrix.from_array(h)).values
    assert np.allclose(vals, np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-13)


def test_blow_up_spectrum():
    g = blow_up(complete(4), 3)
    vals = hermitian_eigenvalues(g.adjacency_matrix()).values
    assert np.allclose(vals, [9.0] + [0.0] * 8 + [-3.0] * 3, atol=1e-13)


def test_no_external_eigensolver_in_package():
    src = Path(spectranorm.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if "linalg" in p.read_text()]
    assert users == []


_EXTERNAL_SOLVERS = ("scipy", "networkx", "numpy.linalg")


def _external_solver_uses(tree):
    """(line, name) of every import of scipy or networkx, and every use of
    numpy.linalg, in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.linalg"]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if any(name == m or name.startswith(m + ".") for m in _EXTERNAL_SOLVERS))


@pytest.mark.parametrize("source", [
    "import scipy", "import scipy.linalg as sl", "from scipy.sparse import linalg",
    "import networkx as nx", "from networkx import Graph", "import numpy.linalg",
    "from numpy import linalg", "from numpy.linalg import eigvalsh",
    "import numpy as np\nnp.linalg.eigvalsh(a)", "import numpy\nx = numpy.linalg.svd",
])
def test_external_solver_check_flags(source):
    assert list(_external_solver_uses(ast.parse(source)))


def test_no_external_eigensolver_in_the_package_syntax_tree():
    # the rule of the package: no scipy, no networkx and no numpy.linalg in src
    src = Path(spectranorm.__file__).parent
    found = [(str(p.relative_to(src)), line, name) for p in sorted(src.rglob("*.py"))
             for line, name in _external_solver_uses(ast.parse(p.read_text()))]
    assert found == []


# --- the bisection kernel against plain bisection ---------------------------------

def _plain_bisect(d, e, first=0):
    """Sturm bisection one midpoint at a time: the reference _bisect must equal bit for bit."""
    n = d.size
    lo, hi = eigen._gershgorin(d, e)
    norm = max(-lo, hi)
    if norm == 0.0:
        return np.zeros(n - first)
    tol = 2.0 * eigen._EPS * norm
    e2 = np.maximum(e * e, np.finfo(float).tiny)
    rank = np.arange(first, n)
    lo = np.full(rank.size, lo - tol)
    hi = np.full(rank.size, hi + tol)
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(100):
            if np.max(hi - lo) <= tol:
                return np.sort(0.5 * (lo + hi))
            mid = 0.5 * (lo + hi)
            q = d[0] - mid
            count = np.signbit(q).astype(np.int64)
            for i in range(1, n):
                q = (d[i] - mid) - e2[i - 1] / q
                count += np.signbit(q)
            below = count > rank
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    raise AssertionError("reference bisection did not converge")


def _seeded_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n - 1)
    e[rng.random(n - 1) < 0.2] = 0.0  # exact zeros split the matrix
    return rng.standard_normal(n), e


def _golub_kahan(a):
    d, f = eigen._bidiagonal(np.array(a, dtype=float))
    offdiag = np.zeros(2 * d.size - 1)
    offdiag[0::2] = d
    offdiag[1::2] = f
    return np.zeros(2 * d.size), offdiag


def _integer_spectra():
    from spectranorm.graphs import paley

    cases = [eigen._tridiagonal(complete(n).adjacency_matrix().data.real.copy()) for n in (2, 5, 9)]
    cases.append(eigen._tridiagonal(paley(13).adjacency_matrix().data.real.copy()))
    cases.append(_golub_kahan(np.ones((16, 16))))
    cases.append((np.zeros(12), np.ones(11)))  # path P_12
    cases.append((np.arange(6.0), np.zeros(5)))  # diagonal, e = 0
    return cases


@pytest.mark.parametrize("width", [eigen._MULTISECT_WIDTH, 64, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 130])
def test_bisect_equals_plain_bisection(monkeypatch, n, width):
    monkeypatch.setattr(eigen, "_MULTISECT_WIDTH", width)
    d, e = _seeded_tridiagonal(n, 1000 + n)
    for first in sorted({0, n // 2, n - 1}):
        assert np.array_equal(eigen._bisect(d, e, range(first, n)),
                              _plain_bisect(d, e, first))


@pytest.mark.parametrize("width", [eigen._MULTISECT_WIDTH, 4])
def test_bisect_equals_plain_bisection_integer_spectra(monkeypatch, width):
    monkeypatch.setattr(eigen, "_MULTISECT_WIDTH", width)
    for d, e in _integer_spectra():
        n = d.size
        for first in sorted({0, n // 2, n - 1}):
            assert np.array_equal(eigen._bisect(d, e, range(first, n)),
                                  _plain_bisect(d, e, first))


def test_bisect_equals_plain_bisection_past_the_width():
    # more wanted eigenvalues than points a pass: plain bisection, L = 1
    n = eigen._MULTISECT_WIDTH + 8
    d, e = _seeded_tridiagonal(n, 77)
    assert np.array_equal(eigen._bisect(d, e), _plain_bisect(d, e))


@pytest.mark.parametrize("width", [eigen._MULTISECT_WIDTH, 64, 4])
def test_bisect_equals_plain_bisection_where_rounding_changes_the_depth(monkeypatch, width):
    # the upper half of n = 420: U runs up to 210 distinct brackets, and at
    # W = 512 every pass with B U in (171, 280] is two levels deep where the
    # floor of log2(W / (B U) + 1) was one
    monkeypatch.setattr(eigen, "_MULTISECT_WIDTH", width)
    d, e = _seeded_tridiagonal(420, 4200)
    assert np.array_equal(eigen._bisect(d, e, range(210, 420)), _plain_bisect(d, e, 210))


@pytest.mark.parametrize("m", [1, 3, 60, 200, 300, 511, 520])
def test_sturm_count_passes_fit_the_scratch(monkeypatch, m):
    passes = []
    sturm_counts = eigen._sturm_counts

    def bounded(d, e2, x, scratch):
        assert x.ndim == 1 and len(e2) == d.size - 1
        assert (min(d.size, eigen._ROW_BLOCK) + 1) * x.size <= scratch.size
        assert x.size <= max(2 * eigen._MULTISECT_WIDTH, m)
        passes.append(x.size)
        return sturm_counts(d, e2, x, scratch)

    monkeypatch.setattr(eigen, "_sturm_counts", bounded)
    # all m eigenvalues of an order-m tridiagonal: their brackets start
    # equal, so the first pass has U = 1, at L = round(log2(W + 1)) levels
    d, e = _seeded_tridiagonal(m, 900 + m)
    eigen._bisect(d, e)
    levels = round(np.log2(eigen._MULTISECT_WIDTH + 1))
    assert passes[0] == (1 << levels) - 1 == 2 ** 9 - 1
    # the upper half of order 420, whose distinct brackets pass through
    # every U up to 210
    m = 210
    d, e = _seeded_tridiagonal(420, 4200)
    eigen._bisect(d, e, range(210, 420))


def test_bisect_step_cap_raises(monkeypatch):
    monkeypatch.setattr(eigen, "_BISECT_STEPS", 5)
    d, e = _seeded_tridiagonal(20, 3)
    with pytest.raises(NoConvergence):
        eigen._bisect(d, e)


# --- the QL kernel and the order that selects it -----------------------------------

_N0 = eigen._QL_MAX_ORDER


def _wilkinson_plus(m):
    """W_{2m+1}^+: diagonal |m|, ..., 1, 0, 1, ..., m and unit off-diagonal."""
    return np.abs(np.arange(-m, m + 1.0)), np.ones(2 * m)


def _ql_cases():
    rng = np.random.default_rng(64)
    w, ones = _wilkinson_plus(10)
    glued = np.ones(3 * w.size - 1)
    glued[[w.size - 1, 2 * w.size - 1]] = 1e-8
    rank_deficient = rng.standard_normal((9, 9))
    rank_deficient[:, 3] = rank_deficient[:, 5]
    rank_deficient[:, 7] = 0.0
    return {
        "W21+": (w, ones),
        "glued_wilkinson": (np.tile(w, 3), glued),
        "graded": (10.0 ** -np.arange(20.0), 10.0 ** -np.arange(0.5, 19.5)),
        "zero": (np.zeros(10), np.zeros(9)),
        "diagonal": (rng.standard_normal(12), np.zeros(11)),
        "e_1e-300": (rng.standard_normal(12), np.full(11, 1e-300)),
        "all_equal": (np.full(15, 2.0), np.ones(14)),
        "golub_kahan_rank_deficient": _golub_kahan(rank_deficient),
        "random_n0": (rng.standard_normal(_N0), rng.standard_normal(_N0 - 1)),
    }


@pytest.mark.parametrize("case", list(_ql_cases()))
def test_ql_against_eigvalsh(case):
    d, e = _ql_cases()[case]
    n = d.size
    assert n <= _N0  # the order QL solves
    ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    lo, hi = eigen._gershgorin(d, e)
    vals = eigen._tridiagonal_eigenvalues(d, e)
    assert np.all(vals[:-1] <= vals[1:])
    assert np.max(np.abs(vals - ref)) <= n * eigen._EPS * max(-lo, hi)


def test_ql_sweep_cap_raises(monkeypatch):
    d, e = _seeded_tridiagonal(20, 3)
    eigen._tridiagonal_eigenvalues(d, e)
    monkeypatch.setattr(eigen, "_QL_SWEEPS", 1)
    with pytest.raises(NoConvergence, match="QL did not converge in 1 sweeps"):
        eigen._tridiagonal_eigenvalues(d, e)


@pytest.mark.parametrize("n, kernel", [(1, "ql"), (_N0, "ql"), (_N0 + 1, "bisect")])
def test_the_order_alone_selects_the_kernel(monkeypatch, n, kernel):
    calls = []
    for name in ("_ql", "_bisect"):
        solve = getattr(eigen, name)
        monkeypatch.setattr(eigen, name, lambda *args, solve=solve, name=name:
                            calls.append(name[1:]) or solve(*args))
    d, e = _seeded_tridiagonal(n, 80 + n)
    full = eigen._tridiagonal_eigenvalues(d, e)
    # a stack of three lanes, the last all zero, and a rank subset of each
    ends = eigen._tridiagonal_eigenvalues(np.stack([d, 2 * d, 0 * d]),
                                          np.stack([e, 2 * e, 0 * e]), (0, n - 1))
    assert ends.shape == (3, 2) and not ends[2].any()
    if kernel == "ql":
        # one call a lane that is not all zero; the ranks are read off its
        # whole spectrum, so a lane gets the single matrix's bits
        assert calls == ["ql"] * 3
        assert np.array_equal(ends[0], full[[0, n - 1]])
    else:
        # one call for the matrix and one a lane, the all-zero lane too
        assert calls == ["bisect"] * 4


# --- the stack axis ---------------------------------------------------------------

_FLIP = np.array([[[0.0, 1.0], [1.0, 0.0]]])


@pytest.mark.parametrize("s", [1e-13, 1e-200, 1e160])
def test_stack_eigenvalues_at_any_scale(s):
    vals = eigen.symmetric_eigenvalues_batch(s * _FLIP)
    assert np.allclose(vals, [[s, -s]], rtol=1e-14, atol=0.0)


def test_stack_lanes_keep_their_own_scale():
    scales = np.array([1e-200, 1.0, 1e160])
    vals = eigen.symmetric_eigenvalues_batch(scales[:, None, None] * _FLIP)
    expected = np.stack([scales, -scales], axis=1)
    assert np.allclose(vals, expected, rtol=1e-14, atol=0.0)


def _stacked_tridiagonals(n, seed):
    # lanes of very different norms, and an all-zero lane
    lanes = [_seeded_tridiagonal(n, seed + k) for k in range(5)]
    d = np.stack([s * dk for s, (dk, _) in zip((1e-150, 1e-3, 1.0, 1e3, 1e150), lanes)])
    e = np.stack([s * ek for s, (_, ek) in zip((1e-150, 1e-3, 1.0, 1e3, 1e150), lanes)])
    return np.vstack([d, np.zeros((1, n))]), np.vstack([e, np.zeros((1, n - 1))])


@pytest.mark.parametrize("width", [512, 64, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 40, _N0 + 1, 130])
def test_stacked_bisect_equals_each_lane_alone(monkeypatch, n, width):
    # a stack is solved one lane at a time, by QL up to order _N0 and by
    # bisection above it, so each row is the lane's own solve, bit for bit
    monkeypatch.setattr(eigen, "_MULTISECT_WIDTH", width)
    d, e = _stacked_tridiagonals(n, 500 + n)
    for first in sorted({0, n // 2, n - 1}):
        stacked = eigen._tridiagonal_eigenvalues(d, e, range(first, n))
        alone = np.stack([eigen._tridiagonal_eigenvalues(dk, ek, range(first, n))
                          for dk, ek in zip(d, e)])
        assert np.array_equal(stacked, alone)
        if n > _N0:
            assert np.array_equal(stacked, [eigen._bisect(dk, ek, range(first, n))
                                            for dk, ek in zip(d, e)])
    assert not eigen._tridiagonal_eigenvalues(d, e)[-1].any()


def test_equal_brackets_share_one_tree(monkeypatch):
    from spectranorm.constructions import sylvester_hadamard

    points = []  # points counted, one entry a Sturm-count pass
    sturm_counts = eigen._sturm_counts

    def counted(d, e2, x, scratch):
        points.append(x.size)
        return sturm_counts(d, e2, x, scratch)

    monkeypatch.setattr(eigen, "_sturm_counts", counted)
    # all 16 singular values of H_16 are 4, so their brackets stay equal and
    # one 9-level tree (511 points) serves them all: about 53 steps in 6
    # passes, where 16 trees of 5 levels would take 11
    d, e = _golub_kahan(sylvester_hadamard(16).data.real)
    eigen._bisect(d, e, range(16, 32))
    assert len(points) <= 6


@pytest.mark.parametrize("n", range(1, 8))
def test_class_table_spectra_against_eigvalsh(n):
    from spectranorm.enumeration import adjacency_batch, class_table

    table = class_table(n)
    ref = np.linalg.eigvalsh(adjacency_batch(table.reps, n))[:, ::-1]
    assert np.all(np.abs(table.eigs - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_complex_hermitian_stack_against_eigvalsh():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    h = z + z.conj().transpose(0, 2, 1)
    h[1] = 0.0
    h[2] *= 1e-100
    ref = np.linalg.eigvalsh(h)[:, ::-1]
    vals = eigen.symmetric_eigenvalues_batch(h)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(vals - ref) <= 1e-14 * np.maximum(scale, 1e-300))


# --- the blocked reduction against eigvalsh ---------------------------------------

_NB = eigen._PANEL
# panels start once n > 2 * nb; these sizes put panel and crossover edges at
# every offset the loop distinguishes
_REDUCTION_SIZES = sorted({_NB - 1, _NB, _NB + 1, _NB + 2, 2 * _NB, 2 * _NB + 1, 2 * _NB + 2,
                           2 * _NB + 3, 3 * _NB + 1, 130})


def _hermitian(n, seed, complex_entries):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    if complex_entries:
        z = z + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def _reduced_spectrum(h):
    return eigen._bisect(*eigen._tridiagonal(h.copy()))


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", _REDUCTION_SIZES)
def test_blocked_reduction_against_eigvalsh(n, complex_entries):
    h = _hermitian(n, 700 + n, complex_entries)
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(_reduced_spectrum(h) - ref)) <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("complex_entries", [False, True])
def test_narrow_panels_against_eigvalsh(monkeypatch, complex_entries):
    # nb = 3: many panels, partial last panels and the crossover at small n
    monkeypatch.setattr(eigen, "_PANEL", 3)
    for n in range(1, 20):
        h = _hermitian(n, 900 + n, complex_entries)
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(_reduced_spectrum(h) - ref)) <= 1e-13 * np.abs(ref).max()


def _reducible_inputs(n, first_block):
    """A block-diagonal matrix and a graph whose last vertices are isolated.

    Both have a first block of `first_block` rows, so the reduction meets a
    zero column at step first_block - 1.
    """
    rng = np.random.default_rng(n + first_block)
    z = rng.standard_normal((first_block, first_block))
    block = np.zeros((n, n))
    block[:first_block, :first_block] = z + z.T
    block[first_block:, first_block:] = 2 * np.eye(n - first_block) - 1.0
    g = (rng.random((first_block, first_block)) < 0.5).astype(float)
    g = np.triu(g, 1)
    graph = np.zeros((n, n))
    graph[:first_block, :first_block] = g + g.T
    return block, graph


@pytest.mark.parametrize("panel", [eigen._PANEL, 4])
@pytest.mark.parametrize("n, first_block", [(130, 40), (130, 75), (70, 10), (20, 6)])
def test_zero_reflectors_mid_panel(monkeypatch, panel, n, first_block):
    monkeypatch.setattr(eigen, "_PANEL", panel)
    inputs = _reducible_inputs(n, first_block)
    for h in inputs:
        d, e = eigen._tridiagonal(h.copy())
        assert e[first_block - 1] == 0.0
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(eigen._bisect(d, e) - ref)) <= 1e-13 * np.abs(ref).max()
    # as lanes of one stack, where a zero column gets v = 0 rather than None
    ref = np.linalg.eigvalsh(np.stack(inputs))[:, ::-1]
    vals = eigen.symmetric_eigenvalues_batch(np.stack(inputs))
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.abs(ref).max(axis=1, keepdims=True))


def _scaled_stack(n, seed, complex_entries):
    # lanes at 1e-150, 1 and 1e150, an all-zero lane, and a block-diagonal lane
    lanes = [s * _hermitian(n, seed + k, complex_entries)
             for k, s in enumerate((1e-150, 1.0, 1e150))]
    lanes.append(np.zeros((n, n)))
    lanes.append(_reducible_inputs(n, max(1, n // 3))[0])
    return np.stack(lanes).astype(complex if complex_entries else float)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [3, 2 * _NB + 3, 130])
def test_stacked_reduction_equals_each_lane_alone(n, complex_entries):
    stack = _scaled_stack(n, 40 + n, complex_entries)
    d, e = eigen._tridiagonal(stack.copy())
    for k, lane in enumerate(stack):
        d1, e1 = eigen._tridiagonal(lane.copy())
        assert np.array_equal(d[k], d1) and np.array_equal(e[k], e1)
    assert not d[3].any() and not e[3].any()


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [3, 2 * _NB + 3, 130])
def test_scaled_stack_against_eigvalsh(n, complex_entries):
    stack = _scaled_stack(n, 60 + n, complex_entries)
    ref = np.linalg.eigvalsh(stack)[:, ::-1]
    vals = eigen.symmetric_eigenvalues_batch(stack)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.maximum(scale, 1e-300))
    assert not vals[3].any()


# --- the Hermitian check on stacks ------------------------------------------------

def test_stack_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigen.symmetric_eigenvalues_batch(np.array([[[0.0, 2.0], [1.0, 0.0]]]))


def test_stack_rejects_a_single_bad_lane():
    stack = np.repeat(_FLIP, 4, axis=0) * np.array([1e-200, 1.0, 1e150, 3.0])[:, None, None]
    assert eigen.symmetric_eigenvalues_batch(stack).shape == (4, 2)
    stack[2, 0, 1] *= 1.0 + 1e-9  # relative to its own lane's scale of 1e150
    with pytest.raises(NotHermitian, match="lane 2 of 4"):
        eigen.symmetric_eigenvalues_batch(stack)


# --- the extremes of a spectrum ----------------------------------------------------

@pytest.mark.parametrize("n", [3, 40, 130, 300])
def test_extremes_equal_the_full_solve_on_samples(n):
    from spectranorm.asymptotics import _sample_adjacency

    a = _sample_adjacency(n, 3, 0)
    full = eigen._eigenvalues_of_hermitian_array(a)
    ends = eigen._eigenvalues_of_hermitian_array(a, "extremes")
    assert np.array_equal(ends, np.append(full[:2], full[-1]))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_extremes_of_integer_spectra(n):
    # a rank subset need not stop at the full solve's depth (see _bisect):
    # the values agree to the bisection tolerance
    a = complete(n).adjacency_matrix().data.real.copy()
    full = eigen._eigenvalues_of_hermitian_array(a)
    ends = eigen._eigenvalues_of_hermitian_array(a, "extremes")
    assert ends.size == min(n, 2) + 1
    assert np.allclose(ends, np.append(full[:2], full[-1]), rtol=0.0, atol=8 * eigen._EPS * n)


# --- one solve path for one matrix and for a stack ----------------------------------

@pytest.mark.parametrize("kind", ["real", "complex", "nearly_hermitian"])
@pytest.mark.parametrize("n", [6, 40])
def test_single_matrix_equals_the_one_lane_stack(kind, n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n))
    if kind != "real":
        z = z + 1j * rng.standard_normal((n, n))
    a = z + z.conj().T
    if kind == "nearly_hermitian":
        # a relative perturbation inside the symmetry tolerance, entry by entry
        a = a * (1.0 + 1e-13 * rng.standard_normal((n, n)))
        assert not np.array_equal(a, a.conj().T)
    single = hermitian_eigenvalues(CMatrix.from_array(a)).values
    assert np.array_equal(single, eigen.symmetric_eigenvalues_batch(a[None])[0])


# --- singular values by dqds on the bidiagonal ------------------------------------

def _bidiagonal_matrix(d, f):
    return np.diag(np.asarray(d, dtype=float)) + np.diag(np.asarray(f, dtype=float), 1)


def _mpmath_singular_values(d, f, digits):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        b = mpmath.matrix(_bidiagonal_matrix(d, f).tolist())
        return sorted((float(s) for s in mpmath.svd_r(b, compute_uv=False)), reverse=True)


def _relatively_close(sig, ref, rtol):
    # a zero value of the reference is zero only to its 50 digits
    sig, ref = np.asarray(sig), np.asarray(ref)
    return np.all(np.abs(sig - ref) <= rtol * ref + 1e-45 * ref[0])


def _graded(k, seed, offset):
    # d_i about 10^-i and f_i about 10^-(i + offset), each times a factor in [1/2, 2]
    rng = np.random.default_rng(seed)
    d = 10.0 ** -np.arange(k) * rng.uniform(0.5, 2.0, k)
    f = 10.0 ** -(np.arange(k - 1) + offset) * rng.uniform(0.5, 2.0, k - 1)
    return d, f


@pytest.mark.parametrize("offset", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 12, 40])
def test_dqds_graded_bidiagonals_against_mpmath(k, offset):
    # the values span about 10^-k of sigma_1, so the reference carries 50
    # digits beyond that span; each value of either grading is right to a
    # few eps relative, far below the normwise c k eps sigma_1
    d, f = _graded(k, 10 * k, offset)
    for dd, ff in ((d, f), (d[::-1], f[::-1])):
        ref = _mpmath_singular_values(dd, ff, 50 + k)
        assert _relatively_close(eigen._dqds(dd.tolist(), ff.tolist()), ref, 2 * k * eigen._EPS)


@pytest.mark.parametrize("k", range(1, 7))
def test_dqds_exact_zero_diagonal_at_any_position(k):
    # a zero d makes B singular: sigma_k is exactly 0, and every pivot d + e
    # after it has d = 0 and e > 0
    rng = np.random.default_rng(k)
    for p in range(k):
        d = rng.uniform(0.5, 2.0, k)
        f = rng.uniform(0.5, 2.0, k - 1)
        d[p] = 0.0
        sig = eigen._dqds(d.tolist(), f.tolist())
        ref = np.linalg.svd(_bidiagonal_matrix(d, f), compute_uv=False)
        assert sig[-1] == 0.0
        assert np.max(np.abs(np.array(sig) - ref)) <= 1e-14 * ref[0]


@pytest.mark.parametrize("k", range(2, 8))
def test_dqds_exact_zero_superdiagonal_splits(k):
    rng = np.random.default_rng(20 + k)
    for p in range(k - 1):
        d = rng.uniform(0.5, 2.0, k)
        f = rng.uniform(0.5, 2.0, k - 1)
        f[p] = 0.0
        sig = eigen._dqds(d.tolist(), f.tolist())
        ref = np.linalg.svd(_bidiagonal_matrix(d, f), compute_uv=False)
        assert np.max(np.abs(np.array(sig) - ref)) <= 4 * k * eigen._EPS * ref[0]
    # zeros in both: d = 0 above a zero f, and an all-zero diagonal
    assert eigen._dqds([1.0, 0.0, 2.0], [1.0, 0.0]) == sorted(
        np.linalg.svd(_bidiagonal_matrix([1.0, 0.0, 2.0], [1.0, 0.0]), compute_uv=False).tolist(),
        reverse=True)
    sig = eigen._dqds([0.0] * 4, [1.0, 2.0, 3.0])
    assert sig[-1] == 0.0
    assert np.allclose(sig[:3], [3.0, 2.0, 1.0], rtol=4 * eigen._EPS, atol=0.0)


def test_dqds_diagonal_and_zero_inputs():
    assert eigen._dqds([0.0, 0.0, 0.0], [0.0, 0.0]) == [0.0] * 3
    assert eigen._dqds([3.0, 1.0, 2.0, 1.0], [0.0] * 3) == [3.0, 2.0, 1.0, 1.0]


def test_dqds_orders_one_and_two():
    assert eigen._dqds([2.5], []) == [2.5]
    assert eigen._dqds([0.0], []) == [0.0]
    # [[a, b], [0, c]], with zeros and tiny entries, against mpmath
    for a, b, c in ((3.0, 4.0, 5.0), (1.0, 1.0, 1.0), (2.0, 1e-9, 2.0), (1.0, 1.0, 0.0),
                    (1.0, 0.0, 1.0), (1e-8, 1.0, 1e-8), (1.0, 1e-20, 3.0)):
        ref = _mpmath_singular_values([a, c], [b], 50)
        assert _relatively_close(eigen._dqds([a, c], [b]), ref, 2 * eigen._EPS), (a, b, c)


@pytest.mark.parametrize("exponent", [900, 300, -300, -900, -1000])
def test_dqds_is_exact_under_power_of_two_scaling(exponent):
    # the kernel rescales by a power of two itself, so any power of two in
    # the input passes through bit for bit, even past the double range of
    # the scaling
    d, f = [1.0, 2.0, 3.0, 0.5, 1.5], [0.3, 0.2, 0.1, 0.7]
    sig = eigen._dqds(d, f)
    scaled = eigen._dqds([math.ldexp(x, exponent) for x in d], [math.ldexp(x, exponent) for x in f])
    assert scaled == [math.ldexp(x, exponent) for x in sig]


@pytest.mark.parametrize("a, ulps", [(lambda: sylvester_hadamard(16), 2), (lambda: dft_matrix(8), 4)])
def test_equal_singular_values_within_a_few_eps(a, ulps):
    # the superdiagonal of the bidiagonal is negligible, so each value is a
    # diagonal entry: H16 gets 2 eps, and DFT8 the 3.5 eps spread of its
    # Householder diagonal (the 2k x 2k tridiagonal route read 6 and 7.1 eps)
    m = a()
    expect = math.sqrt(m.rows)
    sig = singular_values(m).values
    assert sig.size == m.rows
    assert np.all(np.abs(sig - expect) <= ulps * eigen._EPS * expect)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_dqds_singular_values_against_svd_for_every_k_to_80(complex_entries):
    rng = np.random.default_rng(80 + complex_entries)
    for k in range(1, 81):
        shape = (k, k + k % 7) if k % 2 else (k + k % 5, k)
        z = rng.standard_normal(shape)
        if complex_entries:
            z = z + 1j * rng.standard_normal(shape)
        ref = np.linalg.svd(z, compute_uv=False)
        sig = singular_values(CMatrix.from_array(z)).values
        assert np.max(np.abs(sig - ref)) <= 1e-13 * ref[0], k


def test_dqds_transform_cap_raises(monkeypatch):
    rng = np.random.default_rng(3)
    d, f = rng.uniform(0.5, 2.0, 20).tolist(), rng.uniform(0.5, 2.0, 19).tolist()
    eigen._dqds(d, f)
    monkeypatch.setattr(eigen, "_DQDS_TRANSFORMS", 1)
    with pytest.raises(NoConvergence, match="dqds did not converge in 20 transforms"):
        eigen._dqds(d, f)


def test_singular_values_use_neither_tridiagonal_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("singular values went through a tridiagonal kernel")

    for name in ("_tridiagonal_eigenvalues", "_ql", "_bisect"):
        monkeypatch.setattr(eigen, name, forbidden)
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (2, 3), (40, 30), (70, 80)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.linalg.svd(z, compute_uv=False)
        assert np.max(np.abs(singular_values(CMatrix.from_array(z)).values - ref)) <= 1e-13 * ref[0]


def test_dqds_transform_stops_at_a_negative_pivot():
    # tau = (5 - sqrt 5) / 2 drives d_1 to about -e_1, so the next pivot
    # d_1 + e_1 is about 0; the transform stops at d_1 < 0 before dividing,
    # and an early failure reports that d as all six
    q, e = [2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0]
    qq, ee = [0.0] * 4, [0.0] * 3
    out = eigen._dqds_transform(q, e, qq, ee, 0, 4, (5.0 - math.sqrt(5.0)) / 2.0)
    assert out[0] < 0.0 and len(set(out)) == 1
    # the input is only read, so a failed shift has nothing to undo
    assert q == [2.0, 1.0, 1.0, 1.0] and e == [1.0, 1.0, 1.0]
    # a shift past q_i0 stops before the first row
    out = eigen._dqds_transform([1.0, 2.0, 3.0], [1.0, 1.0], qq, ee, 0, 3, 1.5)
    assert out == (-0.5,) * 6
    # a zero shift never fails, a zero q included
    out = eigen._dqds_transform([1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0], qq, ee, 0, 4, 0.0)
    assert min(out) >= 0.0


def test_bottom_estimate_below_the_least_eigenvalue_or_zero():
    q, e = [4.0, 3.0, 2.0, 0.5], [0.5, 0.4, 0.1]
    lam = min(_mpmath_singular_values(np.sqrt(q), np.sqrt(e), 50)) ** 2
    est = eigen._bottom_estimate(q, e, 0, 3)
    assert 0.99 * lam < est <= lam
    # a pivot that is zero, or negative, says nothing: no division by it
    assert eigen._bottom_estimate([4.0, 1.0, 5.0], [1.0, 1.0], 0, 2) == 0.0
    assert eigen._bottom_estimate([1.0, 1.0, 5.0], [0.1, 0.1], 0, 2) == 0.0


def test_dqds_bottom_two_by_two():
    # the 2 x 2 deflation divides by t = ((a - c) + b) / 2 only for b > 0
    for d, f in (([2.0, 2.0], [1.0]), ([1.0, 0.0], [1.0]), ([0.0, 1.0], [1.0]),
                 ([3.0, 1.0], [1e-30]), ([1.0, 1.0, 1.0], [1.0, 1.0])):
        ref = _mpmath_singular_values(d, f, 50)
        assert _relatively_close(eigen._dqds(d, f), ref, 4 * eigen._EPS), (d, f)
