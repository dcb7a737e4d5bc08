"""Self-contained Hermitian eigensolver and singular value computation.

One kernel serves both entry points. A Hermitian matrix is reduced by
Householder reflections to a real symmetric tridiagonal matrix, a panel of
columns at a time: a panel's reflections are collected as a rank-2 * _PANEL
correction and reach the trailing matrix in one matrix product (LAPACK's
xSYTRD/xLATRD). A matrix whose singular values are wanted is reduced by
Golub-Kahan bidiagonalization, unblocked, and its singular values are the
top half of the spectrum of the zero-diagonal tridiagonal built from the
bidiagonal. Both tridiagonals are solved on
Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) by
multisection, vectorized over all wanted eigenvalues at once: one pass over
the rows counts at every node of a dyadic tree inside each bracket, and the
nodes are bisection's own midpoints, so the result is bisection's bit for
bit. The kernel takes a leading stack axis: `symmetric_eigenvalues_batch`
reduces and bisects a (B, n, n) stack in one pass, each lane with its own
scale, bracket and tolerance, and a single matrix is the case B = 1. No
external eigensolver is used anywhere in the package: every norm ultimately
reduces to this module.

Conventions:
  * eigenvalues are returned sorted nonincreasing,
  * singular values come from the matrix itself, never from a Gram product,
    so small ones are not lost to squaring,
  * every input (every lane of a stack) is divided by its largest entry
    modulus s before any product and the results are multiplied by s at the
    end, so spectra are right at any finite scale; the invariant checks run
    on A / s,
  * all tolerances are relative to the scale of the input; floating data is
    never compared against exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmatrix import CMatrix
from .errors import NoConvergence, NonRealRayleigh, NotHermitian

# Hermitian precondition: max|a_ij - conj(a_ji)| <= _HERM_TOL * max|a_ij|.
_HERM_TOL = 1e-12
# Trace and Frobenius-mass checks on A / s.
_SPECTRUM_SUM_TOL = 1e-9

_EPS = float(np.finfo(float).eps)
# Larger than any bracket width: the bracket update adds it to push a
# bracket end out of a min or max.
_HUGE = float(np.finfo(float).max)
# Bisection halves every bracket each step (one replayed multisection level
# is one step), so the Gershgorin width reaches 2 * eps * |T| in about 53
# steps; the cap only catches a solver bug.
_BISECT_STEPS = 100
# Rows per slice of an in-place low-rank update or of a Sturm-count pass:
# bounds the temporaries.
_ROW_BLOCK = 64
# Columns per panel of the blocked Householder reduction: the trailing
# matrix takes one rank-2 * _PANEL update per panel.
_PANEL = 32
# W, the points per Sturm-count pass: multisection counts at up to W points
# at once for m wanted eigenvalues, so a pass's temporaries hold at most
# _ROW_BLOCK x max(W, m) doubles.
_MULTISECT_WIDTH = 512


@dataclass(frozen=True)
class _Spectrum:
    """A read-only 1-D array of values, sorted nonincreasing."""

    values: np.ndarray
    _noun = "eigenvalues"
    _nonnegative = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("spectrum must be a non-empty 1-D array")
        if self._nonnegative and np.any(v < 0):
            raise ValueError(f"{self._noun} must be nonnegative")
        if np.any(v[:-1] < v[1:]):
            raise ValueError(f"{self._noun} must be sorted nonincreasing")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


class EigenSpectrum(_Spectrum):
    """Real eigenvalues of a Hermitian matrix, sorted nonincreasing."""


class SingularSpectrum(_Spectrum):
    """Nonnegative singular values, sorted nonincreasing, min(m, n) of them."""

    _noun = "singular values"
    _nonnegative = True


# --- the kernel -----------------------------------------------------------------

def _house(x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | float]:
    """Unit v with (I - 2 v v^H) x = alpha e_1 and |alpha| = |x|; returns (v, |x|).

    For a (B, k) stack, one v and |x| per row, and a zero row gets v = 0,
    which reflects nothing; one zero vector gets v = None. The phase of alpha
    is chosen against x_0, so forming v never cancels. Both forms do the same
    arithmetic, so a row of a stack gets the v it would get alone: |x| is a
    BLAS dot either way, and a complex |x_0| is libm's hypot either way
    (numpy's vector abs rounds differently).
    """
    if x.ndim == 1 or x.shape[0] == 1:
        # one vector, as from a single matrix: the same arithmetic on scalars,
        # several times cheaper per call than the array form below
        norm = math.sqrt(np.vdot(x, x).real)
        if norm == 0.0:
            return None, 0.0
        v = x.copy()
        x0 = v.flat[0]
        r0 = abs(x0)
        v.flat[0] += (x0 / r0 if r0 > 0.0 else 1.0) * norm
        v /= math.sqrt(2.0 * norm * (norm + r0))
        return v, norm
    norm = np.sqrt((x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real)
    x0 = x[:, 0]
    r0 = np.hypot(x0.real, x0.imag) if np.iscomplexobj(x0) else np.abs(x0)
    v = x.copy()
    v[:, 0] += np.divide(x0, r0, out=np.ones_like(x0), where=r0 > 0.0) * norm
    v /= np.sqrt(2.0 * norm * (norm + r0) + (norm == 0.0))[:, None]
    return v, norm


def _subtract_product(target: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """target -= left @ right in place, one block of rows at a time."""
    for r in range(0, target.shape[-2], _ROW_BLOCK):
        target[..., r:r + _ROW_BLOCK, :] -= left[..., r:r + _ROW_BLOCK, :] @ right


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of a Hermitian array or (B, n, n) stack, overwritten in place.

    Returns the real diagonal d and off-diagonal e of a symmetric
    tridiagonal with the spectrum of each matrix, as rows of (B, n) and
    (B, n - 1) arrays for a stack: the reduced off-diagonal is complex in
    general, and only its moduli matter, since a diagonal unitary similarity
    makes it real.

    The reduction is blocked by panels of _PANEL columns, as in LAPACK's
    xSYTRD/xLATRD (Dongarra, Sorensen & Hammarling, J. Comput. Appl. Math.
    27, 1989). Reflecting column k by H = I - 2 v v^H takes the trailing
    matrix R to R - v w^H - w v^H, with w = 2 (y - (v^H y) v) and y = R v.
    Inside a panel these updates are only collected, as left = [v_0, w_0,
    v_1, w_1, ...] and right = [w_0^H; v_0^H; ...], so the trailing matrix
    is a - left @ right: each column is brought up to date just before it is
    reflected, and each y is a v less left @ (right @ v). The panel then
    reaches the rest of the matrix as one rank-2 * _PANEL update, one row
    block at a time. A zero column has v = 0, hence w = 0, and reflects
    nothing.
    """
    stack = a if a.ndim == 3 else a[None]
    b, n = stack.shape[:2]
    e = np.zeros((b, max(n - 1, 0)))
    # a panel's corrections pay only while the trailing matrix is wider than
    # two panels; past that, and so for the small lanes of a class-table
    # stack, each column is a panel of its own
    width = _PANEL if n > 2 * _PANEL else 1
    # row i of left and column i of right stand for row and column i + 1;
    # an entry is read only after this panel has written it
    left = np.empty((b, n - 1, 2 * width), dtype=stack.dtype)
    right = np.empty((b, 2 * width, n - 1), dtype=stack.dtype)
    k0 = 0
    while k0 < n - 2:
        k1 = min(k0 + (_PANEL if n - k0 > 2 * _PANEL else 1), n - 2)
        for k in range(k0, k1):
            j = 2 * (k - k0)
            if j:
                stack[:, k:, k] -= (left[:, k - 1:, :j] @ right[:, :j, k - 1, None])[..., 0]
            v, e[:, k] = _house(stack[:, k + 1:, k])
            if v is None:
                left[:, k:, j:j + 2] = 0.0
                right[:, j:j + 2, k:] = 0.0
                continue
            w = (stack[:, k + 1:, k + 1:] @ v[..., None])[..., 0]
            if j:
                w -= (left[:, k:, :j] @ (right[:, :j, k:] @ v[..., None]))[..., 0]
            w -= np.einsum("bi,bi->b", v.conj(), w).real[:, None] * v
            w *= 2.0
            left[:, k:, j] = v
            left[:, k:, j + 1] = w
            right[:, j, k:] = w.conj()
            right[:, j + 1, k:] = v.conj()
        cols = 2 * (k1 - k0)
        _subtract_product(stack[:, k1:, k1:], left[:, k1 - 1:, :cols], right[:, :cols, k1 - 1:])
        k0 = k1
    if n >= 2:
        e[:, n - 2] = np.abs(stack[:, n - 1, n - 2])
    d = stack.diagonal(axis1=1, axis2=2).real.copy()
    return (d, e) if a.ndim == 3 else (d[0], e[0])


def _bidiagonal(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Kahan reduction of a tall array (rows >= cols), overwritten in place.

    Returns the moduli d (diagonal) and f (superdiagonal) of an upper
    bidiagonal with the singular values of `b`.
    """
    cols = b.shape[1]
    d = np.zeros(cols)
    f = np.zeros(max(cols - 1, 0))
    for k in range(cols):
        # from the left: zero column k below the diagonal
        v, d[k] = _house(b[k:, k])
        rest = b[k:, k + 1:]
        if v is not None and rest.size:
            _subtract_product(rest, v[:, None], 2.0 * (v.conj() @ rest)[None, :])
        if k + 1 >= cols:
            break
        # from the right: zero row k right of the superdiagonal; the row
        # reflector is the conjugate of the column one for the same vector
        v, f[k] = _house(b[k, k + 1:])
        rest = b[k + 1:, k + 1:]
        if v is not None and rest.size:
            _subtract_product(rest, 2.0 * (rest @ v.conj())[:, None], v[None, :])
    return d, f


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An interval holding every eigenvalue of the tridiagonal (d, e), per lane of a stack."""
    radius = np.zeros(d.shape)
    radius[..., :-1] += np.abs(e)
    radius[..., 1:] += np.abs(e)
    return np.min(d - radius, axis=-1), np.max(d + radius, axis=-1)


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """For each point x[j, b], the eigenvalues of lane b's tridiagonal below it.

    Lanes run along the last axis: d is (n, B), e2 (n - 1, B) and x (K, B).
    Counts the negative pivots of T_b - x I, q_i = (d_i - x) - e_{i-1}^2 /
    q_{i-1}, at every point at once, a block of rows at a time; the last
    row of a block is divided before the next block overwrites it. The
    pivots live in `scratch`, at least (min(n, _ROW_BLOCK) + 1) x.size
    doubles, which the passes of one solve share.
    """
    n = d.shape[0]
    rows = min(n, _ROW_BLOCK)
    q = scratch[:rows * x.size].reshape((rows,) + x.shape)
    q_rows = list(q)
    t = scratch[rows * x.size:(rows + 1) * x.size].reshape(x.shape)
    negative = np.empty(q.shape, dtype=bool)
    # a count never passes n, and the narrowest type that holds n is the fastest
    count = np.zeros(x.shape, dtype=np.min_scalar_type(n))
    # a lone lane divides by Python floats, the cheapest operand to broadcast
    e2 = e2[:, 0].tolist() if x.shape[1] == 1 else list(e2)
    for r in range(0, n, rows):
        block = q[:min(rows, n - r)]
        if r:
            np.divide(e2[r - 1], q_rows[-1], out=t)
        np.subtract(d[r:r + rows, None], x, out=block)
        if r:
            np.subtract(q_rows[0], t, out=q_rows[0])
        for c, prev, cur in zip(e2[r:r + len(block) - 1], q_rows, q_rows[1:]):
            np.divide(c, prev, out=t)
            np.subtract(cur, t, out=cur)
        np.signbit(block, out=negative[:len(block)])
        count += np.add.reduce(negative[:len(block)], axis=0, dtype=count.dtype)
    return count


def _bisect(d: np.ndarray, e: np.ndarray, first: int = 0) -> np.ndarray:
    """Eigenvalues first, first + 1, ... (ascending) of the tridiagonal (d, e).

    For a stack, d is (B, n), e is (B, n - 1) and each row of the result
    is one lane's. Every wanted eigenvalue is bracketed by its lane's
    Gershgorin interval and bisected on Sturm counts until each bracket of
    the lane is within 2 * eps * |T_b|. A lane then stops moving and leaves
    the count pass, so its result is the one it gets alone, bit for bit, and
    an all-zero lane is done at once.
    The counts come by multisection (Lo, Philippe & Sameh, SIAM J. Sci.
    Stat. Comput. 8, 1987): one pass over the rows counts the eigenvalues
    below every node of an L-level dyadic tree inside each bracket, and L
    bisection steps are then replayed from the stored counts. Each node is
    0.5 * (a + b) of the bracket bisection holds there, so the result is
    bisection's, bit for bit. A zero pivot divides to an infinity of the
    right sign and the count reads the sign bit, so -0 counts as negative
    and no pivot needs a guard; only e_i^2 is kept off exact zero, where
    0/0 would give NaN.
    """
    dd, ee = np.atleast_2d(d, e)
    b, n = dd.shape
    m = n - first
    lo, hi = _gershgorin(dd, ee)
    norm = np.maximum(-lo, hi)
    out = np.zeros((m, b))
    # lanes run along the last axis from here on, so that a lane's d_i and
    # e_i^2 broadcast over long contiguous runs of its points
    live = np.flatnonzero(norm > 0.0)
    tol = 2.0 * _EPS * norm[live]
    lo = np.repeat((lo[live] - tol)[None], m, axis=0)
    hi = np.repeat((hi[live] + tol)[None], m, axis=0)
    # compress and take keep the lanes contiguous, where indexing would not
    d_live = np.take(dd.T, live, axis=-1)
    e2_live = np.take(np.maximum(ee * ee, np.finfo(float).tiny).T, live, axis=-1)
    cols = np.arange(m)[:, None]
    rank = np.arange(first, n, dtype=np.min_scalar_type(n))[:, None]  # the counts' type
    # a pass never has more than max(W, B m) points (see L below)
    scratch = np.empty((min(n, _ROW_BLOCK) + 1) * max(_MULTISECT_WIDTH, m * live.size))
    replay = 0  # bisection steps left to replay from the last count pass
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(_BISECT_STEPS):
            done = (hi - lo).max(axis=0) <= tol
            if done.any():
                out[:, live[done]] = np.sort(0.5 * (lo[:, done] + hi[:, done]), axis=0)
                keep = ~done
                live, tol, lo, hi, d_live, e2_live = (
                    np.compress(keep, a, axis=-1) for a in (live, tol, lo, hi, d_live, e2_live))
                if replay:
                    count, node = (np.compress(keep, a, axis=-1) for a in (count, node))
            if live.size == 0:
                return out.T if d.ndim == 2 else out[:, 0]
            mid = 0.5 * (lo + hi)
            if replay == 0:
                # L = floor(log2(W / (B m) + 1)) levels of 2^L - 1 nodes, so
                # at most W points a pass while B m <= W, and plain bisection
                # (L = 1) past that; the tree's nodes go in heap order (node j
                # has children 2j+1 and 2j+2), built level by level from the
                # grid of bracket ends, and its root is the midpoint
                replay = max(1, (_MULTISECT_WIDTH // (live.size * m) + 1).bit_length() - 1)
                nodes, grid = [mid[None]], (lo, hi)
                for _ in range(1, replay):
                    finer = np.empty((2 * len(grid) - 1,) + lo.shape)
                    finer[0::2] = grid
                    finer[1::2] = nodes[-1]
                    grid = finer
                    nodes.append(0.5 * (grid[:-1] + grid[1:]))
                points = np.concatenate(nodes)
                count = _sturm_counts(d_live, e2_live, points.reshape(-1, live.size), scratch)
                count = count.reshape(points.shape)
                node = np.zeros(lo.shape, dtype=np.intp)
            # the node a bracket stands at is its midpoint, bit for bit; a
            # one-level tree is its root alone
            at_node = count[0] if len(count) == 1 else count[node, cols, np.arange(live.size)]
            below = at_node > rank
            # lo <= mid <= hi and mid + 0 = mid - 0 = mid (mid is never -0),
            # so min and max select exactly; np.where's branches mispredict
            # on these coin-flip masks and cost more
            shift = below * _HUGE
            hi = np.minimum(hi, mid + (_HUGE - shift))
            lo = np.maximum(lo, mid - shift)
            replay -= 1
            if replay:
                node = 2 * node + 2 - below
    raise NoConvergence(f"bisection did not converge in {_BISECT_STEPS} steps (n={n})")


def _max_modulus(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _real_if_possible(a: np.ndarray) -> np.ndarray:
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def _scaled_tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, s) for a (B, n, n) stack: the tridiagonal of each A_b / s_b, s_b = max|a_ij|.

    Raises NotHermitian when some lane has max|A_b - A_b^H| > _HERM_TOL * s_b.
    Each scaled lane W is reduced as (W + W^H) / 2, which drops its roundoff
    asymmetry and is W bit for bit when W is exactly Hermitian.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a (B, n, n) stack")
    s = np.abs(a).max(axis=(1, 2), initial=0.0)
    skew = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(skew > _HERM_TOL * s)
    if bad.size:
        raise NotHermitian(f"lane {bad[0]} of {len(a)} is not Hermitian within tolerance")
    w = _real_if_possible(a) / np.where(s > 0.0, s, 1.0)[:, None, None]
    w = (w + w.conj().transpose(0, 2, 1)) / 2.0
    return (*_tridiagonal(w), s)


def symmetric_eigenvalues_batch(mats: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for a (B, n, n) stack of Hermitian matrices, one row each.

    Each matrix is divided by its own max|a_ij| before the reduction and its
    eigenvalues are multiplied back, so every lane is right at its own scale.
    Raises NotHermitian when a lane fails the relative symmetry check.
    """
    d, e, s = _scaled_tridiagonal(np.asarray(mats))
    return _bisect(d, e)[:, ::-1] * s[:, None]


def _eigenvalues_of_hermitian_array(w: np.ndarray, extremes: bool = False) -> np.ndarray:
    """Descending eigenvalues of a Hermitian array.

    With `extremes`, only lambda_1, lambda_2 and lambda_n (lambda_1 and
    lambda_n when n = 1), for far fewer Sturm counts: the top two are
    bisected on the tridiagonal and the bottom one as the top of its
    negation. The first two are the full solve's bit for bit, and so is the
    last unless a midpoint meets an exact zero pivot, which the mirrored
    count resolves the other way; it still lies within the bisection
    tolerance.
    """
    if not extremes:
        return symmetric_eigenvalues_batch(w[None])[0]
    d, e, s = _scaled_tridiagonal(w[None])
    n = w.shape[0]
    top = _bisect(d[0], e[0], max(n - 2, 0))[::-1]
    return np.append(top, -_bisect(-d[0], e[0], n - 1)) * s[0]


def hermitian_eigenvalues(m: CMatrix) -> EigenSpectrum:
    """All eigenvalues of a Hermitian matrix, sorted nonincreasing.

    The stack kernel with B = 1, so equal to `symmetric_eigenvalues_batch`
    on the one-matrix stack. Raises NotHermitian when the input is not
    square or fails the symmetry check, and NoConvergence on a solver bug:
    the bisection step cap, or an eigenvalue sum that drifted from the trace.
    """
    if not m.is_square():
        raise NotHermitian(f"matrix is {m.rows}x{m.cols}, not square")
    try:
        d, e, s = _scaled_tridiagonal(m.data[None])
    except NotHermitian:
        raise NotHermitian("matrix is not Hermitian within tolerance") from None
    if s[0] == 0.0:
        return EigenSpectrum(np.zeros(m.rows))
    vals = _bisect(d, e)[0, ::-1]
    trace = float((np.diagonal(m.data).real / s[0]).sum())
    if abs(float(vals.sum()) - trace) > _SPECTRUM_SUM_TOL * (1.0 + abs(trace)):
        raise NoConvergence("eigenvalue sum drifted from the trace")
    return EigenSpectrum(vals * s[0])


def singular_values(a: CMatrix) -> SingularSpectrum:
    """Singular values of a complex matrix, sorted nonincreasing.

    Bidiagonalizes the tall orientation of A / s and takes the top half of
    the spectrum of the 2k x 2k zero-diagonal Golub-Kahan tridiagonal, whose
    eigenvalues are +-sigma_i.
    """
    d = a.data
    k = min(d.shape)
    s = _max_modulus(d)
    if s == 0.0:
        return SingularSpectrum(np.zeros(k))
    b = _real_if_possible(d if d.shape[0] >= d.shape[1] else d.T) / s
    f2sq = float(np.vdot(b, b).real)
    diag, sup = _bidiagonal(b)
    offdiag = np.zeros(2 * k - 1)
    offdiag[0::2] = diag
    offdiag[1::2] = sup
    zero = np.zeros(2 * k)
    top = _bisect(zero, offdiag, first=k)
    if top[0] < -64.0 * k * _EPS * _gershgorin(zero, offdiag)[1]:
        raise NoConvergence("Golub-Kahan eigenvalue significantly negative")
    sig = np.clip(top, 0.0, None)[::-1]
    if abs(float(np.sum(sig * sig)) - f2sq) > _SPECTRUM_SUM_TOL * (1.0 + f2sq):
        raise NoConvergence("singular value mass drifted from the Frobenius norm")
    return SingularSpectrum(sig * s)


def rayleigh_allones(a: CMatrix) -> float:
    """<j_m, A j_n> / sqrt(mn): the all-ones Rayleigh quotient.

    Raises NonRealRayleigh when the value is not real within tolerance.
    """
    total = complex(a.data.sum())
    value = total / np.sqrt(a.rows * a.cols)
    if abs(value.imag) > 1e-9 * (1.0 + abs(value)):
        raise NonRealRayleigh(f"imaginary part {value.imag:g} exceeds tolerance")
    return float(value.real)


def allones_quotient_modulus(a: CMatrix) -> float:
    """|<j_m, A j_n>| / sqrt(mn), defined for every complex matrix."""
    total = complex(a.data.sum())
    return abs(total) / float(np.sqrt(a.rows * a.cols))
