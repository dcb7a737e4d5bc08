"""Self-contained Hermitian eigensolver and singular value computation.

A Hermitian matrix is reduced by Householder reflections to a real
symmetric tridiagonal matrix, a panel of columns at a time: a panel's
reflections are collected as a rank-2 * _PANEL correction and reach the
trailing matrix in one matrix product (LAPACK's xSYTRD/xLATRD). A matrix
whose singular values are wanted is reduced by Golub-Kahan
bidiagonalization, unblocked, and the k singular values of the bidiagonal
come from dqds (`_dqds`, the shifted differential qd algorithm of LAPACK
xLASQ1-6) on its k diagonal and k - 1 superdiagonal entries. dqds finds
them to high relative accuracy, so their error is that of the
bidiagonalization, normwise: within c k eps |A|.

Each tridiagonal of a Hermitian spectrum is solved by one of two kernels,
picked in `_tridiagonal_eigenvalues` by its order alone, so a matrix and a
lane of a stack of the same order get the same bits:
  * order <= _QL_MAX_ORDER: implicit QL with Wilkinson shifts on Python
    floats (`_ql`, EISPACK imtql1), one lane at a time; it deflates against
    the Gershgorin norm |T|, so its error is normwise, within c n eps |T|;
  * larger orders: Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967) by multisection (`_bisect`), vectorized over all wanted
    eigenvalues at once: one pass over the rows counts at every node of a
    dyadic tree inside each distinct bracket, and the nodes are bisection's
    own midpoints, so the result is bisection's bit for bit, within
    2 eps |T| of each eigenvalue. Brackets that are equal bit for bit (all
    of them at the start, and a cluster of equal or not yet separated
    eigenvalues after) share one tree and its counts, so the tree depth
    follows from the number of distinct brackets, not of wanted eigenvalues:
    it is log2(W / U + 1) for about W points a pass, rounded to the
    nearest level, so a pass counts at most max(2 W, m) points for m
    wanted eigenvalues.
The reduction takes a leading stack axis: `symmetric_eigenvalues_batch`
reduces a (B, n, n) stack in one pass, and a single matrix is the case
B = 1. Each tridiagonal kernel takes one lane, with its own scale, bracket
and tolerance. No external eigensolver is used anywhere in the package:
every norm ultimately reduces to this module.

Conventions:
  * eigenvalues are returned sorted nonincreasing,
  * singular values come from the matrix itself, never from a Gram product,
    so small ones are not lost to squaring: dqds squares the entries of the
    bidiagonal, not of A, and keeps their qd arrays to high relative
    accuracy,
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
# W, the points per Sturm-count pass: multisection counts at about W points
# at once for the U distinct brackets (U <= m, the wanted eigenvalues), never
# more than max(2 W, m), so a pass's temporaries hold at most
# _ROW_BLOCK x max(2 W, m) doubles.
_MULTISECT_WIDTH = 512
# Tridiagonals of Hermitian spectra (singular values take dqds) of at most
# this order are solved by scalar QL, larger ones by multisection, near the
# measured crossover (2 vCPUs, Python 3.11, numpy 2.4): QL took 1.9 ms
# against 2.8 ms at 60 rows, and 7.5 ms against 6.2 ms at 120, where
# multisection's fixed numpy cost a pass is spread over more rows.
_QL_MAX_ORDER = 64
# QL sweeps allowed per eigenvalue (EISPACK's 30); two or three are typical,
# so the cap only catches a solver bug.
_QL_SWEEPS = 30
# dqds negligibility: an e below (100 eps)^2 times what it is tested against
# splits or deflates (LAPACK xLASQ2's TOL2).
_DQDS_TOL = 100.0 * _EPS
# dqds scales its bidiagonal by a power of two that puts the largest entry
# in [2^(_DQDS_TOP - 1), 2^_DQDS_TOP): about sqrt(eps / tiny), so that the
# squares are far from both overflow and underflow.
_DQDS_TOP = 484
# Rows of the continued fraction behind most dqds shifts
# (`_bottom_estimate`): on the registry's seven matrices, 4 rows took 3%
# more transforms and 16 rows 1% fewer.
_DQDS_DEPTH = 8
# dqds transforms allowed per singular value, failed shifts included; about
# three are typical, so the cap only catches a solver bug.
_DQDS_TRANSFORMS = 30


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
    if target.shape[-2] <= _ROW_BLOCK:
        # one block: the same product, without the slicing
        target -= left @ right
        return
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


def _sturm_counts(d: np.ndarray, e2: list[float], x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """For each point x[j], the eigenvalues below it of the tridiagonal with diagonal d.

    `e2` holds the n - 1 squared off-diagonal entries e_i^2 as Python
    floats, the cheapest divisor to broadcast. Counts the negative pivots of T - x I, q_i = (d_i - x) -
    e_{i-1}^2 / q_{i-1}, at every point at once, a block of rows at a time;
    the last row of a block is divided before the next block overwrites it.
    The pivots live in `scratch`, at least (min(n, _ROW_BLOCK) + 1) x.size
    doubles, which the passes of one solve share.
    """
    n, k = d.size, x.size
    rows = min(n, _ROW_BLOCK)
    q = scratch[:rows * k].reshape(rows, k)
    q_rows = list(q)
    t = scratch[rows * k:(rows + 1) * k]
    negative = np.empty(q.shape, dtype=bool)
    # a count never passes n, and the narrowest type that holds n is the fastest
    count = np.zeros(k, dtype=np.min_scalar_type(n))
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


def _squares(e: np.ndarray) -> list[float]:
    """e_i^2 as Python floats, kept off exact zero, where 0/0 would give NaN."""
    return np.maximum(e * e, np.finfo(float).tiny).tolist()


def _bisect(d: np.ndarray, e: np.ndarray, ranks=None) -> np.ndarray:
    """The eigenvalues of the given ascending ranks (default: all) of the tridiagonal (d, e).

    Rank r is the (r + 1)-th smallest eigenvalue; `ranks` may repeat one,
    and the result is ascending. Every wanted eigenvalue is bracketed by the
    Gershgorin interval and bisected on Sturm counts until each bracket is
    within 2 * eps * |T|, and an all-zero tridiagonal is done at once. Since
    the solve stops on all of its wanted brackets, a subset of the ranks can
    stop at another depth than the whole spectrum and differ from it in the
    last bits, within the tolerance.
    The counts come by multisection (Lo, Philippe & Sameh, SIAM J. Sci.
    Stat. Comput. 8, 1987): one pass over the rows counts the eigenvalues
    below every node of an L-level dyadic tree inside each bracket, and L
    bisection steps are then replayed from the stored counts. Each node is
    0.5 * (a + b) of the bracket bisection holds there, so the result is
    bisection's, bit for bit. Brackets that are equal bit for bit share one
    tree: every bracket at the start, and every cluster of equal or not yet
    separated eigenvalues after. A pass counts only the U distinct
    brackets, at L = round(log2(W / U + 1)) levels (at least 1), so a
    cluster of m equal eigenvalues costs the passes of one. Rounding rather
    than flooring the depth gives a pass with U in (W / 3, W / (2^1.5 - 1)]
    two levels, not one bisection step; a pass then counts at U (2^L - 1)
    <= max(2 W, m) points, the scratch the solve allocates. The solve is
    done at the first replayed depth where all brackets are within
    tolerance, and gives their midpoints there. A zero pivot divides to an
    infinity of the right sign and the count reads the sign bit, so -0
    counts as negative and no pivot needs a guard; only e_i^2 is kept off
    exact zero (`_squares`).
    """
    n = d.size
    rank = np.arange(n) if ranks is None else np.asarray(ranks)
    rank = rank.astype(np.min_scalar_type(n))  # the counts' type
    m = rank.size
    lo, hi = _gershgorin(d, e)
    norm = max(-lo, hi)
    if not norm > 0.0:
        return np.zeros(m)
    tol = 2.0 * _EPS * norm
    lo = np.full(m, lo - tol)
    hi = np.full(m, hi + tol)
    e2 = _squares(e)
    # a pass never has more than max(2 W, m) points (see L below)
    scratch = np.empty((min(n, _ROW_BLOCK) + 1) * max(2 * _MULTISECT_WIDTH, m))
    steps = 0  # bisection steps taken
    tree = np.arange(m)
    shared = m > 1  # whether some brackets may still be equal
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            # every bracket is a node of one bisection tree, so brackets are
            # equal or disjoint, and equal ones are adjacent in rank: tree[r]
            # numbers the U distinct brackets, and equal ones share one tree;
            # brackets that have parted never meet again, so once every
            # bracket is distinct, tree stays 0..m - 1 with no grouping
            if shared:
                np.cumsum((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]), out=tree[1:])
                shared = tree[-1] < m - 1
            u = int(tree[-1]) + 1
            # L = round(log2(W / U + 1)) levels of 2^L - 1 nodes: L >= 2 needs
            # W / U > 2^1.5 - 1, and then 2^L <= sqrt(2) (W / U + 1) puts at
            # most 2 W points in a pass; past that, plain bisection (L = 1)
            # counts U points
            levels = min(max(1, round(math.log2(_MULTISECT_WIDTH / u + 1))),
                         _BISECT_STEPS - 1 - steps)
            if levels < 1:
                raise NoConvergence(f"bisection did not converge in {_BISECT_STEPS} steps (n={n})")
            # the tree is a grid of 2^L + 1 points: every 2^(L-t)-th is an
            # end of a depth-t bracket, and the point halfway between two
            # ends is that bracket's midpoint, 0.5 * (a + b) as bisection
            # takes it; the 2^L - 1 inner points are the nodes
            span = 1 << levels
            grid = np.empty((span + 1, u))
            grid[0, tree], grid[span, tree] = lo, hi
            pos = tree
            for t in range(levels):
                step = span >> t
                mid = grid[step // 2::step]
                np.add(grid[:-step:step], grid[step::step], out=mid)
                mid *= 0.5
            count = _sturm_counts(d, e2, grid[1:-1].reshape(-1), scratch)
            # replay the L steps on flat indices into the grid: pos is the
            # lower end of each bracket, which stays put below the midpoint
            # and moves to it above (count entry i is grid entry i + u);
            # at[t] holds it at depth t + 1
            at = np.empty((levels, m), dtype=np.intp)
            for t in range(levels):
                half = (span >> t + 1) * u
                above = count[pos + (half - u)] <= rank
                pos = np.add(pos, above * half, out=at[t])
            grid = grid.reshape(-1)
            widths = (span >> np.arange(1, levels + 1)) * u
            lo, hi = grid[at], grid[at + widths[:, None]]
            steps += levels
            # the solve is done at the first depth where all brackets are
            # within tol, and the eigenvalues are their midpoints there;
            # depth 0 was the last pass's depth L, or the first bracket,
            # wider than 2 tol
            wide = (hi - lo).max(axis=1) > tol
            if not wide.all():
                t = wide.argmin()
                return np.sort(0.5 * (lo[t] + hi[t]))
            lo, hi = lo[-1], hi[-1]


def _ql(d: list[float], e: list[float], norm: float) -> list[float]:
    """Ascending eigenvalues of the tridiagonal (d, e) by implicit QL with Wilkinson shifts.

    Python floats, overwritten in place; `norm` is the Gershgorin norm
    max(-lo, hi) that `_bisect` takes, and must be > 0. The implicit QL
    algorithm of Dubrulle, Martin & Wilkinson (Numer. Math. 12, 1968;
    EISPACK imtql1), the implicit form of the QL algorithm of Bowdler,
    Martin, Reinsch & Wilkinson (Numer. Math. 11, 1968): each sweep chases
    a Wilkinson-shifted rotation up the unreduced block ending at row l,
    and l moves on once e_l is within eps * |T| of zero. Deflating against
    |T| rather than the neighbouring diagonal keeps the error normwise,
    c n eps |T|, as bisection's is. Raises NoConvergence when one
    eigenvalue takes more than _QL_SWEEPS sweeps.
    """
    n = len(d)
    last = n - 1
    e.append(0.0)
    tol = _EPS * norm
    hypot, copysign = math.hypot, math.copysign
    for l in range(last):
        sweeps = 0
        while True:
            m = l
            while m < last and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            if sweeps == _QL_SWEEPS:
                raise NoConvergence(f"QL did not converge in {_QL_SWEEPS} sweeps (n={n})")
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + copysign(hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # f and g underflowed together: the block splits at i + 1
                    d[i + 1] -= p
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
            e[m] = 0.0
    d.sort()
    return d


def _dqds_transform(q, e, qq, ee, i0, n0, tau) -> tuple:
    """One dqds transform with shift tau of rows i0..n0 - 1 of the qd arrays (q, e), into (qq, ee).

    The differential form (LAPACK xLASQ5): d_i0 = q_i0 - tau, then row by
    row qq_i = d_i + e_i, ee_i = q_{i+1} (e_i / qq_i) and d_{i+1} = q_{i+1}
    (d_i / qq_i) - tau, and qq_last = d_last. Each row divides before it
    multiplies, as xLASQ6 does, so no product passes q_{i+1} and none
    overflows. Returns (dmin, dmin1, dmin2, dn, dn1, dn2): the least d,
    the least but the last, the least but the last two, and the last three
    d. Needs n0 - i0 >= 3 and every e of the rows > 0, so that a pivot d_i
    + e_i with d_i >= 0 is never zero; the transform stops at the first
    negative d before the last, whose pivot could be, and then returns that
    d for all six (an early failure). (q, e) are only read, so a failed
    shift leaves nothing to undo. With tau = 0 every d stays >= 0.
    """
    d = q[i0] - tau
    if d < 0.0:
        return (d,) * 6
    dmin = d
    i = i0
    for qn, ei in zip(q[i0 + 1:n0 - 2], e[i0:n0 - 3]):
        s = d + ei
        qq[i] = s
        ee[i] = qn * (ei / s)
        d = qn * (d / s) - tau
        i += 1
        if d < dmin:
            dmin = d
            if d < 0.0:
                return (d,) * 6
    dmin2, dn2 = dmin, d
    s = d + e[i]
    qq[i] = s
    ee[i] = q[i + 1] * (e[i] / s)
    dn1 = q[i + 1] * (d / s) - tau
    if dn1 < 0.0:
        return (dn1,) * 6
    dmin1 = min(dmin, dn1)
    s = dn1 + e[i + 1]
    qq[i + 1] = s
    ee[i + 1] = q[i + 2] * (e[i + 1] / s)
    dn = q[i + 2] * (dn1 / s) - tau
    qq[i + 2] = dn
    return min(dmin1, dn), dmin1, dmin2, dn, dn1, dn2


def _bottom_estimate(q: list[float], e: list[float], i0: int, last: int) -> float:
    """The least eigenvalue, estimated from below, of the qd array's rows i0..last, or 0.

    The array's eigenvalues are those of B B^T, the tridiagonal with
    diagonal q_j + e_j (q_last last) and squared off-diagonal q_{j+1} e_j,
    and the one below every eigenvalue of its leading part is the fixed
    point of g(x) = q_last - q_last e_{last-1} / D(x), where D(x) is the
    last pivot of the leading part less x (a continued fraction). As g
    falls while the pivots are positive, g(q_last) is at most that
    eigenvalue, since q_last, a diagonal entry, is at least it. The
    fraction is cut _DQDS_DEPTH rows up, where the e / q products that the
    rest would add are negligible. Returns 0 where a pivot is not positive,
    so x is not below the leading part and the estimate says nothing.
    """
    x = q[last]
    j = max(i0, last - _DQDS_DEPTH)
    pivot = q[j] + e[j] - x
    for j in range(j + 1, last):
        if not pivot > 0.0:
            return 0.0
        pivot = q[j] + e[j] - x - (q[j] / pivot) * e[j - 1]
    if not pivot > 0.0:
        return 0.0
    return x - (x / pivot) * e[last - 1]


def _dqds_shift(q, e, i0, n0, n0in, dmins, ttype, g):
    """(tau, ttype, g): the next shift for rows i0..n0 - 1 of the qd arrays (q, e).

    `dmins` is the last transform's (dmin, dmin1, dmin2, dn, dn1, dn2), and
    n0in is n0 before this step's deflation, so the least and the last d
    of the rows that remain are (dmin, dn), (dmin1, dn1) or (dmin2, dn2)
    after 0, 1 or 2 deflations. The least d bounds the least eigenvalue
    from above. The shift is 0 (ttype -1) when that d is 0 or more than two
    values deflated; `_bottom_estimate` (ttype -2) when it is the last d,
    so that the least eigenvalue sits at the bottom; and otherwise the
    fraction g of it of xLASQ4's case 6 (ttype -6): 1/4, grown by a third
    of the rest after a fraction shift that did not fail, and 1/12 after
    one that failed early (ttype -18).
    """
    deflated = n0in - n0
    if deflated > 2:
        return 0.0, -1, g
    dmin, dn = dmins[deflated], dmins[3 + deflated]
    if not dmin > 0.0:
        return 0.0, -1, g
    if dmin == dn:
        tau = _bottom_estimate(q, e, i0, n0 - 1)
        if tau > 0.0:
            return tau, -2, g
    g = g + 0.333 * (1.0 - g) if ttype == -6 else 0.25 * 0.333 if ttype == -18 else 0.25
    return g * dmin, -6, g


def _dqds(d: list[float], f: list[float]) -> list[float]:
    """Descending singular values of the upper bidiagonal with diagonal d and superdiagonal f, all >= 0.

    The shifted differential qd algorithm (Fernando & Parlett, Numer. Math.
    67, 1994; Parlett & Marques, Linear Algebra Appl. 309, 2000; LAPACK
    xLASQ1-6) on Python floats. It works on q = d^2 and e = f^2, the qd
    arrays of B^T B, scaled first by the power of two that puts the largest
    entry near 2^484 (xLASQ1's sqrt(eps / safmin)), so that squares neither
    overflow nor lose tiny entries, and no bit changes; a value past the
    double range raises OverflowError. Each transform takes a shift tau
    (`_dqds_shift`) below the least eigenvalue of the unreduced block and
    adds it to the block's sigma. Transforms go back and forth between two
    pairs of lists, (q, e) and (qo, eo), as xLASQ2's ping and pong: the
    output becomes (q, e) only when the shift succeeded, and (qo, eo) is
    then the input, which the deflation tests read. A shift that is too
    large drives some d negative, and the transform is retried with tau +
    dmin just below the value when only the last d went negative, with
    tau / 4 otherwise, and with 0 after three failures. Values deflate
    from the bottom of a block, one at a time when the last e is
    negligible against the value, or two at a time from a 2 x 2 when the e
    above them is (xLASQ3's (100 eps)^2 tests). A block splits where an e
    is negligible, against the d below it in Li's upward test before the
    first transform, and against sigma after it, which also catches an e
    that reached 0. As xLASQ3 does, the arrays are reversed when the
    bottom q is 1.5 times the top one, so that the small values gather at
    the bottom. Each transform is relatively stable, so the values are those
    of the bidiagonal to high relative accuracy while the squares stay in
    the normal range. Raises NoConvergence after _DQDS_TRANSFORMS
    transforms a value.
    """
    n = len(d)
    big = max(d + f)
    if not big > 0.0:
        return [0.0] * n
    # the scaling is a power of two, taken by ldexp since it may pass the
    # double range itself
    scale = _DQDS_TOP - math.frexp(big)[1]
    q = [x * x for x in (math.ldexp(v, scale) for v in d)]
    e = [x * x for x in (math.ldexp(v, scale) for v in f)]
    tol = _DQDS_TOL
    tol2 = tol * tol
    # Li's test, upward: e_j is negligible against the dqd d below it; an
    # e_j > tol2 * below > 0 keeps below + e_j > 0
    blocks = []  # (i0, n0, sigma): rows i0..n0 - 1, shifted by sigma
    n0 = n
    below = q[-1]
    for j in range(n - 2, -1, -1):
        if e[j] <= tol2 * below:
            blocks.append((j + 1, n0, 0.0))
            n0 = j + 1
            below = q[j]
        else:
            below = q[j] * (below / (below + e[j]))
    blocks.append((0, n0, 0.0))
    qo, eo = q[:], e[:]
    values = []
    transforms, cap = 0, _DQDS_TRANSFORMS * n
    ttype, g = 0, 0.0
    while blocks:
        i0, n0, sigma = blocks.pop()
        desig = 0.0
        fresh = True  # no transform yet, so (qo, eo) say nothing of the rows
        # the first shift, a Gershgorin-type bound from the bottom rows
        qmin, emax = q[n0 - 1], 0.0
        for j in range(n0 - 1, i0, -1):
            if qmin < 4.0 * emax:
                break
            qmin, emax = min(qmin, q[j]), max(emax, e[j - 1])
        shift = max(0.0, qmin - 2.0 * math.sqrt(qmin) * math.sqrt(emax))
        dmins = (0.0,) * 6
        while True:
            n0in = n0
            while n0 > i0:
                last = n0 - 1
                if n0 == i0 + 1:
                    values.append(q[last] + sigma)
                    n0 -= 1
                    continue
                if n0 > i0 + 2:
                    if (e[last - 1] <= tol2 * (sigma + q[last])
                            or not fresh and eo[last - 1] <= tol2 * q[last - 1]):
                        values.append(q[last] + sigma)
                        n0 -= 1
                        continue
                    if (e[last - 2] > tol2 * sigma
                            and (fresh or eo[last - 2] > tol2 * q[last - 2])):
                        break
                # the bottom 2 x 2, solved as xLASQ3 does; b > 0 makes t > 0
                a, b, c = q[last - 1], e[last - 1], q[last]
                if c > a:
                    a, c = c, a
                t = 0.5 * ((a - c) + b)
                if b > c * tol2:
                    s = c * (b / t)
                    if s <= t:
                        s = c * (b / (t * (1.0 + math.sqrt(1.0 + s / t))))
                    else:
                        s = c * (b / (t + math.sqrt(t) * math.sqrt(t + s)))
                    t = a + (s + b)
                    c *= a / t
                    a = t
                values += (a + sigma, c + sigma)
                n0 -= 2
            if n0 <= i0:
                break
            if (shift is not None or dmins[0] <= 0.0 or n0 < n0in) and 1.5 * q[i0] < q[n0 - 1]:
                q[i0:n0] = q[i0:n0][::-1]
                e[i0:n0 - 1] = e[i0:n0 - 1][::-1]
                shift = 0.0
            if shift is None:
                tau, ttype, g = _dqds_shift(q, e, i0, n0, n0in, dmins, ttype, g)
            else:
                tau, ttype, shift = shift, -1, None
            while True:
                transforms += 1
                if transforms > cap:
                    raise NoConvergence(f"dqds did not converge in {cap} transforms (k={n})")
                dmins = _dqds_transform(q, e, qo, eo, i0, n0, tau)
                dmin, dmin1, _, dn, dn1, _ = dmins
                if dmin >= 0.0:
                    q, e, qo, eo = qo, eo, q, e
                    break
                if dmin1 > 0.0 and eo[n0 - 2] < tol * (sigma + dn1) and -dn < tol * sigma:
                    # the last value has converged to sigma, hidden by a
                    # negative dn
                    q, e, qo, eo = qo, eo, q, e
                    q[n0 - 1] = 0.0
                    dmins = (0.0,) + dmins[1:]
                    break
                if ttype < -22:
                    # the third failure
                    tau = 0.0
                elif dmin1 > 0.0:
                    # a late failure: dmin puts the shift just below the value
                    tau = (tau + dmin) * (1.0 - 2.0 * _EPS)
                    ttype -= 11
                else:
                    tau *= 0.25
                    ttype -= 12
            fresh = False
            # sigma += tau, compensated
            if tau < sigma:
                desig += tau
                t = sigma + desig
                desig -= t - sigma
            else:
                t = sigma + tau
                desig = sigma + (desig - (t - tau))
            sigma = t
            # split where an e is negligible against sigma, as one that
            # reached 0 is; the bottom two e are deflation's
            lim = n0 - 3
            if lim > i0 and min(e[i0:lim]) <= tol2 * sigma:
                for j in range(i0, lim):
                    if e[j] <= tol2 * sigma:
                        # the rows set aside must be in whichever pair of
                        # lists is current when they are taken up
                        qo[i0:j + 1] = q[i0:j + 1]
                        eo[i0:j] = e[i0:j]
                        blocks.append((i0, j + 1, sigma))
                        i0 = j + 1
    values.sort(reverse=True)
    return [math.ldexp(math.sqrt(v), -scale) for v in values]


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray, ranks=None) -> np.ndarray:
    """`_bisect`'s result, from the kernel that is faster at this order.

    The same contract as `_bisect`: the eigenvalues of the given ascending
    ranks (default: all), ascending, and one row per lane of a (B, n) stack.
    Each kernel takes one lane at a time. Order n <= _QL_MAX_ORDER takes
    `_ql`, and the ranks are read off the whole spectrum; a larger order
    takes `_bisect`. The kernel depends on the order alone, so a matrix and
    a stack lane of the same order get the same bits.
    """
    n = d.shape[-1]
    dd, ee = np.atleast_2d(d, e)
    if n > _QL_MAX_ORDER:
        out = np.array([_bisect(dk, ek, ranks) for dk, ek in zip(dd, ee)])
    else:
        lo, hi = _gershgorin(dd, ee)
        norm = np.maximum(-lo, hi).tolist()
        out = np.array([_ql(dk, ek, s) if s > 0.0 else [0.0] * n
                        for dk, ek, s in zip(dd.tolist(), ee.tolist(), norm)])
        if ranks is not None:
            out = out[:, np.asarray(ranks, dtype=np.intp)]
    return out if d.ndim == 2 else out[0]


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
    Raises NotHermitian when a lane fails the relative symmetry check, and
    NoConvergence on a solver bug: the QL sweep cap or the bisection step
    cap, or a lane whose eigenvalue sum drifted from its trace.
    """
    mats = np.asarray(mats)
    d, e, s = _scaled_tridiagonal(mats)
    vals = _tridiagonal_eigenvalues(d, e)[:, ::-1]
    scale = np.where(s > 0.0, s, 1.0)[:, None]
    trace = (np.diagonal(mats, axis1=1, axis2=2).real / scale).sum(axis=1)
    if np.any(np.abs(vals.sum(axis=1) - trace) > _SPECTRUM_SUM_TOL * (1.0 + np.abs(trace))):
        raise NoConvergence("eigenvalue sum drifted from the trace")
    return vals * s[:, None]


def symmetric_singular_values(eigs: np.ndarray) -> np.ndarray:
    """The singular values |lambda_i| of symmetric matrices, descending, from (B, n) eigenvalues."""
    # contiguous, so sigma^p takes the same numpy loops, bit for bit, on one graph as on a table
    return np.ascontiguousarray(np.sort(np.abs(eigs), axis=1)[:, ::-1])


def _eigenvalues_of_hermitian_array(w: np.ndarray, part: str = "all") -> np.ndarray:
    """Descending eigenvalues of a Hermitian array: all, or the `part` named.

    "extremes" gives lambda_1, lambda_2 and lambda_n (lambda_1 and lambda_n
    when n = 1), solved together as ranks n - 1, n - 2 and 0. "positive"
    gives the eigenvalues from rank k up, k the Sturm count at 0 of the
    scaled tridiagonal (every eigenvalue > 0, and a zero one may be among
    them), then lambda_n, solved together as ranks k..n - 1 and 0; the
    last entry is lambda_n either way. Up to order _QL_MAX_ORDER the ranks
    are read off QL's whole spectrum, so a part has the full solve's bits.
    Above it a part takes far fewer Sturm counts; its values lie within the
    bisection tolerance of the full solve's, and the extremes matched its
    bits on all 310 G(n, 1/2) samples measured (n = 3..40 at 8 seeds,
    n = 100 and 300 at 3), but that is not guaranteed (see `_bisect`).
    """
    if part == "all":
        return symmetric_eigenvalues_batch(w[None])[0]
    (d,), (e,), (s,) = _scaled_tridiagonal(w[None])
    n = w.shape[0]
    if part == "extremes":
        first = max(n - 2, 0)
    else:
        # "positive": the count at 0, as `_bisect` counts
        scratch = np.empty(min(n, _ROW_BLOCK) + 1)
        with np.errstate(divide="ignore", over="ignore"):
            first = int(_sturm_counts(d, _squares(e), np.zeros(1), scratch)[0])
    return _tridiagonal_eigenvalues(d, e, (0, *range(first, n)))[::-1] * s


def hermitian_eigenvalues(m: CMatrix) -> EigenSpectrum:
    """All eigenvalues of a Hermitian matrix, sorted nonincreasing.

    `symmetric_eigenvalues_batch` on the one-matrix stack. Raises
    NotHermitian when the input is not square or fails the symmetry check,
    and NoConvergence on a solver bug.
    """
    if not m.is_square():
        raise NotHermitian(f"matrix is {m.rows}x{m.cols}, not square")
    try:
        return EigenSpectrum(symmetric_eigenvalues_batch(m.data[None])[0])
    except NotHermitian:
        raise NotHermitian("matrix is not Hermitian within tolerance") from None


def singular_values(a: CMatrix) -> SingularSpectrum:
    """Singular values of a complex matrix, sorted nonincreasing.

    Bidiagonalizes the tall orientation of A / s and takes the singular
    values of the bidiagonal by dqds (`_dqds`). Those are accurate relative
    to the bidiagonal, so the error is that of the bidiagonalization,
    normwise: within c k eps |A| of the exact values.
    """
    d = a.data
    k = min(d.shape)
    s = _max_modulus(d)
    if s == 0.0:
        return SingularSpectrum(np.zeros(k))
    b = _real_if_possible(d if d.shape[0] >= d.shape[1] else d.T) / s
    f2sq = float(np.vdot(b, b).real)
    diag, sup = _bidiagonal(b)
    sig = np.array(_dqds(diag.tolist(), sup.tolist()))
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
