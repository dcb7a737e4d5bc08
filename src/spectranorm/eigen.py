"""Self-contained Hermitian eigensolver and singular value computation.

One kernel serves both entry points. A Hermitian matrix is reduced by
Householder reflections to a real symmetric tridiagonal matrix, a panel of
columns at a time: a panel's reflections are collected as a rank-2 * _PANEL
correction and reach the trailing matrix in one matrix product (LAPACK's
xSYTRD/xLATRD). A matrix whose singular values are wanted is reduced by
Golub-Kahan bidiagonalization, unblocked, and its singular values are the
top half of the spectrum of the zero-diagonal tridiagonal built from the
bidiagonal (order 2k for k singular values).

Each tridiagonal is solved by one of two kernels, picked in
`_tridiagonal_eigenvalues` by its order alone, so a matrix and a lane of a
stack of the same order get the same bits:
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
# Tridiagonals of at most this order are solved by scalar QL, larger ones by
# multisection, near the measured crossover (2 vCPUs, Python 3.11, numpy
# 2.4): QL took 1.9 ms against 2.8 ms at 60 rows, and 7.5 ms against 6.2 ms
# at 120, where multisection's fixed numpy cost a pass is spread over more
# rows.
_QL_MAX_ORDER = 64
# QL sweeps allowed per eigenvalue (EISPACK's 30); two or three are typical,
# so the cap only catches a solver bug.
_QL_SWEEPS = 30


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
    top = _tridiagonal_eigenvalues(zero, offdiag, range(k, 2 * k))
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
