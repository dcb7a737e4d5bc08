"""Registry of extremal norm bounds as checkable predicates.

Each row is defined once, over a record of B subjects of one shape and kind
(its fields are documented on `SubjectContext`): `applies` lists its
preconditions in order, and `formula` gives both sides of the inequality as
arrays over the batch; `BoundRow.run` evaluates both on a record.
`run_registry` runs rows on one subject, as the B = 1 record
`SubjectContext`, and `check_bound` is its one-row case; the exhaustive
sweep runs the same rows on a class table (`enumeration.ClassTable`), the
record of every class of an order at once. Both records take their
spectrum-free fields from `graph_fields` or `matrix_fields`. When a single
subject's slack is inside tolerance, a structural equality detector runs on
the subject itself. Registry ids are stable strings used by the CLI and the
JSON report schema.

Detectors read A A* = cI as every sigma equal (`constructions._had_at`), at
the one band `_values_equal`; Ky Fan sums are `norms.kyfan_of`, as in `norms`.

Conventions:
  * upper rows assert lhs <= rhs and use slack = rhs - lhs,
  * lower rows assert lhs >= rhs and use slack = lhs - rhs,
  * holds means slack >= -tol with tol = EQ_TOL * (1 + |lhs| + |rhs|),
  * the equality flag is the numeric test AND the detector verdict when the
    row has a gating detector,
  * a subject with a non-finite lhs, rhs, mid or slack is a skip, never a failure.

Nonsquare matrix subjects are oriented rows <= cols (transposed if needed)
before matrix rows are evaluated; singular values are unchanged by this.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .cmatrix import CMatrix
from .constructions import (EQ_TOL, _complement, _constant_modulus, _had_at, _plain_at,
                            _values_equal)
from .eigen import hermitian_eigenvalues, singular_values, symmetric_singular_values
from .errors import PreconditionFailed, UnknownBoundId
from .graphs import CHI_MAX_ORDER, Graph, chromatic_number, is_strongly_regular
from .norms import as_matrix, kyfan_of

_SIGMA_ZERO_FRACTION = 1e-6  # sigma below this times sigma_1 counts as zero
_NOT_FINITE = "a side of the bound is not finite in double precision"


@dataclass
class BoundCheck:
    """One bound evaluation, or a skip record when a precondition failed."""

    bound_id: str
    params: dict
    lhs: float = math.nan
    rhs: float = math.nan
    slack: float = math.nan
    holds: Optional[bool] = None
    equality: Optional[bool] = None
    equality_witness: Optional[dict] = None
    notes: str = ""
    skipped: bool = False
    skip_reason: Optional[str] = None


def graph_fields(n: int, m) -> dict:
    """The spectrum-free fields of order-n graphs with edge counts `m`.

    An adjacency matrix is 0/1, so nonnegative, with |A|_1 = |A|_2^2 = 2m
    and |A|_inf = 1 unless it has no edge.
    """
    m = np.asarray(m)
    ent, flag = 2.0 * m, np.ones(m.size, dtype=bool)
    return {"n_rows": n, "n_cols": n, "m": m, "ent1": ent, "ent2_sq": ent,
            "entinf": (m > 0).astype(float), "is_graph": flag, "nonneg": flag, "zero_one": flag}


def matrix_fields(d: np.ndarray) -> dict:
    """The spectrum-free fields of the one matrix `d`, oriented rows <= cols."""
    with np.errstate(over="ignore"):  # |A|_2^2 may pass the float range
        a = np.abs(d)
        top = np.array([np.max(a)])  # |A|_inf
        # each entry within 1e-12 |A|_inf of 0 or of 1, so that a matrix of
        # tiny entries is not read as 0/1; at |A|_inf = 1 the band is 1e-12
        band = 1e-12 * top[0]
        return {"n_rows": min(d.shape), "n_cols": max(d.shape), "is_graph": np.array([False]),
                "ent1": np.array([np.sum(a)]), "ent2_sq": np.array([np.sum(a**2)]), "entinf": top,
                "nonneg": np.array([np.all(d.real >= 0.0) and np.all(np.abs(d.imag) <= band)]),
                "zero_one": np.array([np.all((a <= band) | (np.abs(d - 1.0) <= band))])}


class SubjectContext:
    """One graph or matrix as a record of the inputs the bound rows read.

    A record holds `size` = B subjects of one kind and one oriented shape
    `n_rows <= n_cols`. Its per-subject fields have a leading batch axis:
    descending singular values `sig` (B, n_rows); for graphs, descending
    eigenvalues `eigs` (B, n), edge counts `m` and chromatic numbers `chi`;
    the entrywise norms `ent1` = |A|_1, `ent2_sq` = |A|_2^2 and `entinf` =
    |A|_inf; and the flags `is_graph`, `nonneg` and `zero_one`. A class
    table (`enumeration.ClassTable`) is the same record for every class of
    an order.

    Here B = 1. The shape, `m`, the entrywise norms and the flags are set
    when the context is made (`graph_fields`, `matrix_fields`); the spectra
    and chi are computed on first use, so only rows that apply pay for
    them, and those already computed elsewhere are passed in `known`. The
    detectors read the subject itself through `graph`, `matrix` and
    `oriented`, and each structural fact they derive from the subject alone
    is computed once, on first use, for every row: the complete-multipartite
    `parts`, the strongly-regular parameters `srg` and the singular-value
    profile `sig_profile`, which also answers whether A A* = cI (every sigma
    equal). A detector copies what it quotes into a fresh witness.
    `powers` holds each exponent's power sum (`_spow`). A context is made
    once per `check` and once per class in a sweep, so none of this
    outlives the call that made it.
    """

    size = 1

    def __init__(self, subject: Union[Graph, CMatrix], **known: np.ndarray):
        if isinstance(subject, Graph):
            self.graph: Optional[Graph] = subject
            vars(self).update(graph_fields(subject.n, [subject.num_edges()]))
        elif isinstance(subject, CMatrix):
            self.graph = None
            vars(self).update(matrix_fields(subject.data))
        else:
            raise TypeError(f"expected Graph or CMatrix, got {type(subject).__name__}")
        self._subject = subject
        self.powers: dict[float, np.ndarray] = {}
        for name, value in known.items():
            if not isinstance(getattr(SubjectContext, name, None), cached_property):
                raise TypeError(f"{name!r} is not a field computed on first use")
            setattr(self, name, value)  # where the cached property would store it

    @cached_property
    def matrix(self) -> CMatrix:
        return as_matrix(self._subject)

    @cached_property
    def oriented(self) -> CMatrix:
        m = self.matrix
        return m if m.rows <= m.cols else CMatrix.from_array(m.data.T)

    @cached_property
    def sig(self) -> np.ndarray:
        if self.graph is not None:
            return symmetric_singular_values(self.eigs)
        return singular_values(self.matrix).values[None, :]

    @cached_property
    def eigs(self) -> np.ndarray:
        return hermitian_eigenvalues(self.matrix).values[None, :]

    @cached_property
    def chi(self) -> np.ndarray:
        return np.array([chromatic_number(self.graph)])

    @cached_property
    def flip(self) -> CMatrix:
        """J - 2 Re(A) / |A|_inf of the oriented subject (over 1 if A = 0), the +-1
        matrix of a 0/1 multiple, for the flip detectors."""
        entinf = float(self.entinf[0])
        return _complement(self.oriented.data.real / (entinf if entinf > 0.0 else 1.0))

    @cached_property
    def flip_sig(self) -> np.ndarray:
        return singular_values(self.flip).values

    @cached_property
    def flip_plain(self) -> bool:
        """Whether `flip` is plain (`constructions.is_plain`), from `flip_sig`."""
        return _plain_at(self.flip, float(self.flip_sig[0]))

    @cached_property
    def parts(self) -> Optional[list[int]]:
        return detect_complete_multipartite(self.graph)

    @cached_property
    def srg(self) -> Optional[tuple[int, int, int, int]]:
        return is_strongly_regular(self.graph)

    @cached_property
    def sig_profile(self) -> tuple[bool, bool, tuple[int, bool, float]]:
        """(all sigma equal, sigma_2.. equal, `_nonzero_sigma_profile`) of the subject."""
        sig = self.sig[0]
        top = float(sig[0])
        return _values_equal(sig, top), _values_equal(sig[1:], top), _nonzero_sigma_profile(sig)


# --- small shared predicates ---------------------------------------------------

def _spow(q, p):
    """Per-subject sum of sigma_i^p, formed once per exponent on a record with `powers`.

    That memo is a `SubjectContext`'s own, or the sweep's per-call copy of
    the class table's; the cached table itself has none, so no sum
    outlives the `check` or `sweep` that formed it.
    """
    powers = getattr(q, "powers", {})
    if p not in powers:
        powers[p] = (q.sig**p).sum(axis=1)
    return powers[p]


def _nonzero_sigma_profile(sig: np.ndarray) -> tuple[int, bool, float]:
    """(count, all-equal flag, common value) of the nonzero singular values."""
    if sig.size == 0 or sig[0] <= 0.0:
        return 0, True, 0.0
    cut = _SIGMA_ZERO_FRACTION * float(sig[0])
    nz = sig[sig > cut]
    return int(nz.size), _values_equal(nz, float(sig[0])), float(nz.mean())


def detect_complete_multipartite(g: Graph) -> Optional[list[int]]:
    """Part sizes when G is complete multipartite plus isolated vertices.

    Isolated vertices are stripped first; the rest must have non-adjacency as
    an equivalence relation (the complement is a disjoint union of cliques).
    A graph with no edges strips to nothing and reports an empty part list.
    Returns None when the structure does not match.
    """
    adj = g.neighbor_masks()
    live = [v for v in range(g.n) if adj[v]]
    if not live:
        return []
    live_mask = 0
    for v in live:
        live_mask |= 1 << v
    classes: dict[int, int] = {}
    for v in live:
        cls = (live_mask & ~adj[v]) | (1 << v)
        classes[cls] = classes.get(cls, 0) + 1
    seen = 0
    parts = []
    for cls, count in classes.items():
        if cls & seen or cls.bit_count() != count:
            return None
        seen |= cls
        parts.append(count)
    if seen != live_mask:
        return None
    return sorted(parts, reverse=True)


# --- row implementations --------------------------------------------------------
#
# A precondition check maps (q, params) to (ok, reason). `ok` is a plain bool
# when it is the same for the whole batch (it reads only the parameters or
# the shared shape), and a per-subject mask otherwise.
#
# A formula maps (q, params) to (lhs, rhs, lower, mid): per-subject arrays,
# whether the row is a lower bound, and the per-subject middle term of a
# chained upper bound or None.
#
# Detectors run on one subject (a SubjectContext) and return (verdict,
# witness); verdict None means the detector is informational and does not
# gate the equality flag.

def _graph(q, params):
    return q.is_graph, "row applies to graph subjects only"


def _p_at_least(lo):
    def check(q, params):
        p = params["p"]
        return p >= lo, f"requires p >= {lo:g} (got {p:g})"
    return check


def _p_between(lo, hi, *, hi_strict=False):
    def check(q, params):
        p = params["p"]
        ok = lo <= p and (p < hi if hi_strict else p <= hi)
        return ok, f"requires {lo:g} <= p {'<' if hi_strict else '<='} {hi:g} (got {p:g})"
    return check


def _km_rhs(q, p, top, total, r, e):
    """Koolen-Moulton's top^p + (m-1)^(1-p/r) max(total - top^r, 0)^e, m = `n_rows`, 0^0 = 1."""
    m, f = q.n_rows, 1.0 - p / r
    tail = float(m - 1) ** f if m > 1 else (1.0 if f == 0.0 else 0.0)
    return top**p + tail * np.clip(total - top**r, 0.0, None) ** e


def _f_mcclelland(q, params):
    return q.sig.sum(axis=1), np.sqrt(2.0 * q.m * q.n_rows), False, None


def _detect_mcclelland(ctx, params):
    """POWER_MEAN's A A* = cI on a graph with an edge (c = 2m/n > 0): a perfect matching."""
    flag, witness = _detect_power_mean(ctx, params)
    return flag and ctx.m[0] >= 1, witness


def _f_schatten_edges(q, params):
    p = params["p"]
    rhs = q.n_rows ** (1.0 - p / 2.0) * (2.0 * q.m) ** (p / 2.0)
    return _spow(q, p), rhs, p > 2.0, None


def _detect_schatten_edges(ctx, params):
    return ctx.sig_profile[0], {"sigma_top": float(ctx.sig[0, 0])}


def _f_km_spectral(q, params):
    p = params["p"]
    return _spow(q, p), _km_rhs(q, p, q.eigs[:, 0], 2.0 * q.m, 2.0, p / 2.0), False, None


def _detect_sigma_tail_equal(ctx, params):
    sig = ctx.sig[0]
    return ctx.sig_profile[1], {"sigma_tail": float(sig[1]) if sig.size > 1 else 0.0}


def _f_km_density(q, params):
    p = params["p"]
    return _spow(q, p), _km_rhs(q, p, 2.0 * q.m / q.n_rows, 2.0 * q.m, 2.0, p / 2.0), False, None


def _detect_km_density(ctx, params):
    """Equality at perfect matchings, SRG(n, 1, 0, 0); at K_n, SRG(n, n-1, n-2, 0); and
    at strongly regular graphs whose |lambda_2|, ..., |lambda_n| are all equal.

    On a k-regular graph sigma_1 = k, so the last is "sigma_2.. equal", each then
    sqrt(k(n - k)/(n - 1)). The row's m >= n/2 excludes the empty SRG(n, 0, 0, 0).
    """
    srg = ctx.srg
    if srg is None:
        return False, {"case": None}
    n, k = srg[:2]
    if k == 1:
        return True, {"case": "perfect_matching"}
    if k == n - 1:
        return True, {"case": "complete"}
    return ctx.sig_profile[1], {"case": "strongly_regular", "srg": list(srg),
                                "eigenvalue_modulus": math.sqrt(k * (n - k) / (n - 1))}


def _f_km_absolute(q, params):
    n = q.n_rows
    return q.sig.sum(axis=1), np.full(q.size, n * (1.0 + math.sqrt(n)) / 2.0), False, None


def _detect_km_absolute(ctx, params):
    # informational: reports the strongly-regular parameters for inspection;
    # the equality flag stays purely numeric
    srg = ctx.srg
    n = ctx.graph.n
    r = math.isqrt(n)
    target = [n, (n + r) // 2, (n + 2 * r) // 4, (n + 2 * r) // 4] if r * r == n else None
    return None, {
        "strongly_regular": list(srg) if srg else None,
        "target_params": target,
    }


def _f_schatten_abs_n(q, params):
    p, n = params["p"], q.n_rows
    rhs = 2.0 ** (-p) * n ** (1.0 + p / 2.0) + float(n) ** p
    return _spow(q, p), np.full(q.size, rhs), False, None


def _f_schatten_p_ge2(q, params):
    p = params["p"]
    return _spow(q, p) ** (1.0 / p), np.sqrt(2.0 * q.m), False, None


def _detect_schatten_p_ge2(ctx, params):
    count, equal, value = ctx.sig_profile[2]
    return count == 1 and equal, {"nonzero_sigma": count}


def _f_schr_lower(q, params):
    p = params["p"]
    rhs = q.sig[:, 0] * (1.0 + (q.chi - 1.0) ** (1.0 - p)) ** (1.0 / p)
    return _spow(q, p) ** (1.0 / p), rhs, True, None


def _detect_schr_lower(ctx, params):
    chi = int(ctx.chi[0])
    parts = copy.copy(ctx.parts)
    if parts is None or len(parts) != chi:
        return False, {"parts": parts}
    # at p > 1 equality needs sigma_1 = ... = sigma_chi: equal parts, or
    # chi = 2, where K_{a,b} has sigma_1 = sigma_2 = sqrt(ab)
    if params["p"] > 1.0 and chi > 2 and len(set(parts)) > 1:
        return False, {"parts": parts, "regular": False}
    return True, {"parts": parts}


def _f_hoffman(q, params):
    # sum of the chi - 1 smallest |eigenvalues|
    bottom = np.cumsum(np.abs(q.eigs)[:, ::-1], axis=1)
    idx = np.clip(q.chi - 2, 0, None)[:, None]
    return np.take_along_axis(bottom, idx, axis=1)[:, 0], q.eigs[:, 0], True, None


def _f_caporossi(q, params):
    return q.sig.sum(axis=1), 2.0 * q.eigs[:, 0], True, None


def _detect_caporossi(ctx, params):
    parts = copy.copy(ctx.parts)
    return parts is not None, {"parts": parts}


def _f_kyfan_chromatic(q, params):
    return kyfan_of(q.sig, q.chi), 2.0 * q.sig[:, 0], True, None


_EMNA_COEF = 0.5 + math.sqrt(5.0 / 12.0)


def _f_emna(q, params):
    lhs = np.abs(q.eigs[:, 0]) + np.abs(q.eigs[:, 1])
    return lhs, np.full(q.size, _EMNA_COEF * q.n_rows), False, None


def _f_power_mean(q, params):
    p, qq, m = params["p"], params["q"], q.n_rows
    lhs = m ** (-1.0 / p) * _spow(q, p) ** (1.0 / p)
    rhs = m ** (-1.0 / qq) * _spow(q, qq) ** (1.0 / qq)
    return lhs, rhs, False, None


def _detect_power_mean(ctx, params):
    """Whether A A* = cI, that is every sigma equal, with c = |A|_2^2 / m in the witness."""
    return ctx.sig_profile[0], {"gram_scale": float(ctx.ent2_sq[0] / ctx.n_rows)}


def _f_schatten_abs_mat(q, params):
    p = params["p"]
    rhs = q.n_rows ** (1.0 / p) * math.sqrt(q.n_cols) * q.entinf
    return _spow(q, p) ** (1.0 / p), rhs, False, None


def _detect_schatten_abs_mat(ctx, params):
    return _had_at(ctx.oriented, ctx.sig[0]), {}


def _km_matrix_rhs(q, params, final_exponent):
    p, qq = params["p"], params["q"]
    return _km_rhs(q, p, q.sig[:, 0], _spow(q, qq), qq, final_exponent)


def _f_km_matrix(q, params):
    rhs = _km_matrix_rhs(q, params, params["p"] / params["q"])
    return _spow(q, params["p"]), rhs, False, None


def _notes_km_matrix(q, params, mid):
    alt = _km_matrix_rhs(q, params, 1.0 / params["q"])[0]
    return ("final exponent p/q (confirmed sound by numeric sweep); "
            f"the 1/q variant would give rhs = {alt:.12g}")


def _f_nonneg_energy(q, params):
    m, n = q.n_rows, q.n_cols
    ray = q.ent1 / math.sqrt(m * n)
    mid = ray + np.sqrt(np.clip((m - 1.0) * (q.ent2_sq - ray * ray), 0.0, None))
    rhs = (m + math.sqrt(m)) * math.sqrt(n) / 2.0 * q.entinf
    return q.sig.sum(axis=1), rhs, False, mid


def _detect_nonneg_energy(ctx, params):
    if ctx.entinf[0] <= 0.0:
        return False, {"reason": "zero matrix"}
    plain = ctx.flip_plain
    had = _had_at(ctx.flip, ctx.flip_sig)
    return plain and had, {"plain": plain, "had_class": had}


def _f_kyfan_01(q, params):
    rhs = (1.0 + math.sqrt(params["k"])) * math.sqrt(q.n_rows * q.n_cols) / 2.0
    return kyfan_of(q.sig, params["k"]), np.full(q.size, rhs), False, None


def _detect_kyfan_01(ctx, params):
    k = params["k"]
    plain = ctx.flip_plain
    count, equal, value = _nonzero_sigma_profile(ctx.flip_sig)
    count = count if equal else -1
    ok = plain and count == k
    return ok, {"plain": plain, "nonzero_sigma": count, "sigma_value": value}


def _detect_kyfan_l2(ctx, params):
    k = params["k"]
    count, equal, value = ctx.sig_profile[2]
    return equal and count == k, {"nonzero_sigma": count, "sigma_value": value}


def _detect_kyfan_inf(ctx, params):
    k = params["k"]
    count, equal, value = ctx.sig_profile[2]
    unimodular = _constant_modulus(ctx.matrix.data)
    return equal and count == k and unimodular, {
        "nonzero_sigma": count,
        "constant_modulus": unimodular,
    }


def _detect_kyfan_nonneg(ctx, params):
    k = params["k"]
    if ctx.entinf[0] <= 0.0:
        return False, {"reason": "zero matrix"}
    if not _constant_modulus(ctx.flip.data):  # +-1 iff A / |A|_inf is 0/1
        return False, {"zero_one_multiple": False}
    count, equal, value = _nonzero_sigma_profile(ctx.flip_sig)
    plain = ctx.flip_plain
    ok = plain and equal and count == k
    return ok, {"zero_one_multiple": True, "plain": plain, "nonzero_sigma": count}


def _f_kyfan_l2(q, params):
    return kyfan_of(q.sig, params["k"]), math.sqrt(params["k"]) * np.sqrt(q.ent2_sq), False, None


def _f_kyfan_inf(q, params):
    rhs = math.sqrt(params["k"]) * math.sqrt(q.n_rows * q.n_cols) * q.entinf
    return kyfan_of(q.sig, params["k"]), rhs, False, None


def _f_kyfan_nonneg(q, params):
    rhs = (1.0 + math.sqrt(params["k"])) * math.sqrt(q.n_rows * q.n_cols) / 2.0 * q.entinf
    return kyfan_of(q.sig, params["k"]), rhs, False, None


# --- the registry ---------------------------------------------------------------

@dataclass(frozen=True)
class BoundRow:
    """One inequality: its preconditions, its formula and its detector.

    `notes` is a string, or a function of (q, params, mid) for notes that
    quote one subject's values.
    """

    bound_id: str
    statement: str
    takes: tuple
    applies: tuple
    formula: Callable
    detector: Optional[Callable] = None
    notes: object = ""

    def evaluate(self, q, params, tol_scale: float):
        """(lhs, rhs, mid, slack, holds, numeric equality) per subject."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lhs, rhs, lower, mid = self.formula(q, params)
            slack = (lhs - rhs) if lower else (rhs - lhs)
            tol = EQ_TOL * (1.0 + np.abs(lhs) + np.abs(rhs)) * tol_scale
            holds = slack >= -tol
            if mid is not None:
                # chained upper bound: both links must hold
                tol_a = EQ_TOL * (1.0 + np.abs(lhs) + np.abs(mid)) * tol_scale
                tol_b = EQ_TOL * (1.0 + np.abs(mid) + np.abs(rhs)) * tol_scale
                holds = (lhs <= mid + tol_a) & (mid <= rhs + tol_b)
            equal = holds & (np.abs(slack) <= tol)
        return lhs, rhs, mid, slack, holds, equal

    def run(self, q, params, tol_scale: float):
        """(app, reason, values): the mask of the subjects the row evaluates, and why none.

        A subject must meet every precondition, in order, and then have a
        finite lhs, rhs, mid and slack (a power sum can pass the float range);
        the reason is that of the check that left no subject. `values` is
        `evaluate`'s tuple, or None when the preconditions left no subject.
        """
        app = np.ones(q.size, dtype=bool)
        for check in self.applies:
            ok, reason = check(q, params)
            if ok is True:  # a parameter or shape check that passes
                continue
            app &= ok
            if not app.any():
                return app, reason, None
        values = self.evaluate(q, params, tol_scale)
        mid, slack = values[2:4]
        app &= np.isfinite(slack)  # slack = +-(lhs - rhs) is finite only when both sides are
        if mid is not None:
            app &= np.isfinite(mid)
        return app, (None if app.any() else _NOT_FINITE), values

    def equality_verdict(self, ctx, params, equal: bool) -> tuple[bool, Optional[dict]]:
        """(equality, witness) of one subject whose numeric equality is `equal`.

        A numeric equality is put to the row's detector, which runs on the
        subject itself; a detector verdict of None leaves it numeric.
        """
        if not equal or self.detector is None:
            return equal, None
        verdict, witness = self.detector(ctx, params)
        return (equal if verdict is None else bool(verdict)), witness


def _has_edge(q, params):
    return q.m >= 1, "graph must have at least one edge"


def _chi_exact(q, params):
    return (q.n_rows <= CHI_MAX_ORDER,
            f"exact chromatic number is capped at order {CHI_MAX_ORDER}")


def _half_dense(q, params):
    return 2.0 * q.m >= q.n_rows, "requires m >= n/2"


def _q_at_least_p(q, params):
    p, qq = params["p"], params["q"]
    return qq >= p, f"requires p <= q (got p={p:g}, q={qq:g})"


def _two_vertices(q, params):
    return q.n_rows >= 2, "requires n >= 2"


def _nonneg(q, params):
    return q.nonneg, "matrix must be nonnegative"


def _mass_spread(q, params):
    ok = q.ent1 >= q.n_cols * q.entinf * (1.0 - 1e-12)
    return ok, "requires |A|_1 >= n |A|_inf"


def _zero_one(q, params):
    return q.zero_one, "matrix entries must all be 0 or 1"


def _k_range(q, params):
    k = params["k"]
    return 1 <= k <= q.n_rows, f"requires 1 <= k <= m (got k={k})"


_ROWS: dict[str, BoundRow] = {}


def _row(bound_id, statement, takes, applies, formula, detector=None, notes=""):
    _ROWS[bound_id] = BoundRow(bound_id, statement, takes, applies, formula, detector, notes)


_row(
    "MCCLELLAND",
    "||G||_S1 <= sqrt(2mn)",
    (),
    (_graph,),
    _f_mcclelland,
    _detect_mcclelland,
)
_row(
    "SCHATTEN_EDGES",
    "||G||_Sp^p <= n^(1-p/2) (2m)^(p/2) for 1<=p<=2; reversed for p>2",
    ("p",),
    (_graph, _p_at_least(1.0)),
    _f_schatten_edges,
    _detect_schatten_edges,
    "p-th power on the left; direction reverses for p > 2",
)
_row(
    "KM_SPECTRAL",
    "||G||_Sp^p <= mu^p + (n-1)^(1-p/2) (2m - mu^2)^(p/2), 1<=p<=2",
    ("p",),
    (_graph, _p_between(1.0, 2.0)),
    _f_km_spectral,
    _detect_sigma_tail_equal,
)
_row(
    "KM_DENSITY",
    "||G||_Sp^p <= (2m/n)^p + (n-1)^(1-p/2) (2m - (2m/n)^2)^(p/2), 1<=p<=2, m>=n/2",
    ("p",),
    (_graph, _p_between(1.0, 2.0), _half_dense),
    _f_km_density,
    _detect_km_density,
)
_row(
    "SCHATTEN_ABS_N",
    "||G||_Sp^p <= 2^-p n^(1+p/2) + n^p, 1<=p<2",
    ("p",),
    (_graph, _p_between(1.0, 2.0, hi_strict=True)),
    _f_schatten_abs_n,
    None,
    "strict for finite graphs; tight asymptotically",
)
_row(
    "KM_ABSOLUTE",
    "||G||_S1 <= n(1+sqrt(n))/2",
    (),
    (_graph,),
    _f_km_absolute,
    _detect_km_absolute,
)
_row(
    "SCHATTEN_P_GE2",
    "||G||_Sp <= sqrt(2m) for p >= 2",
    ("p",),
    (_graph, _p_at_least(2.0)),
    _f_schatten_p_ge2,
    _detect_schatten_p_ge2,
    "norm-level form; the p-th-powered variant is not an inequality "
    "(fails already for K_4 at p = 3)",
)
_row(
    "SCHR_LOWER",
    "||G||_Sp >= sigma_1 (1 + (chi-1)^(1-p))^(1/p)",
    ("p",),
    (_graph, _has_edge, _p_at_least(1.0), _chi_exact),
    _f_schr_lower,
    _detect_schr_lower,
    lambda q, params, mid: f"chi = {q.chi[0]}",
)
_row(
    "HOFFMAN",
    "|mu_n| + ... + |mu_(n-chi+2)| >= mu_1",
    (),
    (_graph, _has_edge, _chi_exact),
    _f_hoffman,
    None,
    lambda q, params, mid: f"sum of the {q.chi[0] - 1} bottom |eigenvalues|",
)
_row(
    "CAPOROSSI",
    "||G||_S1 >= 2 mu_1",
    (),
    (_graph,),
    _f_caporossi,
    _detect_caporossi,
)
_row(
    "KYFAN_CHROMATIC",
    "||G||_F_chi >= 2 sigma_1",
    (),
    (_graph, _has_edge, _chi_exact),
    _f_kyfan_chromatic,
    None,
    lambda q, params, mid: f"Ky Fan order is chi = {q.chi[0]}",
)
_row(
    "EMNA",
    "|mu_1| + |mu_2| <= (1/2 + sqrt(5/12)) n",
    (),
    (_graph, _two_vertices),
    _f_emna,
)
_row(
    "POWER_MEAN",
    "m^(-1/p) ||A||_Sp <= m^(-1/q) ||A||_Sq, 1<=p<=q",
    ("p", "q"),
    (_p_at_least(1.0), _q_at_least_p),
    _f_power_mean,
    _detect_power_mean,
)
_row(
    "SCHATTEN_ABS_MAT",
    "||A||_Sp <= m^(1/p) n^(1/2) |A|_inf, 1<=p<=2",
    ("p",),
    (_p_between(1.0, 2.0),),
    _f_schatten_abs_mat,
    _detect_schatten_abs_mat,
)
_row(
    "KM_MATRIX",
    "||A||_Sp^p <= sigma_1^p + (m-1)^(1-p/q) (||A||_Sq^q - sigma_1^q)^(p/q), 1<=p<=q",
    ("p", "q"),
    (_p_at_least(1.0), _q_at_least_p),
    _f_km_matrix,
    _detect_sigma_tail_equal,
    _notes_km_matrix,
)
_row(
    "NONNEG_ENERGY",
    "||A||_S1 <= |A|_1/sqrt(mn) + sqrt((m-1)(|A|_2^2 - |A|_1^2/(mn))) <= (m+sqrt(m)) sqrt(n) |A|_inf / 2",
    (),
    (_nonneg, _mass_spread),
    _f_nonneg_energy,
    _detect_nonneg_energy,
    lambda q, params, mid: f"middle bound {mid[0]:.12g}; chain checked on both links",
)
_row(
    "KYFAN_01",
    "||A||_Fk <= (1+sqrt(k)) sqrt(mn) / 2 for 0/1 A, k <= m <= n",
    ("k",),
    (_zero_one, _k_range),
    _f_kyfan_01,
    _detect_kyfan_01,
)
_row(
    "KYFAN_L2",
    "||A||_Fk <= sqrt(k) |A|_2, k <= m <= n",
    ("k",),
    (_k_range,),
    _f_kyfan_l2,
    _detect_kyfan_l2,
)
_row(
    "KYFAN_INF",
    "||A||_Fk <= sqrt(kmn) |A|_inf, k <= m <= n",
    ("k",),
    (_k_range,),
    _f_kyfan_inf,
    _detect_kyfan_inf,
)
_row(
    "KYFAN_NONNEG",
    "||A||_Fk <= (1+sqrt(k)) sqrt(mn) |A|_inf / 2 for nonnegative A",
    ("k",),
    (_nonneg, _k_range),
    _f_kyfan_nonneg,
    _detect_kyfan_nonneg,
)


def registry_ids() -> list[str]:
    return list(_ROWS)


def _lookup(bound_id: str) -> BoundRow:
    try:
        return _ROWS[bound_id]
    except KeyError:
        raise UnknownBoundId(f"no bound with id {bound_id!r}") from None


def check_bound(bound_id: str, subject, *, p: float = None, q: float = None,
                k: int = None, tol_scale: float = 1.0) -> BoundCheck:
    """One registry row, as the one-row `run_registry`; a skip raises PreconditionFailed.

    `subject` is a Graph, a CMatrix or a `SubjectContext`; passing the same
    context to several calls computes its spectra and chi once.
    """
    tol_scale = _tol_scale(tol_scale)
    supplied = {"p": p, "q": q, "k": k}
    for name in _lookup(bound_id).takes:
        if supplied[name] is None:
            raise PreconditionFailed(f"{bound_id} needs parameter {name}")
    (chk,) = run_registry(subject, bound_ids=[bound_id], p_values=(p,), q_values=(q,),
                          k_values=(k,), tol_scale=tol_scale)
    if chk.skipped:
        raise PreconditionFailed(f"{bound_id}: {chk.skip_reason}")
    return chk


def _param(name: str, value):
    """k as an int; p or q as a float, which must be finite (ValueError).

    A finite p or q outside a row's range is that row's precondition and
    gives a skip with its reason; inf or nan would only give false verdicts.
    """
    if name == "k":
        return int(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _tol_scale(value) -> float:
    """The tolerance multiplier as a float, which must be finite and >= 0 (ValueError).

    nan or inf would only give false verdicts and non-JSON output, and a
    negative one turns every tolerance band inside out.
    """
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tol_scale must be finite and >= 0, got {value}")
    return value


def _param_grid(row: BoundRow, p_values, q_values, k_values) -> list[dict]:
    """One parameter dict per point of the row's grids; q's grid is p's unless given."""
    grids = {"p": p_values, "q": p_values if q_values is None else q_values, "k": k_values}
    points = [{}]
    for name in row.takes:
        points = [{**point, name: _param(name, v)} for point in points for v in grids[name]]
    return points


def run_registry(subject, *, bound_ids=None, p_values=(1.0,), q_values=None,
                 k_values=(1,), tol_scale: float = 1.0) -> list[BoundCheck]:
    """Evaluate registry rows over the given parameter grid, all on one context.

    `subject` is a Graph, a CMatrix or a `SubjectContext`. `bound_ids` names
    the rows to run, in order (default: the whole registry); an unknown id
    raises UnknownBoundId. A row that `BoundRow.run` does not evaluate is
    reported as skipped with the reason, never dropped, and gets no notes.
    """
    tol_scale = _tol_scale(tol_scale)
    rows = _ROWS.values() if bound_ids is None else [_lookup(b) for b in bound_ids]
    ctx = subject if isinstance(subject, SubjectContext) else SubjectContext(subject)
    out = []
    for row in rows:
        for params in _param_grid(row, p_values, q_values, k_values):
            _, reason, values = row.run(ctx, params, tol_scale)
            if reason:
                out.append(BoundCheck(row.bound_id, params, skipped=True, skip_reason=reason))
                continue
            lhs, rhs, mid, slack, holds, equal = values
            equality, witness = row.equality_verdict(ctx, params, bool(equal[0]))
            out.append(BoundCheck(
                row.bound_id, params, lhs=float(lhs[0]), rhs=float(rhs[0]),
                slack=float(slack[0]), holds=bool(holds[0]), equality=equality,
                equality_witness=witness,
                notes=row.notes(ctx, params, mid) if callable(row.notes) else row.notes))
    return out
