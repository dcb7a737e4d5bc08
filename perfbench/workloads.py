"""The three benchmark workloads: their inputs, their rounds and their oracles.

A workload is a list of program calls made in fixed rounds. Every call is
`spectranorm.cli.main(argv)` run in-process with stdout captured, except the
registry's `scale` group, which calls library functions directly. Each
output is checked against a computation made here with `numpy.linalg`, or
against a closed-form property the method must have. Nothing in this module
imports a private name of the program.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Call:
    """One timed program call; `group` names the metric its time goes to."""

    group: str          # "call1" or "call2"
    argv: tuple
    label: str


def derived_seed(seed: int, *parts: int) -> int:
    """A 63-bit program seed derived from the workload seed; pure function."""
    mixed = np.random.SeedSequence([seed & _MASK64, *parts]).generate_state(1, np.uint64)[0]
    return int(mixed) >> 1


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + floor


# --- exhaustive: sweep and search over every labeled graph of one order ---------

def _bell(s: int) -> int:
    row = [1]
    for _ in range(s):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def adjacency_stack(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) adjacency matrices, pair t being the t-th of (0,1),(0,2),(1,2),(0,3)..."""
    a = np.zeros((masks.size, n, n))
    t = 0
    for v in range(1, n):
        for u in range(v):
            bit = ((masks >> t) & 1).astype(float)
            a[:, u, v] = bit
            a[:, v, u] = bit
            t += 1
    return a


def max_energy_reference(n: int, chunk: int = 1 << 14) -> tuple[float, int]:
    """Maximum energy over all order-n graphs and its attainer count (tie 1e-9)."""
    total = 1 << (n * (n - 1) // 2)
    energies = np.empty(total)
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        eig = np.linalg.eigvalsh(adjacency_stack(masks, n))
        energies[lo:lo + masks.size] = np.abs(eig).sum(axis=1)
    best = float(energies.max())
    return best, int(np.count_nonzero(energies >= best - 1e-9))


class Exhaustive:
    """`sweep` then `search MAX_ENERGY` over all labeled graphs of one order.

    The inputs are the whole graph set of the order, so they do not depend
    on the seed.
    """

    name = "exhaustive"
    parallel = True          # uses the process pool
    scale_group = False

    threads = 2              # worker processes of the timed calls

    def __init__(self, seed: int, workdir: str, order: int = 6):
        self.seed = seed
        self.order = order
        self.total = 1 << (order * (order - 1) // 2)
        self._reference = None

    def write_inputs(self) -> None:
        """Nothing to write: the program enumerates the graphs itself."""

    def sweep_argv(self, threads: int) -> tuple:
        return ("sweep", "--n", str(self.order), "--threads", str(threads),
                "--format", "json")

    def search_argv(self, threads: int) -> tuple:
        return ("search", "--objective", "MAX_ENERGY", "--n", str(self.order),
                "--threads", str(threads), "--format", "json")

    def round(self, index: int, threads: int = None) -> list:
        threads = self.threads if threads is None else threads
        return [Call("call1", self.sweep_argv(threads), "sweep"),
                Call("call2", self.search_argv(threads), "search")]

    def expected(self) -> dict:
        n = self.order
        pairs = n * (n - 1) // 2
        return {
            "caporossi_equalities": 1 + sum(math.comb(n, s) * (_bell(s) - 1)
                                            for s in range(2, n + 1)),
            # KM_DENSITY needs 2m >= n
            "km_density_skipped": sum(math.comb(pairs, m) for m in range(pairs + 1)
                                      if 2 * m < n),
            # E = sqrt(2mn) iff every |eigenvalue| is equal: the empty graph
            # and, at even order, the perfect matchings
            "mcclelland_equalities": 1 + (_double_factorial(n - 1) if n % 2 == 0 else 0),
        }

    def reference(self) -> tuple[float, int]:
        if self._reference is None:
            self._reference = max_energy_reference(self.order)
        return self._reference

    def check(self, call: Call, code: int, out: str) -> list:
        if code != 0:
            return [f"{call.label}: exit code {code}"]
        doc = json.loads(out)
        if call.label == "sweep":
            return self._check_sweep(doc)
        return self._check_search(doc)

    def _check_sweep(self, doc: dict) -> list:
        errs = []
        exp = self.expected()
        if doc["graphs_scanned"] != self.total:
            errs.append(f"sweep: graphs_scanned {doc['graphs_scanned']} != {self.total}")
        if doc["total_violations"] != 0:
            errs.append(f"sweep: total_violations {doc['total_violations']}")
        seen = set()
        for row in doc["rows"]:
            rid, p = row["bound_id"], row["params"].get("p")
            seen.add(rid)
            if row["evaluated"] + row["skipped"] != self.total:
                errs.append(f"sweep: {rid} {row['params']} evaluated+skipped != {self.total}")
            if rid == "CAPOROSSI" and row["equality_count"] != exp["caporossi_equalities"]:
                errs.append(f"sweep: CAPOROSSI equality_count {row['equality_count']} "
                            f"!= {exp['caporossi_equalities']}")
            if rid == "KM_DENSITY" and 1.0 <= p <= 2.0 and \
                    row["skipped"] != exp["km_density_skipped"]:
                errs.append(f"sweep: KM_DENSITY p={p} skipped {row['skipped']} "
                            f"!= {exp['km_density_skipped']}")
            if rid == "MCCLELLAND" and row["equality_count"] != exp["mcclelland_equalities"]:
                errs.append(f"sweep: MCCLELLAND equality_count {row['equality_count']} "
                            f"!= {exp['mcclelland_equalities']}")
        for rid in ("CAPOROSSI", "KM_DENSITY", "MCCLELLAND"):
            if rid not in seen:
                errs.append(f"sweep: row {rid} missing")
        return errs

    def _check_search(self, doc: dict) -> list:
        errs = []
        best, count = self.reference()
        n = self.order
        if doc["graphs_scanned"] != self.total:
            errs.append(f"search: graphs_scanned {doc['graphs_scanned']} != {self.total}")
        if abs(doc["value"] - best) > 1e-9:
            errs.append(f"search: value {doc['value']!r} != reference {best!r}")
        if doc["witness_count"] != count:
            errs.append(f"search: witness_count {doc['witness_count']} != reference {count}")
        if doc["value"] > n * (1.0 + math.sqrt(n)) / 2.0:
            errs.append(f"search: value {doc['value']!r} above n(1+sqrt(n))/2")
        return errs


# --- montecarlo: G(n, 1/2) Schatten norms -----------------------------------------

class Montecarlo:
    """`random` calls on fresh seeds, so no timed sample comes from the cache.

    call1 is the energy (p = 1) of an n = 400 sample, call2 the Schatten
    2-norm of an n = 300 sample, each made twice a round, alternately, so
    that both see the same machine. Both are full dense solves today. The
    p = 2 value follows from the edge count, and its diagnostics need only
    sigma_1 and sigma_2, so a change that stops solving the whole spectrum
    there moves call2 alone.
    """

    name = "montecarlo"
    parallel = False
    scale_group = False

    def __init__(self, seed: int, workdir: str,
                 calls=(("call1", 400, 1, 1), ("call2", 300, 2, 1)) * 2,
                 window: tuple = (0.92, 1.08)):
        self.seed = seed
        self.calls = calls       # (group, order, p, samples) of each call in a round
        self.window = window     # accepted range of `normalized`

    def write_inputs(self) -> None:
        """Nothing to write: the program samples from the seed it is given."""

    def round(self, index: int, threads: int = None) -> list:
        calls = []
        for j, (group, n, p, samples) in enumerate(self.calls):
            s = derived_seed(self.seed, index, j)
            argv = ("random", "--n", str(n), "--p", str(p), "--samples", str(samples),
                    "--seed", str(s), "--format", "json")
            calls.append(Call(group, argv, f"random n={n} p={p} seed={s}"))
        return calls

    @staticmethod
    def reference_sigma(n: int, seed: int, index: int) -> np.ndarray:
        """Descending |eigenvalues| of the program's sample, by numpy."""
        from spectranorm import sample_gn_half
        a = np.zeros((n, n))
        for u, v in sample_gn_half(n, seed, index).edges():
            a[u, v] = a[v, u] = 1.0
        return np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]

    def check(self, call: Call, code: int, out: str) -> list:
        if code != 0:
            return [f"{call.label}: exit code {code}"]
        doc = json.loads(out)
        n, p, samples, seed = (int(call.argv[2]), float(call.argv[4]), int(call.argv[6]),
                               int(call.argv[8]))
        errs = []
        if (doc["n"], doc["p"], doc["samples"], doc["seed"]) != (n, p, samples, seed):
            errs.append(f"{call.label}: echoed parameters differ")
        for i in range(samples):
            sig = self.reference_sigma(n, seed, i)
            ref = float(np.sum(sig**p) ** (1.0 / p))
            if not _close(doc["values"][i], ref, 1e-9):
                errs.append(f"{call.label}: values[{i}] {doc['values'][i]!r} != {ref!r}")
            if not _close(doc["sigma1_over_n"][i], sig[0] / n, 1e-9):
                errs.append(f"{call.label}: sigma1_over_n[{i}] differs from numpy")
            if not _close(doc["sigma2_over_sqrt_n"][i], sig[1] / math.sqrt(n), 1e-9):
                errs.append(f"{call.label}: sigma2_over_sqrt_n[{i}] differs from numpy")
        lo, hi = self.window
        if not lo <= doc["normalized"] <= hi:
            errs.append(f"{call.label}: normalized {doc['normalized']!r} outside [{lo}, {hi}]")
        s1 = sum(doc["sigma1_over_n"]) / samples
        if not 0.48 <= s1 <= 0.52:
            errs.append(f"{call.label}: mean sigma1/n {s1!r} outside [0.48, 0.52]")
        return errs


# --- registry: the whole bound registry on named graphs and matrices --------------

def _paley(q: int) -> np.ndarray:
    residues = {(x * x) % q for x in range(1, q)}
    d = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return np.isin(d, list(residues)).astype(float)


def _multipartite(parts: int, size: int) -> np.ndarray:
    return np.kron(np.ones((parts, parts)) - np.eye(parts), np.ones((size, size)))


def _cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = a[(idx + 1) % n, idx] = 1.0
    return a


def _gnp(n: int, rng) -> np.ndarray:
    upper = np.triu(rng.integers(0, 2, size=(n, n)), 1).astype(float)
    return upper + upper.T


def _dft(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _sylvester(order: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def graph6(a: np.ndarray) -> str:
    """Standard graph6: upper triangle column by column, six bits a character."""
    n = a.shape[0]
    bits = [int(a[u, v] != 0) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)))
    return "".join(chars)


def matrix_csv(a: np.ndarray) -> str:
    """CSV with `a` or `a+bi` cells written by repr, so parsing is exact."""
    rows = []
    for row in np.asarray(a, dtype=complex):
        cells = []
        for z in row:
            re, im = float(z.real), float(z.imag)
            cells.append(repr(re) if im == 0.0 else
                         f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def registry_subjects(seed: int) -> list:
    """(name, kind, array) for every registry subject; seeded ones come from `seed`."""
    def rng(k):
        return np.random.default_rng([seed & _MASK64, k])
    cplx = lambda r, c, k: rng(k).standard_normal((r, c)) + 1j * rng(k + 100).standard_normal((r, c))
    return [
        ("paley29", "graph", _paley(29)),
        ("paley13", "graph", _paley(13)),
        ("blowup_k4_3", "graph", _multipartite(4, 3)),
        ("k333", "graph", _multipartite(3, 3)),
        ("c30", "graph", _cycle(30)),
        ("gnp32", "graph", _gnp(32, rng(1))),
        ("dft8", "matrix", _dft(8)),
        ("h16", "matrix", _sylvester(16)),
        ("dft4_kron_h4", "matrix", np.kron(_dft(4), _sylvester(4))),
        ("complex12x20", "matrix", cplx(12, 20, 2)),
        ("complex60x80", "matrix", cplx(60, 80, 3)),
        ("nonneg30x30", "matrix", rng(4).random((30, 30))),
        ("zero_one20x40", "matrix", rng(5).integers(0, 2, size=(20, 40)).astype(float)),
    ]


# rows whose left-hand side is a function of the singular values alone
_SCHATTEN_LHS = {
    "MCCLELLAND": lambda s, p, k, m: s.sum(),
    "KM_ABSOLUTE": lambda s, p, k, m: s.sum(),
    "CAPOROSSI": lambda s, p, k, m: s.sum(),
    "NONNEG_ENERGY": lambda s, p, k, m: s.sum(),
    "SCHATTEN_EDGES": lambda s, p, k, m: np.sum(s**p),
    "KM_SPECTRAL": lambda s, p, k, m: np.sum(s**p),
    "KM_DENSITY": lambda s, p, k, m: np.sum(s**p),
    "SCHATTEN_ABS_N": lambda s, p, k, m: np.sum(s**p),
    "KM_MATRIX": lambda s, p, k, m: np.sum(s**p),
    "SCHATTEN_P_GE2": lambda s, p, k, m: np.sum(s**p) ** (1.0 / p),
    "SCHR_LOWER": lambda s, p, k, m: np.sum(s**p) ** (1.0 / p),
    "SCHATTEN_ABS_MAT": lambda s, p, k, m: np.sum(s**p) ** (1.0 / p),
    "POWER_MEAN": lambda s, p, k, m: m ** (-1.0 / p) * np.sum(s**p) ** (1.0 / p),
    "KYFAN_01": lambda s, p, k, m: s[:k].sum(),
    "KYFAN_L2": lambda s, p, k, m: s[:k].sum(),
    "KYFAN_INF": lambda s, p, k, m: s[:k].sum(),
    "KYFAN_NONNEG": lambda s, p, k, m: s[:k].sum(),
}

# (subject, bound, p) whose equality the program must flag; p None means any
_REQUIRED_EQUALITIES = [
    (subject, bound, None)
    for subject in ("blowup_k4_3", "k333") for bound in ("CAPOROSSI", "SCHR_LOWER")
] + [(subject, "SCHATTEN_ABS_MAT", 1.0) for subject in ("dft8", "h16", "dft4_kron_h4")]

PARAM_SETS = (("--p", "1", "--k", "1"), ("--p", "3", "--q", "3", "--k", "3"))


class Registry:
    """`check --format json` on every subject, one parameter set a round.

    call1 sums the graph-subject calls, call2 the matrix-subject calls, which
    run `matrix_passes` times a round. The `scale` group runs once a round
    and is counted, not timed.
    """

    name = "registry"
    parallel = False
    scale_group = True       # also runs the five `scale` library calls

    def __init__(self, seed: int, workdir: str, subjects=None, matrix_passes: int = 12):
        self.seed = seed
        # the matrix calls are short: enough passes, spread over the round,
        # let call2_s average the machine's speed over as long as call1_s does
        self.matrix_passes = matrix_passes
        self.workdir = workdir
        self.subjects = registry_subjects(seed) if subjects is None else subjects
        self.paths = {name: os.path.join(workdir, f"{name}.{'g6' if kind == 'graph' else 'csv'}")
                      for name, kind, _ in self.subjects}
        self._sigma = {name: np.linalg.svd(a, compute_uv=False)
                       for name, _, a in self.subjects}
        self._by_path = {self.paths[name]: name for name, _, _ in self.subjects}

    def write_inputs(self) -> None:
        for name, kind, a in self.subjects:
            text = graph6(a) + "\n" if kind == "graph" else matrix_csv(a)
            with open(self.paths[name], "w", encoding="ascii") as fh:
                fh.write(text)

    def round(self, index: int, threads: int = None) -> list:
        """One parameter set, alternating by round: the graph calls, with the
        matrix passes spread evenly between them."""
        params = PARAM_SETS[index % len(PARAM_SETS)]
        graphs, matrices = [], []
        for name, kind, _ in self.subjects:
            argv = ("check", "--in", self.paths[name], "--format", "json") + params
            label = f"check {name} {' '.join(params)}"
            if kind == "graph":
                graphs.append(Call("call1", argv, label))
            else:
                matrices.append(Call("call2", argv, label))
        matrices *= self.matrix_passes
        calls, done = [], 0
        for i, call in enumerate(graphs, start=1):
            upto = len(matrices) * i // len(graphs)
            calls += [call] + matrices[done:upto]
            done = upto
        return calls

    def check(self, call: Call, code: int, out: str) -> list:
        if code != 0:
            return [f"{call.label}: exit code {code}"]
        name = self._by_path[call.argv[2]]
        sig = self._sigma[name]
        m = sig.size
        errs = []
        flagged = set()
        for row in json.loads(out)["checks"]:
            if row["skipped"]:
                continue
            rid, params = row["bound_id"], row["params"]
            if row["equality"]:
                flagged.add((rid, params.get("p")))
            lhs_of = _SCHATTEN_LHS.get(rid)
            if lhs_of is None:
                continue
            k = min(params.get("k", 1), m)
            ref = float(lhs_of(sig, params.get("p", 1.0), k, m))
            if not _close(row["lhs"], ref, 1e-9, 1e-300):
                errs.append(f"{call.label}: {rid} {params} lhs {row['lhs']!r} != numpy {ref!r}")
        p_run = float(call.argv[call.argv.index("--p") + 1])
        for subject, rid, p in _REQUIRED_EQUALITIES:
            if subject != name or (p is not None and p != p_run):
                continue
            if (rid, p_run) not in flagged and (rid, None) not in flagged:
                errs.append(f"{call.label}: {rid} equality not flagged")
        return errs


def _scale_cases() -> list:
    """The five scale cases: (label, program call, numpy reference, tolerance)."""
    from spectranorm import (CMatrix, entrywise_norm, hermitian_eigenvalues,
                             schatten_norm, singular_values)

    def cm(a):
        return CMatrix.from_array(np.asarray(a, dtype=complex))

    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    tiny = 1e-200 * base
    rng = np.random.default_rng(20100719)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    graded = u @ np.diag([1.0, 1e-3, 1e-5, 1e-6, 1e-8, 1e-10]) @ v
    huge = np.array([[0.0, 1e160], [1e160, 0.0]])
    return [
        ("hermitian_eigenvalues 1e160",
         lambda: hermitian_eigenvalues(cm(huge)).values,
         np.sort(np.linalg.eigvalsh(huge))[::-1], (1e-9, 0.0)),
        ("singular_values 1e-200",
         lambda: singular_values(cm(tiny)).values,
         np.linalg.svd(tiny, compute_uv=False), (1e-9, 0.0)),
        ("schatten_norm 1e200 I, p=1",
         lambda: schatten_norm(cm(1e200 * np.eye(2)), 1),
         np.linalg.svd(1e200 * np.eye(2), compute_uv=False).sum(), (1e-9, 0.0)),
        # numpy's own 2-norm underflows here too, so the reference is rescaled
        ("entrywise_norm 1e-200, p=2",
         lambda: entrywise_norm(cm(tiny), 2),
         4e-200 * np.linalg.norm(tiny / 4e-200), (1e-9, 0.0)),
        ("singular_values graded to 1e-10",
         lambda: singular_values(cm(graded)).values,
         np.linalg.svd(graded, compute_uv=False), (1e-6, 1e-14)),
    ]


def run_scale_group() -> tuple[int, list]:
    """Run the five cases; returns how many ran and the failures as (label, reason)."""
    cases = _scale_cases()
    failures = []
    for label, call, ref, (rel, rel_top) in cases:
        ref = np.atleast_1d(np.asarray(ref, dtype=float))
        try:
            got = np.atleast_1d(np.asarray(call(), dtype=float))
        except Exception as exc:  # the case counts as failed, whatever the program raised
            failures.append((label, f"raised {type(exc).__name__}: {exc}"))
            continue
        floor = rel_top * float(np.max(np.abs(ref)))
        if got.shape != ref.shape or np.any(np.abs(got - ref) > rel * np.abs(ref) + floor):
            failures.append((label, f"got {got.tolist()}, numpy {ref.tolist()}"))
    return len(cases), failures

WORKLOADS = {cls.name: cls for cls in (Exhaustive, Montecarlo, Registry)}
