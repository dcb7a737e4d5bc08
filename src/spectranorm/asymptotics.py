"""Seeded random-graph sampling and Monte Carlo norm experiments.

Edge indicators come from a counter-based generator (a SplitMix64-style
finalizer keyed by seed, sample index and pair index), so a sample is a pure
function of its key: results are reproducible bit-for-bit regardless of
evaluation order or parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import _eigenvalues_of_hermitian_array
from .errors import DomainError, TooLarge
from .graphs import Graph, adjacency_from_pair_bits
from .norms import schatten_of

_MAX_ORDER = 2000

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _pair_bits(n: int, seed: int, index: int) -> np.ndarray:
    """0/1 edge indicators for the C(n,2) pairs of sample `index`."""
    npairs = n * (n - 1) // 2
    mask64 = (1 << 64) - 1
    raw = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & mask64
    key = _mix64(np.array([raw], dtype=np.uint64))[0]
    counters = key + _GOLDEN * (np.arange(1, npairs + 1, dtype=np.uint64))
    return (_mix64(counters) >> np.uint64(63)).astype(np.uint8)


def sample_gn_half(n: int, seed: int, index: int = 0) -> Graph:
    """One G(n, 1/2) sample: each pair present independently with prob 1/2."""
    if n < 1:
        raise TooLarge("order must be >= 1")
    if n > _MAX_ORDER:
        raise TooLarge(f"sampling capped at order {_MAX_ORDER}")
    bits = _pair_bits(n, seed, index)
    mask = 0
    for t in np.nonzero(bits)[0]:
        mask |= 1 << int(t)
    return Graph(n, mask)


def _sample_adjacency(n: int, seed: int, index: int) -> np.ndarray:
    return adjacency_from_pair_bits(_pair_bits(n, seed, index), n)


@lru_cache(maxsize=128)
def _sample_sigma(n: int, seed: int, index: int,
                  part: str = "all") -> tuple[np.ndarray, float | None, int]:
    """Descending singular values of one sample, its energy and its edge count.

    `part` selects what is solved, as `_eigenvalues_of_hermitian_array`
    takes it, and is part of the cache key, so a later request for more
    never reads a partial entry:
      * "all": every singular value;
      * "extremes" (for p = 2): sigma_1 and sigma_2 alone, from lambda_1,
        lambda_2 and lambda_n. A nonnegative matrix has
        lambda_1 >= |lambda_i| for every i (Perron-Frobenius), so no other
        eigenvalue is among the two largest moduli;
      * "positive" (for p = 1): sigma_1 and sigma_2, and the energy
        E = 2 sum_{lambda > 0} lambda - tr A, from the eigenvalues of rank
        k and up, k the Sturm count at 0, plus lambda_n. By the same
        argument, sigma_1 and sigma_2 are the two largest moduli of
        lambda_1, lambda_2 (when its rank is k or more) and lambda_n.
    The energy is None for the other parts.
    """
    a = _sample_adjacency(n, seed, index)
    m = int(round(a.sum() / 2))
    eigs = _eigenvalues_of_hermitian_array(a, part)
    energy = None
    if part == "positive":
        # eigs is the upper half, then lambda_n
        energy = 2.0 * float(eigs[:-1].sum()) - float(np.trace(a))
        eigs = np.append(eigs[:min(2, eigs.size - 1)], eigs[-1])
    sig = np.sort(np.abs(eigs))[::-1][:None if part == "all" else 2]
    sig.flags.writeable = False
    return sig, energy, m


# --- gamma function and the semicircle constant ---------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function via the Lanczos approximation (x > 0)."""
    if not x > 0:
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the series argument in its accurate range
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def semicircle_constant(p: float) -> float:
    """c_p = Gamma(p/2 + 1/2) / (sqrt(pi) Gamma(p/2 + 2)).

    The constant in the bulk contribution of the Schatten p-norm of a
    G(n, 1/2) adjacency matrix; c_1 = 4/(3 pi).
    """
    if p < 1.0:
        raise DomainError(f"semicircle_constant needs p >= 1, got {p}")
    return gamma_fn(p / 2.0 + 0.5) / (math.sqrt(math.pi) * gamma_fn(p / 2.0 + 2.0))


def predicted_schatten(n: int, p: float) -> float:
    """Leading-order Schatten p-norm of G(n, 1/2) for large n."""
    if n < 1 or p < 1.0:
        raise DomainError("needs n >= 1 and p >= 1")
    if p < 2.0:
        return semicircle_constant(p) ** (1.0 / p) * n ** (1.0 / p + 0.5)
    if p == 2.0:
        return n / math.sqrt(2.0)
    return n / 2.0


# --- the experiment --------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentStats:
    """Per-sample Schatten norms of G(n, 1/2) plus top-singular diagnostics."""

    n: int
    p: float
    samples: int
    seed: int
    values: tuple[float, ...]
    mean: float
    stdev: float
    normalized: float          # mean / predicted leading term
    sigma1_over_n: tuple[float, ...]
    sigma2_over_sqrt_n: tuple[float, ...]


def run_experiment(n: int, p: float, samples: int, seed: int) -> ExperimentStats:
    """Sample G(n, 1/2) and measure ||.||_Sp against its predicted value.

    The per-sample value list is ordered by sample index, so aggregation is
    deterministic. The p = 2 norm is taken from the exact edge count, so
    that case solves only for the eigenvalues behind sigma_1 and sigma_2,
    and the p = 1 norm from the eigenvalues above 0 (see `_sample_sigma`).
    """
    if n < 1 or n > _MAX_ORDER:
        raise TooLarge(f"order must be within 1..{_MAX_ORDER}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    values = []
    s1s = []
    s2s = []
    part = {1.0: "positive", 2.0: "extremes"}.get(p, "all")
    for i in range(samples):
        sig, energy, m = _sample_sigma(n, seed, i, part)
        if p == 2.0:
            values.append(math.sqrt(2.0 * m))
        elif p == 1.0:
            values.append(energy)
        else:
            values.append(float(schatten_of(sig, p)))
        s1s.append(float(sig[0]) / n)
        s2s.append(float(sig[1]) / math.sqrt(n) if n > 1 else 0.0)
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / samples
    return ExperimentStats(
        n=n,
        p=float(p),
        samples=samples,
        seed=seed,
        values=tuple(values),
        mean=mean,
        stdev=math.sqrt(var),
        normalized=mean / predicted_schatten(n, p),
        sigma1_over_n=tuple(s1s),
        sigma2_over_sqrt_n=tuple(s2s),
    )
