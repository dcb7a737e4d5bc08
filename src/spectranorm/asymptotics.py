"""Seeded random-graph sampling and Monte Carlo norm experiments.

Edge indicators come from a counter-based generator (a SplitMix64-style
finalizer keyed by seed, sample index and pair index), so a sample is a pure
function of its key: results are reproducible bit-for-bit regardless of
evaluation order or parallelism. An experiment draws and solves each sample
once, and keeps nothing between calls. The semicircle constants take Gamma
from `math.gamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import _eigenvalues_of_hermitian_array, symmetric_singular_values
from .errors import DomainError, TooLarge
from .graphs import MAX_ORDER, Graph, adjacency_from_pair_bits
from .norms import schatten_of

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
    if n > MAX_ORDER:
        raise TooLarge(f"sampling capped at order {MAX_ORDER}")
    return Graph.from_pair_bits(n, _pair_bits(n, seed, index))


def _sample_adjacency(n: int, seed: int, index: int) -> np.ndarray:
    return adjacency_from_pair_bits(_pair_bits(n, seed, index), n)


def _sample_norm(n: int, seed: int, index: int, p: float) -> tuple[float, float, float]:
    """One sample's Schatten p-norm, sigma_1 and sigma_2 (0 when n = 1).

    p decides once what is solved, as `_eigenvalues_of_hermitian_array`
    takes it, and how the norm is read:
      * p = 2, "extremes": lambda_1, lambda_2 and lambda_n, and the norm
        sqrt(2m) from the entry sum. A nonnegative matrix has
        lambda_1 >= |lambda_i| for every i (Perron-Frobenius), so no other
        eigenvalue is among the two largest moduli;
      * p = 1, "positive": the eigenvalues of rank k and up, k the Sturm
        count at 0, plus lambda_n, and the energy
        E = 2 sum_{lambda > 0} lambda - tr A. By the same argument, sigma_1
        and sigma_2 are the two largest moduli of lambda_1, lambda_2 (when
        its rank is k or more) and lambda_n;
      * any other p, "all": every singular value, as the one-row record
        `schatten_of` roots for `norms` and `check`, so all three give one value.
    """
    a = _sample_adjacency(n, seed, index)
    part = {1.0: "positive", 2.0: "extremes"}.get(p, "all")
    eigs = _eigenvalues_of_hermitian_array(a, part)
    if part == "positive":
        # eigs is the upper half, then lambda_n
        value = 2.0 * float(eigs[:-1].sum()) - float(np.trace(a))
        eigs = np.append(eigs[:min(2, eigs.size - 1)], eigs[-1])
    sig = symmetric_singular_values(eigs[None, :])
    if part == "extremes":
        value = math.sqrt(a.sum())
    elif part == "all":
        value = schatten_of(sig, p).item()
    return value, float(sig[0, 0]), float(sig[0, 1]) if n > 1 else 0.0


# --- gamma function and the semicircle constant ---------------------------------

def gamma_fn(x: float) -> float:
    """Gamma function for x > 0: `math.gamma` with the domain error of this package."""
    if not x > 0:
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    return math.gamma(x)


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
    deterministic. Each sample is drawn and solved once, in `_sample_norm`:
    the p = 2 norm comes from the exact edge count and the p = 1 norm from
    the eigenvalues above 0, so those cases solve only part of the spectrum.
    """
    if n < 1 or n > MAX_ORDER:
        raise TooLarge(f"order must be within 1..{MAX_ORDER}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    values, s1s, s2s = zip(*(_sample_norm(n, seed, i, p) for i in range(samples)))
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / samples
    return ExperimentStats(
        n=n,
        p=float(p),
        samples=samples,
        seed=seed,
        values=values,
        mean=mean,
        stdev=math.sqrt(var),
        normalized=mean / predicted_schatten(n, p),
        sigma1_over_n=tuple(s / n for s in s1s),
        sigma2_over_sqrt_n=tuple(s / math.sqrt(n) for s in s2s),
    )
