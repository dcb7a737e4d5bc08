"""Exhaustive enumeration of small-order labeled graphs.

Graphs of order n are identified with edge bitmasks 0 .. 2^C(n,2)-1 in the
package's pair order, and enumerated in increasing mask order. Work is
partitioned into fixed-size mask ranges (independent of thread count) so
that parallel consumers merge deterministically.
"""

from __future__ import annotations

from concurrent import futures
from itertools import permutations
from typing import Iterator

import numpy as np

from .batched import symmetric_eigenvalues_batch
from .errors import TooLarge
from .graphs import (
    Graph,
    chromatic_number_masks,
    neighbor_masks_of,
    pair_count,
    pair_list,
)

MAX_ENUM_ORDER = 8
CHUNK_SIZE = 1 << 13  # masks per work chunk; fixed for deterministic merges


def _check_order(n: int) -> None:
    if n < 1 or n > MAX_ENUM_ORDER:
        raise TooLarge(f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")


def mask_ranges(n: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) mask ranges covering all graphs of order n."""
    _check_order(n)
    total = 1 << pair_count(n)
    return [(lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]


def map_chunks(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs], spread over `threads` worker processes.

    Results come back in job order whatever the thread count, which is what
    keeps merged outputs deterministic. `fn` must be a module-level function
    so that workers can import it.
    """
    if threads > 1 and len(jobs) > 1:
        with futures.ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _perm_pair_maps(n: int) -> np.ndarray:
    """For each vertex permutation, where each pair bit lands."""
    pairs = pair_list(n)
    index = {}
    for t, (u, v) in enumerate(pairs):
        index[(u, v)] = t
    maps = []
    for perm in permutations(range(n)):
        maps.append([
            index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs
        ])
    return np.asarray(maps, dtype=np.int64)


def canonical_keep_mask(masks: np.ndarray, n: int) -> np.ndarray:
    """True where the mask is minimal over all vertex relabelings."""
    npairs = pair_count(n)
    masks = masks.astype(np.int64)
    best = masks.copy()
    img = np.empty_like(masks)
    for pm in _perm_pair_maps(n)[1:]:
        img[:] = 0
        for t in range(npairs):
            img |= ((masks >> t) & 1) << int(pm[t])
        np.minimum(best, img, out=best)
    return best == masks


def enumerate_graphs(n: int, canonical: bool = False) -> Iterator[Graph]:
    """All labeled graphs of order n in increasing bitmask order.

    With canonical=True only lexicographically minimal representatives of
    each isomorphism class are yielded.
    """
    _check_order(n)
    for lo, hi in mask_ranges(n):
        masks = np.arange(lo, hi, dtype=np.int64)
        if canonical:
            masks = masks[canonical_keep_mask(masks, n)]
        for mask in masks:
            yield Graph(n, int(mask))


def adjacency_batch(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) stack of adjacency matrices for the given mask array."""
    b = masks.shape[0]
    a = np.zeros((b, n, n))
    for t, (u, v) in enumerate(pair_list(n)):
        bit = ((masks >> t) & 1).astype(float)
        a[:, u, v] = bit
        a[:, v, u] = bit
    return a


def chunk_quantities(n: int, lo: int, hi: int, *, need_chi: bool = False,
                     canonical: bool = False) -> dict:
    """Spectra and invariants for every graph in one mask range.

    Returns masks, descending eigenvalues `eigs`, descending singular values
    `sig`, edge counts `m`, and (optionally) chromatic numbers `chi`.
    """
    masks = np.arange(lo, hi, dtype=np.int64)
    if canonical:
        masks = masks[canonical_keep_mask(masks, n)]
    out = {"masks": masks}
    if masks.size == 0:
        out["eigs"] = np.zeros((0, n))
        out["sig"] = np.zeros((0, n))
        out["m"] = np.zeros(0, dtype=np.int64)
        if need_chi:
            out["chi"] = np.zeros(0, dtype=np.int64)
        return out
    if n == 1:
        eigs = np.zeros((masks.size, 1))
    else:
        eigs = symmetric_eigenvalues_batch(adjacency_batch(masks, n))
    out["eigs"] = eigs
    out["sig"] = np.sort(np.abs(eigs), axis=1)[:, ::-1]
    mcounts = np.zeros(masks.size, dtype=np.int64)
    for t in range(pair_count(n)):
        mcounts += ((masks >> t) & 1)
    out["m"] = mcounts
    if need_chi:
        pairs = pair_list(n)
        chi = np.empty(masks.size, dtype=np.int64)
        for i, mask in enumerate(masks.tolist()):
            chi[i] = chromatic_number_masks(neighbor_masks_of(n, mask, pairs))
        out["chi"] = chi
    return out
