"""Exhaustive enumeration of small-order graphs, one isomorphism class at a time.

Graphs of order n are identified with edge bitmasks 0 .. 2^C(n,2)-1 in the
package's pair order. Everything the sweep and the searches read (spectra,
edge counts, chromatic numbers) is a graph invariant, so each order gets one
class table, built on first use and kept for the life of the process. It is
made by orbit marking (Read, "Every one a winner", 1978): walk the masks in
increasing order, take the smallest unmarked mask as the representative of a
new class, and mark its orbit under all n! vertex relabellings. The table
holds each class's representative (the smallest mask of its orbit, which is
what `canonical` means), its weight (the orbit size n!/|Aut G|), and the
class of every labelled mask. Spectra are solved once per class, as one stack
through the eigensolver kernel (`eigen.symmetric_eigenvalues_batch`), and
chromatic numbers once per class on first use.

Labelled results are weighted sums over the classes. The sweep and the
searches read the whole table at once, in the calling process; at order 8
that is 12,346 classes, few enough to evaluate as one stack.
"""

from __future__ import annotations

import functools
from itertools import permutations
from typing import Iterator

import numpy as np

from .eigen import symmetric_eigenvalues_batch
from .errors import TooLarge
from .graphs import (
    Graph,
    chromatic_number_masks,
    neighbor_masks_of,
    pair_count,
    pair_list,
)

MAX_ENUM_ORDER = 8
CHUNK_SIZE = 1 << 13  # labelled masks per range of `mask_ranges`
_WINDOW = 1 << 12     # masks looked at per step when looking for an unmarked mask


def _check_order(n: int) -> None:
    if n < 1 or n > MAX_ENUM_ORDER:
        raise TooLarge(f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")


def mask_ranges(n: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) mask ranges of CHUNK_SIZE labelled graphs covering order n."""
    _check_order(n)
    total = 1 << pair_count(n)
    return [(lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]


def _perm_pair_maps(n: int) -> np.ndarray:
    """(n!, C(n,2)): for each vertex permutation, where each pair bit lands."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    pairs = np.array(pair_list(n), dtype=np.int64).reshape(-1, 2)
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return hi * (hi - 1) // 2 + lo


def adjacency_batch(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) stack of adjacency matrices for the given mask array."""
    b = masks.shape[0]
    a = np.zeros((b, n, n))
    for t, (u, v) in enumerate(pair_list(n)):
        bit = ((masks >> t) & 1).astype(float)
        a[:, u, v] = bit
        a[:, v, u] = bit
    return a


class ClassTable:
    """The isomorphism classes of the order-n graphs, numbered in representative order.

    `reps` are the representatives, ascending; `weights` the orbit sizes;
    `index` the class of every labelled mask (int16, enough for the 12,346
    classes of order 8, and 512 MB there), read only by the labelled path of
    `chunk_quantities`; `eigs` and `sig` the descending eigenvalues and
    singular values of each class, `m` its edge count. `first_members` gives
    each example its class, so the sweep confirms a flagged class once, on
    its representative, without reading `index`.
    """

    def __init__(self, n: int):
        self.n = n
        total = 1 << pair_count(n)
        # a pair bit's image under each relabelling; an orbit is the row sums
        # over the representative's set bits
        self._bit_images = np.left_shift(1, _perm_pair_maps(n))
        self.index = np.full(total, -1, dtype=np.int16)
        reps, weights = [], []
        pos = 0
        while pos < total:
            free = np.flatnonzero(self.index[pos:pos + _WINDOW] < 0)
            if free.size == 0:
                pos += _WINDOW
                continue
            rep = pos + int(free[0])
            images = self._images(rep)
            self.index[images] = len(reps)
            reps.append(rep)
            # orbit-stabiliser: n! / |Aut|, Aut being the relabellings that fix rep
            weights.append(images.size // np.count_nonzero(images == rep))
            pos = rep + 1
        self.reps = np.array(reps, dtype=np.int64)
        self.weights = np.array(weights, dtype=np.int64)
        self.eigs = symmetric_eigenvalues_batch(adjacency_batch(self.reps, n))
        self.sig = np.sort(np.abs(self.eigs), axis=1)[:, ::-1]
        self.m = np.zeros(self.reps.size, dtype=np.int64)
        for t in range(pair_count(n)):
            self.m += (self.reps >> t) & 1
        self._chi = np.zeros(self.reps.size, dtype=np.int64)  # 0: not solved yet

    def _images(self, mask: int) -> np.ndarray:
        bits = [t for t in range(self._bit_images.shape[1]) if mask >> t & 1]
        return self._bit_images[:, bits].sum(axis=1)

    def orbit(self, c: int) -> np.ndarray:
        """Every labelled mask of class c, ascending."""
        return np.unique(self._images(int(self.reps[c])))

    def counts(self, canonical: bool = False) -> np.ndarray:
        """How many scanned graphs each class stands for: its orbit size, or 1 when canonical."""
        return np.ones(self.reps.size, dtype=np.int64) if canonical else self.weights

    def chi(self, classes: np.ndarray) -> np.ndarray:
        """Chromatic numbers of the given classes, each solved on first use."""
        pairs = pair_list(self.n)
        for c in np.unique(classes[self._chi[classes] == 0]).tolist():
            adj = neighbor_masks_of(self.n, int(self.reps[c]), pairs)
            self._chi[c] = chromatic_number_masks(adj)
        return self._chi[classes]

    def first_members(self, classes, limit: int, *,
                      canonical: bool = False) -> list[tuple[int, int]]:
        """(class, mask) of the `limit` smallest masks whose class is among `classes`.

        Labelled, that is every member of each class; canonical, only the
        representatives. A representative is the smallest mask of its
        class, so only the `limit` classes with the smallest representatives
        can hold the answer.
        """
        first = np.unique(np.asarray(classes, dtype=np.int64))[:limit].tolist()
        if canonical:
            return [(c, int(self.reps[c])) for c in first]
        # nor can a class give more than its `limit` smallest members
        members = sorted((mk, c) for c in first for mk in self.orbit(c)[:limit].tolist())
        return [(c, mk) for mk, c in members[:limit]]


@functools.cache
def class_table(n: int) -> ClassTable:
    """The order-n class table, built once per process."""
    _check_order(n)
    return ClassTable(n)


def enumerate_graphs(n: int, canonical: bool = False) -> Iterator[Graph]:
    """All labeled graphs of order n in increasing bitmask order.

    With canonical=True only the representative of each isomorphism class,
    the smallest mask of its orbit, is yielded.
    """
    _check_order(n)
    masks = class_table(n).reps.tolist() if canonical else range(1 << pair_count(n))
    for mask in masks:
        yield Graph(n, mask)


def chunk_quantities(n: int, lo: int, hi: int, *, need_chi: bool = False,
                     canonical: bool = False) -> dict:
    """Spectra and invariants for every graph in one mask range, read from the class table.

    Returns the masks (with canonical=True only the class representatives
    among them), their `classes`, descending eigenvalues `eigs`, descending
    singular values `sig`, edge counts `m`, and (optionally) chromatic
    numbers `chi`.
    """
    table = class_table(n)
    if canonical:
        first, last = np.searchsorted(table.reps, [lo, hi])
        classes = np.arange(first, last, dtype=np.int64)
        masks = table.reps[first:last]
    else:
        masks = np.arange(lo, hi, dtype=np.int64)
        classes = table.index[lo:hi].astype(np.int64)
    out = {
        "masks": masks,
        "classes": classes,
        "eigs": table.eigs[classes],
        "sig": table.sig[classes],
        "m": table.m[classes],
    }
    if need_chi:
        out["chi"] = table.chi(classes)
    return out
