"""Exhaustive enumeration of small-order graphs, one isomorphism class at a time.

Graphs of order n are identified with edge bitmasks 0 .. 2^C(n,2)-1 in the
package's pair order. Everything the sweep and the searches read (spectra,
edge counts, chromatic numbers) is a graph invariant, so each order gets one
class table, built on first use and kept for the life of the process. The
classes are generated by vertex extension: every order-n graph is an order
n-1 graph plus vertex n-1, whose n-1 pairs are the top pair bits, so adding
each of the 2^(n-1) neighbourhoods to each order n-1 representative reaches
every class. Each candidate's images under all n! vertex relabellings are
one float64 matrix product (the masks stay below 2^28, so it is exact); the
smallest image is its representative (what `canonical` means), and the
number of relabellings that reach it is |Aut G|, so the class weight is the
orbit size n!/|Aut G|. Spectra are solved once per class, as one stack
through the eigensolver kernel (`eigen.symmetric_eigenvalues_batch`), and
chromatic numbers for every class on first use.

A class table is also the bound rows' record for its classes (the fields
are documented on `bounds.SubjectContext`), so the sweep runs the rows on
the table itself and the searches read its spectra. Labelled results are
weighted sums over the classes. The sweep and the searches read the whole
table at once, in the calling process; at order 8 that is 12,346 classes,
few enough to evaluate as one stack.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations
from typing import Iterator

import numpy as np

from .bounds import graph_fields
from .eigen import symmetric_eigenvalues_batch, symmetric_singular_values
from .errors import TooLarge
from .graphs import (
    Graph,
    adjacency_from_pair_bits,
    chromatic_number_masks,
    pair_count,
    pair_list,
    row_masks,
)

MAX_ENUM_ORDER = 8
_BLOCK = 64  # candidates per image product (at order 8, 64 ran faster than 256)


def _check_order(n: int) -> None:
    if n < 1 or n > MAX_ENUM_ORDER:
        raise TooLarge(f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")


def _perm_pair_maps(n: int) -> np.ndarray:
    """(n!, C(n,2)): for each vertex permutation, where each pair bit lands."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    pairs = np.array(pair_list(n), dtype=np.int64).reshape(-1, 2)
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return hi * (hi - 1) // 2 + lo


@functools.cache
def _bit_images(n: int) -> np.ndarray:
    """(C(n,2), n!) float64: the image of each pair bit under each relabelling."""
    return np.left_shift(1, _perm_pair_maps(n)).T.astype(np.float64)


def _mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, C(n,2)) 0/1 pair bits of the masks."""
    return (masks[:, None] >> np.arange(pair_count(n))) & 1


def _images(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n!) images of the masks under every relabelling, exact in float64."""
    return _mask_bits(masks, n).astype(np.float64) @ _bit_images(n)


@functools.cache
def _classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives (ascending) and orbit sizes of the order-n classes.

    The candidates are every order n-1 representative with vertex n-1 added,
    under each of its 2^(n-1) neighbourhoods (the top n-1 pair bits).
    """
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    top = np.arange(1 << (n - 1), dtype=np.int64) << pair_count(n - 1)
    candidates = (_classes(n - 1)[0][:, None] | top).ravel()
    least = np.empty(candidates.size)
    aut = np.empty(candidates.size, dtype=np.int64)
    for lo in range(0, candidates.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        images = _images(candidates[block], n)
        least[block] = images.min(axis=1)
        # the relabellings that reach the smallest image are a coset of Aut
        aut[block] = np.count_nonzero(images == least[block, None], axis=1)
    reps, first = np.unique(least.astype(np.int64), return_index=True)
    return reps, math.factorial(n) // aut[first]


def adjacency_batch(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) stack of adjacency matrices for the given mask array."""
    return adjacency_from_pair_bits(_mask_bits(masks, n), n)


class ClassTable:
    """The isomorphism classes of the order-n graphs, numbered in representative order.

    `reps` are the representatives, ascending; `weights` the orbit sizes.
    The rest is the bound rows' record of the classes, one per class in
    this order (`bounds.SubjectContext` documents the fields): `eigs` and
    `sig` are the descending eigenvalues and singular values, and `chi` the
    chromatic number, solved for every class on first use. The edge counts
    `m`, the shape, the entrywise norms and the flags are `bounds.graph_fields`,
    as a graph's `SubjectContext` has them.
    `first_members` gives each example its class, so the sweep puts a
    flagged class to the row's detector once, on its representative. It
    reads the ascending head of each class's orbit, at most `limit` masks,
    computed once per class and kept on the table (`_heads`, read-only).
    """

    def __init__(self, n: int):
        self.n = n
        self.reps, self.weights = _classes(n)
        self.size = self.reps.size
        # row-major, so that a row sum adds in the same order on every reader
        eigs = symmetric_eigenvalues_batch(adjacency_batch(self.reps, n))
        self.eigs = np.ascontiguousarray(eigs)
        self.sig = symmetric_singular_values(eigs)
        vars(self).update(graph_fields(n, _mask_bits(self.reps, n).sum(axis=1)))
        # every reader gets these arrays themselves, not copies
        for shared in (self.reps, self.weights, self.eigs, self.sig, self.m,
                       self.ent1, self.entinf, self.is_graph):
            shared.flags.writeable = False
        self._heads: dict[int, np.ndarray] = {}

    @functools.cached_property
    def chi(self) -> np.ndarray:
        adj = adjacency_batch(self.reps, self.n).astype(np.uint8)
        chi = np.array([chromatic_number_masks(masks) for masks in row_masks(adj)],
                       dtype=np.int64)
        chi.flags.writeable = False
        return chi

    def orbit(self, c: int) -> np.ndarray:
        """Every labelled mask of class c, ascending."""
        return np.unique(_images(self.reps[c:c + 1], self.n)).astype(np.int64)

    def _head(self, c: int, limit: int) -> np.ndarray:
        """The `limit` smallest masks of class c, ascending; kept for the next call."""
        head = self._heads.get(c)
        if head is None or head.size < min(limit, int(self.weights[c])):
            head = self.orbit(c)[:limit].copy()  # not a view that keeps the orbit
            head.flags.writeable = False
            self._heads[c] = head
        return head[:limit]

    def counts(self, canonical: bool = False) -> np.ndarray:
        """How many scanned graphs each class stands for: its orbit size, or 1 when canonical."""
        return np.ones(self.size, dtype=np.int64) if canonical else self.weights

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
        members = sorted((mk, c) for c in first for mk in self._head(c, limit).tolist())
        return [(c, mk) for mk, c in members[:limit]]


@functools.cache
def class_table(n: int) -> ClassTable:
    """The order-n class table, built once per process."""
    _check_order(n)
    return ClassTable(n)


def clear_class_tables() -> None:
    """Forget every class table (with the orbit heads kept on it) and the
    classes and relabellings behind them.

    The next `class_table(n)` is then a cold build: it generates the classes
    again, as well as solving their spectra and chi.
    """
    class_table.cache_clear()
    _classes.cache_clear()
    _bit_images.cache_clear()


def enumerate_graphs(n: int, canonical: bool = False) -> Iterator[Graph]:
    """All labeled graphs of order n in increasing bitmask order.

    With canonical=True only the representative of each isomorphism class,
    the smallest mask of its orbit, is yielded.
    """
    _check_order(n)
    masks = _classes(n)[0].tolist() if canonical else range(1 << pair_count(n))
    for mask in masks:
        yield Graph(n, mask)


def chunk_quantities(n: int) -> ClassTable:
    """The order-n class table: the bound rows' record of its classes and their spectra."""
    return class_table(n)
