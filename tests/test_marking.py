"""Orbit marking, kept as the oracle for the class table, and a labelled gather.

The class table is generated by vertex extension. Orbit marking (Read,
"Every one a winner", 1978) is the builder it replaced: walk the masks in
increasing order, take the smallest unmarked mask as the representative of
a new class, and mark its orbit under all n! vertex relabellings. Besides
the representatives and orbit sizes it gives the class of every labelled
mask (an int16 array over all 2^C(n,2) masks, 512 MB at order 8), which
`chunk_quantities` below uses to read the table's quantities for a range
of labelled masks.
"""

import functools

import numpy as np

from spectranorm.enumeration import _perm_pair_maps, class_table
from spectranorm.graphs import pair_count

CHUNK_SIZE = 1 << 13  # labelled masks per range of `mask_ranges`
_WINDOW = 1 << 12     # masks looked at per step when looking for an unmarked mask


def mask_ranges(n: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) mask ranges of CHUNK_SIZE labelled graphs covering order n."""
    total = 1 << pair_count(n)
    return [(lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]


@functools.cache
def marking_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, weights, index) of the order-n classes, by orbit marking."""
    total = 1 << pair_count(n)
    # a pair bit's image under each relabelling; an orbit is the row sums
    # over the representative's set bits
    bit_images = np.left_shift(1, _perm_pair_maps(n))
    index = np.full(total, -1, dtype=np.int16)
    reps, weights = [], []
    pos = 0
    while pos < total:
        free = np.flatnonzero(index[pos:pos + _WINDOW] < 0)
        if free.size == 0:
            pos += _WINDOW
            continue
        rep = pos + int(free[0])
        bits = [t for t in range(bit_images.shape[1]) if rep >> t & 1]
        images = bit_images[:, bits].sum(axis=1)
        index[images] = len(reps)
        reps.append(rep)
        # orbit-stabiliser: n! / |Aut|, Aut being the relabellings that fix rep
        weights.append(images.size // np.count_nonzero(images == rep))
        pos = rep + 1
    return np.array(reps, dtype=np.int64), np.array(weights, dtype=np.int64), index


def chunk_quantities(n: int, lo: int, hi: int, *, need_chi: bool = False) -> dict:
    """The class table's quantities for every labelled mask in [lo, hi).

    Returns the `masks`, their `classes` (found in the marking index),
    descending eigenvalues `eigs`, descending singular values `sig`, edge
    counts `m`, and (optionally) chromatic numbers `chi`.
    """
    table = class_table(n)
    classes = marking_classes(n)[2][lo:hi].astype(np.int64)
    out = {
        "masks": np.arange(lo, hi, dtype=np.int64),
        "classes": classes,
        "eigs": table.eigs[classes],
        "sig": table.sig[classes],
        "m": table.m[classes],
    }
    if need_chi:
        out["chi"] = table.chi[classes]
    return out


def test_mask_ranges_cover():
    ranges = mask_ranges(5)
    assert ranges[0][0] == 0 and ranges[-1][1] == 1 << pair_count(5)
    for (a1, b1), (a2, _) in zip(ranges, ranges[1:]):
        assert b1 == a2
