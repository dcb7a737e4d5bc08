"""Graph representation, graph6 interchange, named families, and invariants.

Graphs are simple and undirected. A graph of order n is held in three
forms, with one converter for each direction:

- the int mask, a bitset over the C(n,2) unordered vertex pairs in graph6
  column order: pair (u, v) with u < v has index v*(v-1)/2 + u, so graph6
  round-trips and exhaustive enumeration by increasing mask are plain
  integer arithmetic;
- the pair-bit vector, the mask's C(n,2) 0/1 bits in pair index order,
  the exchange form: `Graph._pair_bits` reads it off a mask and
  `Graph.from_pair_bits` packs it back;
- the adjacency array, (n, n), whose strict lower triangle read row-major
  is the pair-bit vector: `adjacency_from_pair_bits` builds it (for any
  leading axes) and `Graph.from_adjacency` reads the graph back.

Neighbour bitsets, the chromatic number's input, are packed off a 0/1
adjacency by `row_masks`. The named families, graph and matrix, are built
by name through `family`.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .cmatrix import CMatrix
from .constructions import all_ones, dft_matrix, sylvester_hadamard
from .errors import (
    BadFamilyParams,
    LoopEdge,
    MalformedGraph6,
    OverflowRisk,
    TooLarge,
    TooLargeForExact,
    VertexOutOfRange,
)


def pair_index(u: int, v: int) -> int:
    """Bitset index of the unordered pair {u, v}."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_list(n: int) -> list[tuple[int, int]]:
    """Pairs in index order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def adjacency_from_pair_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """Symmetric 0/1 float adjacency matrices, (..., n, n), of pair bits (..., C(n,2)).

    Pair t = (u, v), u < v, is ordered by v then u: the row-major order of
    the strict lower triangle, read as (v, u).
    """
    a = np.zeros(bits.shape[:-1] + (n, n))
    a[(..., *np.tril_indices(n, -1))] = bits  # the indices are freed before the sum
    return a + np.swapaxes(a, -1, -2)


def row_masks(adj: np.ndarray) -> list:
    """Per-row bitsets of a boolean or integer 0/1 array (..., n, n), as lists.

    Bit v of row u is adj[..., u, v], so an adjacency gives each vertex's
    neighbour bitset; leading axes become nested lists.
    """
    rows = np.packbits(adj, axis=-1, bitorder="little")
    width, raw = rows.shape[-1], rows.tobytes()
    masks = np.empty(rows.size // width, dtype=object)
    masks[:] = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    return masks.reshape(adj.shape[:-1]).tolist()


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if not isinstance(n, int) or n < 1:
            raise ValueError("graph order must be a positive integer")
        if mask < 0 or mask >> pair_count(n):
            raise ValueError("edge bitset out of range for this order")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_pair_bits(cls, n: int, bits: np.ndarray) -> "Graph":
        """The graph whose pair t is an edge iff bits[t], the inverse of `_pair_bits`.

        `bits` holds 0/1 values, in pair index order, for the first len(bits)
        of the C(n,2) pairs; the pairs past its end are absent.
        """
        packed = np.packbits(bits, bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """The graph of a symmetric (n, n) adjacency array, nonzero meaning an edge.

        Only the strict lower triangle is read; row-major, it is pair index order.
        """
        n = len(adj)
        return cls.from_pair_bits(n, adj[np.tri(n, k=-1, dtype=bool)] != 0)

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs; duplicates are collapsed."""
        cls(n)  # the order check, before the first pair is read
        index = []
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            index.append(pair_index(u, v))
        # bits only up to the last pair named, so a few edges cost little at any order
        bits = np.zeros(max(index, default=-1) + 1, dtype=np.uint8)
        bits[index] = 1
        return cls.from_pair_bits(n, bits)

    def num_edges(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u ~ v: public API, the one-pair query that library callers make on a graph."""
        if u == v:
            return False
        return bool((self.mask >> pair_index(u, v)) & 1)

    def _pair_bits(self) -> np.ndarray:
        """The mask as C(n,2) 0/1 pair indicators, in pair index order."""
        npairs = pair_count(self.n)
        raw = np.frombuffer(self.mask.to_bytes((npairs + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, bitorder="little")[:npairs]

    def edges(self) -> list[tuple[int, int]]:
        """The (u, v) pairs, u < v, in pair index order."""
        v, u = np.tril_indices(self.n, -1)
        present = self._pair_bits().astype(bool)
        return list(zip(u[present].tolist(), v[present].tolist()))

    def _boolean_adjacency(self) -> np.ndarray:
        """The (n, n) adjacency as booleans."""
        n = self.n
        adj = np.zeros((n, n), dtype=bool)
        adj[np.tri(n, k=-1, dtype=bool)] = self._pair_bits()  # row-major: pair index order
        return adj | adj.T

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor bitsets (bit v set in entry u iff u ~ v).

        The packed rows of the boolean adjacency, in time linear in the pair count.
        """
        return row_masks(self._boolean_adjacency())

    def adjacency_matrix(self) -> CMatrix:
        """0/1 symmetric adjacency matrix with zero diagonal."""
        return CMatrix.from_array(adjacency_from_pair_bits(self._pair_bits(), self.n))

    def complement(self) -> "Graph":
        return Graph(self.n, self.mask ^ ((1 << pair_count(self.n)) - 1))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.mask == other.mask

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


# --- graph6 -----------------------------------------------------------------

_GRAPH6_HEADER = ">>graph6<<"
_GRAPH6_CHARS = re.compile(r"[?-~]+")  # chr(63)..chr(126), each code 63 plus six bits


def _is_graph6_line(line: str) -> bool:
    """Whether one stripped line starts with the header or is all graph6 characters."""
    return line.startswith(_GRAPH6_HEADER) or _GRAPH6_CHARS.fullmatch(line) is not None


def write_graph6(g: Graph) -> str:
    """Header-less graph6 string; supports 1 <= n <= 62."""
    n = g.n
    if n > 62:
        raise MalformedGraph6(f"graph6 writer supports n <= 62, got {n}")
    width = -(-pair_count(n) // 6) * 6
    bits = format(g.mask, f"0{width}b")[::-1]  # pair t at position t, zero padded
    return chr(63 + n) + "".join(
        chr(63 + int(bits[i:i + 6], 2)) for i in range(0, width, 6))


def parse_graph6(text: str) -> Graph:
    """Parse a graph6 string (n <= 62), with or without the header; strict about padding."""
    s = text.strip().removeprefix(_GRAPH6_HEADER)
    if not s:
        raise MalformedGraph6("empty graph6 string")
    if not _GRAPH6_CHARS.fullmatch(s):
        raise MalformedGraph6("character outside graph6 range")
    codes = [ord(ch) for ch in s]
    n = codes[0] - 63
    if n == 0:
        raise MalformedGraph6("order-0 graphs are not supported")
    if n == 63:
        raise MalformedGraph6("extended (n > 62) graph6 headers are not supported")
    npairs = pair_count(n)
    expected = 1 + (npairs + 5) // 6
    if len(codes) != expected:
        raise MalformedGraph6(
            f"expected {expected} characters for n={n}, got {len(codes)}"
        )
    bits = "".join(format(c - 63, "06b") for c in codes[1:])  # pair t at position t
    if "1" in bits[npairs:]:
        raise MalformedGraph6("nonzero padding bits")
    return Graph(n, int(bits[:npairs][::-1] or "0", 2))


# --- named families ----------------------------------------------------------

def _capped_order(n: int, what: str) -> int:
    """n, or TooLarge past `MAX_ORDER`, before anything of order size is allocated."""
    if n > MAX_ORDER:
        raise TooLarge(f"{what} capped at {MAX_ORDER}, got {n}")
    return n


def complete(n: int) -> Graph:
    if n < 1:
        raise BadFamilyParams("complete(n) needs n >= 1")
    return Graph(n, (1 << pair_count(_capped_order(n, "complete order"))) - 1)


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise BadFamilyParams("empty(n) needs n >= 1")
    return Graph(n)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices grouped part by part."""
    sizes = list(sizes)
    if not sizes or any((not isinstance(s, int)) or s < 1 for s in sizes):
        raise BadFamilyParams("part sizes must be positive integers")
    _capped_order(sum(sizes), "complete_multipartite order")
    part = np.repeat(np.arange(len(sizes)), sizes)
    return Graph.from_adjacency(part[:, None] != part)


def perfect_matching(n: int) -> Graph:
    """(n/2) disjoint edges."""
    if n < 2 or n % 2:
        raise BadFamilyParams("perfect_matching(n) needs even n >= 2")
    _capped_order(n, "perfect_matching order")
    return Graph.from_edge_list(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadFamilyParams("cycle(n) needs n >= 3")
    _capped_order(n, "cycle order")
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise BadFamilyParams("path(n) needs n >= 1")
    _capped_order(n, "path order")
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def paley(q: int) -> Graph:
    """Paley graph on Z_q: x ~ y iff x - y is a nonzero quadratic residue.

    Requires q prime with q = 1 (mod 4), so that -1 is a residue and the
    relation is symmetric; q at most `MAX_ORDER`, so trial division is short.
    """
    _capped_order(q, "paley order")
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise BadFamilyParams(f"paley({q}): order must be prime")
    if q % 4 != 1:
        raise BadFamilyParams(f"paley({q}): need q = 1 (mod 4)")
    residue = np.zeros(q, dtype=bool)
    residue[np.arange(1, q) ** 2 % q] = True
    i = np.arange(q)
    return Graph.from_adjacency(residue[(i[:, None] - i) % q])


def with_isolated(g: Graph, t: int) -> Graph:
    """The same graph plus t extra isolated vertices."""
    if not isinstance(g, Graph):
        raise TypeError(f"the base must be a Graph, not {type(g).__name__}")
    if t < 0:
        raise BadFamilyParams("isolated vertex count must be >= 0")
    return Graph(g.n + t, g.mask)  # pair indices do not depend on the order


def blow_up(g: Graph, t: int) -> Graph:
    """Replace each vertex by an independent set of size t.

    Blobs are fully joined iff the original vertices were adjacent, so the
    adjacency matrix is A(G) (x) J_t.
    """
    if not isinstance(g, Graph):
        raise TypeError(f"the base must be a Graph, not {type(g).__name__}")
    if t < 1:
        raise BadFamilyParams("blow-up coefficient must be >= 1")
    _capped_order(g.n * t, "blow_up order")
    return Graph.from_adjacency(np.kron(g._boolean_adjacency(), np.ones((t, t), dtype=bool)))


# every name `construct` takes; blow_up and with_isolated take the base graph first
_FAMILIES = {
    "complete": complete,
    "complete_multipartite": lambda *sizes: complete_multipartite(sizes),
    "perfect_matching": perfect_matching,
    "cycle": cycle,
    "path": path,
    "paley": paley,
    "empty": empty_graph,
    "blow_up": blow_up,
    "with_isolated": with_isolated,
    "all_ones": all_ones,
    "dft": dft_matrix,
    "hadamard": sylvester_hadamard,
}


def family(kind: str, params: Sequence) -> Union[Graph, CMatrix]:
    """A named graph or matrix family by kind string; bad parameters are BadFamilyParams."""
    try:
        builder = _FAMILIES[kind]
    except KeyError:
        raise BadFamilyParams(
            f"unknown family {kind!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    try:
        return builder(*params)
    except TypeError as exc:
        raise BadFamilyParams(f"bad parameters for {kind}: {exc}") from None


# --- chromatic number ---------------------------------------------------------

def _greedy_clique_bound(adj: list[int], order: list[int]) -> int:
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~adj[v]:
            continue
        clique_mask |= 1 << v
        size += 1
    return size


def _greedy_coloring_bound(adj: list[int], order: list[int]) -> int:
    """Colors used by first-fit coloring in the given vertex order."""
    classes: list[int] = []  # one vertex bitset per color class
    for v in order:
        nb = adj[v]
        for c, members in enumerate(classes):
            if not members & nb:
                classes[c] = members | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _k_colorable(adj: list[int], k: int) -> bool:
    """Whether the graph has a proper k-coloring: a DSATUR decision search.

    Each node colors the uncolored vertex that sees the most distinct colors
    among its neighbors, ties broken by most uncolored neighbors (Brelaz,
    CACM 22, 1979). It tries every color in use that no neighbor has, plus
    at most one new color. `forbidden[u]` is the bitset of colors on u's
    colored neighbors; it is updated in place and undone on backtrack, and a
    branch fails as soon as some uncolored vertex has all k colors forbidden.
    """
    full = (1 << k) - 1
    forbidden = [0] * len(adj)

    def search(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        v, best_sat, best_deg = -1, -1, -1
        rest = uncolored
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            sat = forbidden[u].bit_count()
            if sat >= best_sat:
                deg = (adj[u] & uncolored).bit_count()
                if sat > best_sat or deg > best_deg:
                    v, best_sat, best_deg = u, sat, deg
        uncolored ^= 1 << v
        nbrs = adj[v] & uncolored
        free = ~forbidden[v] & ((1 << min(used + 1, k)) - 1)
        while free:
            color = free & -free
            free ^= color
            touched = []
            alive = True
            rest = nbrs
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                f = forbidden[u]
                if not f & color:
                    forbidden[u] = f | color
                    touched.append(u)
                    if f | color == full:
                        alive = False
                        break
            if alive and search(uncolored, max(used, color.bit_length())):
                return True
            for u in touched:
                forbidden[u] ^= color
        return False

    return search((1 << len(adj)) - 1, 0)


def _clique_number(adj: list[int], lo: int, hi: int) -> int:
    """The clique number clamped to [lo, hi] (lo <= hi), from neighbor bitsets.

    A branch and bound: each node colors its candidate set greedily, one
    color class at a time. A clique takes at most one vertex from each
    class, so branching on a vertex of color c adds at most c vertices, and
    the node is cut as soon as size + c cannot beat the best clique found
    (Tomita & Seki, DMTCS 2003, LNCS 2731). Vertices are branched on from
    the highest color down, and each leaves the candidate set once its
    branch is done. The search looks only for cliques larger than `lo`, so
    a caller that knows of a clique of lo vertices gets omega exactly, and
    it stops as soon as it holds a clique of `hi` vertices.
    """
    best = lo

    def expand(cand: int, size: int) -> None:
        nonlocal best
        colored = []  # (vertex bit, color), in color order
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                low = avail & -avail
                avail &= ~(adj[low.bit_length() - 1] | low)
                uncolored ^= low
                colored.append((low, color))
        for low, color in reversed(colored):
            if size + color <= best or best >= hi:
                return
            grown = cand & adj[low.bit_length() - 1]
            if grown:
                expand(grown, size + 1)
            elif size + 1 > best:
                best = size + 1
            cand ^= low

    if best < hi:
        expand((1 << len(adj)) - 1, 0)
    return min(best, hi)


def chromatic_number_masks(adj: list[int]) -> int:
    """Exact chromatic number from per-vertex neighbor bitsets."""
    n = len(adj)
    if all(a == 0 for a in adj):
        return 1
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    lb = _greedy_clique_bound(adj, order)
    ub = _greedy_coloring_bound(adj, order)
    if lb < ub:  # the greedy clique is a clique, and omega <= chi <= ub
        lb = _clique_number(adj, lb, ub)
    if lb < ub:
        # Each color class is an independent set, so chi >= n / alpha. The
        # search starts from a greedy independent set, smallest degrees
        # first, and stops at ceil(n / lb) vertices, which would leave lb
        # as it is.
        full = (1 << n) - 1
        complement = [full & ~a & ~(1 << v) for v, a in enumerate(adj)]
        greedy = _greedy_clique_bound(complement, order[::-1])
        alpha = _clique_number(complement, greedy, -(-n // lb))
        lb = max(lb, -(-n // alpha))
    lb = max(lb, 2)
    for k in range(lb, ub):
        if _k_colorable(adj, k):
            return k
    return ub


CHI_MAX_ORDER = 32  # largest order chromatic_number accepts
MAX_ORDER = 2000  # largest order `random` samples, an edge list names or a family builds


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; order capped at CHI_MAX_ORDER (32).

    A DSATUR branch and bound between a lower and an upper bound: k is
    tried upward from the lower bound by `_k_colorable`, and the first k
    that admits a coloring is chi. A greedy clique and a greedy first-fit
    coloring bracket chi first. When they differ, the lower bound is raised
    to max(omega, ceil(n / alpha)), with the clique number omega and the
    independence number alpha from `_clique_number` on the graph and on its
    complement. Every color class is an independent set, and on
    vertex-transitive graphs such as Paley graphs n / alpha is the
    fractional chromatic number, so chi(paley(29)) = 8 = ceil(29 / 4) needs
    no refutation of 7 colors.
    """
    if g.n > CHI_MAX_ORDER:
        raise TooLargeForExact(
            f"exact coloring capped at order {CHI_MAX_ORDER}, got {g.n}")
    return chromatic_number_masks(g.neighbor_masks())


# --- closed walks ---------------------------------------------------------------

def closed_walks(g: Graph, length: int) -> int:
    """Number of closed walks of the given even length: trace of A^length.

    Computed in exact integer arithmetic as |A^k|_F^2 with k = length/2.
    A^2 counts common neighbours, a popcount of two neighbour bitsets, and
    each further power of A sums neighbour rows. Guarded to even length
    <= 16 and order <= 64.
    """
    if length < 2 or length % 2:
        raise OverflowRisk("walk length must be a positive even integer")
    if length > 16 or g.n > 64:
        raise OverflowRisk("guard: length <= 16 and order <= 64")
    adj = g.neighbor_masks()
    if length == 2:
        return sum(a.bit_count() for a in adj)
    power = [[(a & b).bit_count() for b in adj] for a in adj]
    zero = [0] * g.n
    neighbours = [[j for j in range(g.n) if a >> j & 1] for a in adj]
    for _ in range(length // 2 - 2):
        # row i of A^(j+1) = A A^j is the sum of the rows of i's neighbours
        power = [[sum(col) for col in zip(*(power[j] for j in nbrs))] if nbrs else zero
                 for nbrs in neighbours]
    return sum(x * x for row in power for x in row)


# --- strongly regular detection -------------------------------------------------

def is_strongly_regular(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """Parameters (n, k, lambda, mu) when G is strongly regular, else None.

    Adjacent pairs must share a constant lambda neighbors and nonadjacent
    pairs a constant mu. Vacuous slots are reported as 0: complete graphs
    come back as (n, n-1, n-2, 0) and empty graphs as (n, 0, 0, 0).
    """
    n = g.n
    adj = g.neighbor_masks()
    k = adj[0].bit_count()
    if any(a.bit_count() != k for a in adj):
        return None
    lam = None
    mu = None
    for v in range(1, n):
        for u in range(v):
            common = (adj[u] & adj[v]).bit_count()
            if (adj[u] >> v) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return (n, k, lam if lam is not None else 0, mu if mu is not None else 0)
