"""Graph model: construction, graph6, families, invariants."""

import itertools
import random

import numpy as np
import pytest

from spectranorm import graphs
from spectranorm.errors import (
    BadFamilyParams,
    LoopEdge,
    MalformedGraph6,
    OverflowRisk,
    TooLargeForExact,
    VertexOutOfRange,
)
from spectranorm.graphs import (
    Graph,
    _clique_number,
    blow_up,
    chromatic_number,
    closed_walks,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    family,
    is_strongly_regular,
    pair_count,
    pair_index,
    pair_list,
    paley,
    parse_graph6,
    path,
    perfect_matching,
    with_isolated,
    write_graph6,
)


def test_from_edge_list_basic():
    g = Graph.from_edge_list(2, [(0, 1)])
    assert g == complete(2)
    g = Graph.from_edge_list(3, [(0, 1), (0, 1), (1, 0)])
    assert g.num_edges() == 1  # duplicates collapsed
    with pytest.raises(LoopEdge):
        Graph.from_edge_list(3, [(0, 0)])
    with pytest.raises(VertexOutOfRange):
        Graph.from_edge_list(3, [(0, 3)])
    # edges() against the pair-list filter, and back, on a seeded order-300 graph
    bits = np.random.default_rng(300).integers(0, 2, size=pair_count(300))
    g = Graph(300, int("".join(map(str, bits[::-1])), 2))
    edges = g.edges()
    assert edges == [(u, v) for u, v in pair_list(300) if g.has_edge(u, v)]
    assert len(edges) == bits.sum() and Graph.from_edge_list(300, edges) == g
    # against a per-edge OR of the pair bits, on reversed and repeated pairs
    pairs = [(v, u) for u, v in edges[::-1]] + edges[:50]
    mask = 0
    for u, v in pairs:
        mask |= 1 << pair_index(u, v)
    assert mask == g.mask and Graph.from_edge_list(300, pairs).mask == mask


def test_graph6_known_strings():
    assert parse_graph6("A_") == complete(2)
    assert write_graph6(complete(2)) == "A_"
    assert write_graph6(Graph(1)) == "@"
    assert parse_graph6("@") == Graph(1)


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6, match="^character outside graph6 range$"):
        parse_graph6("junk\x01")
    with pytest.raises(MalformedGraph6, match="^empty graph6 string$"):
        parse_graph6("")
    with pytest.raises(MalformedGraph6, match="^order-0 graphs are not supported$"):
        parse_graph6("?")  # order 0
    with pytest.raises(MalformedGraph6, match="^expected 2 characters for n=2, got 3$"):
        parse_graph6("A_X")  # wrong length
    with pytest.raises(MalformedGraph6,
                       match=r"^extended \(n > 62\) graph6 headers are not supported$"):
        parse_graph6("~AAAA")  # extended header unsupported
    # padding bits must be zero: K_2's byte with a stray low bit set
    with pytest.raises(MalformedGraph6, match="^nonzero padding bits$"):
        parse_graph6("A" + chr(63 + 0b100001))
    with pytest.raises(MalformedGraph6, match="^graph6 writer supports n <= 62, got 63$"):
        write_graph6(Graph(63))


def test_graph6_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph(n, mask)
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_sampled_orders_6_7():
    rng = np.random.default_rng(1)
    for n in (6, 7):
        top = 1 << (n * (n - 1) // 2)
        for mask in rng.integers(0, top, size=2000):
            g = Graph(n, int(mask))
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_against_networkx():
    # independent implementation of the same published format
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(77)
    cases = []
    for n in range(1, 15):
        top = 1 << (n * (n - 1) // 2)
        cases += [Graph(n, int(mask) % top)
                  for mask in rng.integers(0, min(top, 1 << 62), size=25)]
    # rng.integers stops at 2^62; getrandbits draws masks of any width
    rnd = random.Random(77)
    for n in (15, 29, 40, 62):
        cases += [Graph(n, rnd.getrandbits(pair_count(n))) for _ in range(25)]
    for g in cases:
        s = write_graph6(g)
        gx = nx.from_graph6_bytes(s.encode())
        assert sorted(tuple(sorted(e)) for e in gx.edges()) == sorted(g.edges())
        assert nx.to_graph6_bytes(gx, header=False).decode().strip() == s
        assert parse_graph6(s) == g


def test_paley_small():
    assert paley(5) == cycle(5)
    assert is_strongly_regular(paley(13)) == (13, 6, 2, 3)
    assert is_strongly_regular(paley(17)) == (17, 8, 3, 4)
    with pytest.raises(BadFamilyParams):
        paley(9)  # composite
    with pytest.raises(BadFamilyParams):
        paley(7)  # 3 mod 4


def _canonical_mask(g: Graph) -> int:
    import itertools as it

    best = g.mask
    for perm in it.permutations(range(g.n)):
        img = 0
        for u, v in g.edges():
            img |= 1 << pair_index(perm[u], perm[v])
        best = min(best, img)
    return best


def test_families():
    assert _canonical_mask(complete_multipartite([2, 2])) == _canonical_mask(cycle(4))
    assert perfect_matching(6).num_edges() == 3
    assert all(a.bit_count() == 1 for a in perfect_matching(6).neighbor_masks())
    assert path(1) == Graph(1)
    assert empty_graph(3).num_edges() == 0
    with pytest.raises(BadFamilyParams):
        perfect_matching(5)
    with pytest.raises(BadFamilyParams):
        cycle(2)
    with pytest.raises(BadFamilyParams):
        complete_multipartite([2, 0])
    with pytest.raises(BadFamilyParams):
        family("no_such_family", [3])
    assert family("complete", [4]) == complete(4)


def test_with_isolated():
    g = with_isolated(complete(3), 2)
    assert g.n == 5 and g.num_edges() == 3
    assert with_isolated(complete(3), 0) == complete(3)
    assert family("with_isolated", [complete(3), 2]) == g
    with pytest.raises(BadFamilyParams):
        family("with_isolated", [3, 2])  # the base is a graph, not an order


def test_blow_up():
    assert blow_up(complete(2), 2) == complete_multipartite([2, 2])
    g = cycle(5)
    assert blow_up(g, 1) == g
    # adjacency of the blow-up is A (x) J_t
    t = 3
    a = complete(4).adjacency_matrix().data.real
    expect = np.kron(a, np.ones((t, t)))
    got = blow_up(complete(4), t).adjacency_matrix().data.real
    assert np.array_equal(got, expect)
    assert family("blow_up", [g, 2]) == blow_up(g, 2)
    with pytest.raises(BadFamilyParams):
        family("blow_up", [5, 2])  # the base is a graph, not an order


def _per_pair(n: int, adjacent) -> tuple[int, int]:
    """(n, mask) of the graph with u ~ v iff adjacent(u, v), set one pair at a time."""
    bits = "".join("1" if adjacent(u, v) else "0" for u, v in pair_list(n))
    return n, int(bits[::-1] or "0", 2)  # pair t is bit t


@pytest.mark.parametrize("q", [5, 13, 29, 101, 401])
def test_paley_equals_the_per_pair_build(q):
    residues = {x * x % q for x in range(1, q)}
    g = paley(q)
    assert (g.n, g.mask) == _per_pair(q, lambda u, v: (v - u) % q in residues)


@pytest.mark.parametrize("sizes", [[1], [1, 1], [1, 2, 3, 4], [300, 300]])
def test_complete_multipartite_equals_the_per_pair_build(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    g = complete_multipartite(sizes)
    assert (g.n, g.mask) == _per_pair(len(part), lambda u, v: part[u] != part[v])


@pytest.mark.parametrize("t", [2, 3])
def test_blow_up_equals_the_per_pair_build(t):
    rnd = random.Random(t)
    for n in (1, 2, 5, 13):
        for _ in range(4):
            g = Graph(n, rnd.getrandbits(pair_count(n)))
            b = blow_up(g, t)
            assert (b.n, b.mask) == _per_pair(n * t, lambda u, v: g.has_edge(u // t, v // t))


@pytest.mark.parametrize("t", [0, 1, 5])
def test_with_isolated_equals_the_per_pair_build(t):
    rnd = random.Random(10 + t)
    for n in (1, 2, 5, 13):
        g = Graph(n, rnd.getrandbits(pair_count(n)))
        h = with_isolated(g, t)
        assert (h.n, h.mask) == _per_pair(n + t, lambda u, v: v < n and g.has_edge(u, v))


def _brute_chromatic(g: Graph) -> int:
    edges = g.edges()
    if not edges:
        return 1
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    return g.n


def _mycielskian(g: Graph) -> Graph:
    """Mycielski's construction: chi goes up by one, the clique number stays."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges += [(u, n + v), (v, n + u)]
    edges += [(n + u, 2 * n) for u in range(n)]
    return Graph.from_edge_list(2 * n + 1, edges)


def _wheel(rim: int) -> Graph:
    return Graph.from_edge_list(rim + 1, cycle(rim).edges() + [(v, rim) for v in range(rim)])


def _kneser2(m: int) -> Graph:
    """Kneser graph K(m, 2): the 2-subsets of range(m), adjacent when disjoint."""
    subsets = list(itertools.combinations(range(m), 2))
    return Graph.from_edge_list(len(subsets), [
        (i, j) for j, b in enumerate(subsets) for i, a in enumerate(subsets[:j])
        if not set(a) & set(b)])


def test_chromatic_known_values():
    for n in range(1, 7):
        assert chromatic_number(complete(n)) == n
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(empty_graph(4)) == 1
    assert chromatic_number(complete_multipartite([2, 2, 2])) == 3
    assert chromatic_number(paley(13)) == 5
    assert chromatic_number(paley(29)) == 8
    petersen = Graph.from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                    + [(i, 5 + i) for i in range(5)])
    assert chromatic_number(petersen) == 3
    grotzsch = _mycielskian(cycle(5))  # M_11: triangle-free, so the clique bound is 2
    m23 = _mycielskian(grotzsch)
    assert (grotzsch.n, m23.n) == (11, 23)
    assert chromatic_number(grotzsch) == 4
    assert chromatic_number(m23) == 5
    for rim in (3, 5, 7, 9, 11):
        assert chromatic_number(_wheel(rim)) == 4
    assert chromatic_number(_wheel(8)) == 3
    # Kneser K(m, 2), chi = m - 2 (Lovasz); from m = 6 on, ceil(n / alpha) < chi,
    # so the search must still refute chi - 1
    for m in (5, 6, 7, 8):
        assert chromatic_number(_kneser2(m)) == m - 2
    assert chromatic_number(paley(5)) == 3
    assert chromatic_number(paley(17)) == 6
    with pytest.raises(TooLargeForExact):
        chromatic_number(empty_graph(33))


def test_chromatic_against_brute_force():
    for mask in range(1 << 6):  # all graphs on 4 vertices
        g = Graph(4, mask)
        assert chromatic_number(g) == _brute_chromatic(g)
    rng = np.random.default_rng(2)
    for mask in rng.integers(0, 1 << 10, size=60):
        g = Graph(5, int(mask))
        assert chromatic_number(g) == _brute_chromatic(g)


def _subset_dp_chromatic(n: int, adj: list[int]) -> int:
    """f(S) = 1 + min over independent I with min(S) in I, I within S, of f(S - I)."""
    full = (1 << n) - 1
    independent = [True] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        independent[s] = independent[rest] and not adj[v] & rest
    f = [0] * (1 << n)
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        best = n
        sub = rest
        while True:
            if independent[sub | low]:
                best = min(best, 1 + f[rest & ~sub])
            if sub == 0:
                break
            sub = (sub - 1) & rest
        f[s] = best
    return f[full]


def test_chromatic_against_graph_atlas():
    # networkx's atlas (all 1253 graphs with n <= 7) as inputs; the oracle is
    # the subset DP above
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for gx in atlas[1:]:  # entry 0 is the order-0 graph
        g = Graph.from_edge_list(gx.number_of_nodes(), gx.edges())
        assert chromatic_number(g) == _subset_dp_chromatic(g.n, g.neighbor_masks()), gx.edges()


def _assert_clique_and_independence_numbers(nx, g: Graph) -> None:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    omega = max(len(c) for c in nx.find_cliques(gx))
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(gx)))
    adj, co = g.neighbor_masks(), g.complement().neighbor_masks()
    assert (_clique_number(adj, 0, g.n), _clique_number(co, 0, g.n)) == (omega, alpha), \
        (g.n, g.mask)
    # a known clique of lo vertices and a stop at hi clamp omega to [lo, hi]
    for lo, hi in ((1, g.n), (omega, omega), (0, max(omega - 1, 0)), (omega + 1, g.n + 1)):
        assert _clique_number(adj, lo, hi) == min(max(omega, lo), hi), (g.n, g.mask, lo, hi)


def test_clique_number_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(29)
    for n in range(1, 33):
        for density in np.linspace(0.1, 0.9, 9):
            bits = rng.random(n * (n - 1) // 2) < density
            mask = sum(1 << int(t) for t in np.flatnonzero(bits))
            _assert_clique_and_independence_numbers(nx, Graph(n, mask))


def test_clique_number_against_graph_atlas():
    nx = pytest.importorskip("networkx")
    for gx in nx.graph_atlas_g()[1:]:  # entry 0 is the order-0 graph
        g = Graph.from_edge_list(gx.number_of_nodes(), gx.edges())
        _assert_clique_and_independence_numbers(nx, g)


def test_chromatic_starts_at_n_over_alpha(monkeypatch):
    # paley(29): the greedy clique bound is 4, but alpha = 4 gives chi >= 29/4,
    # so no k below chi = 8 is ever tried
    tried = []
    decide = graphs._k_colorable
    monkeypatch.setattr(graphs, "_k_colorable", lambda adj, k: tried.append(k) or decide(adj, k))
    assert chromatic_number(paley(29)) == 8
    assert min(tried, default=8) == 8


def test_closed_walks_known_values():
    assert closed_walks(complete(2), 2) == 2
    assert closed_walks(cycle(3), 2) == 6
    # frozen from the integer matrix-power oracle: spectrum {2,0,0,-2}
    assert closed_walks(cycle(4), 4) == 32
    assert closed_walks(empty_graph(3), 4) == 0


def test_closed_walks_guards():
    with pytest.raises(OverflowRisk):
        closed_walks(complete(3), 3)  # odd
    with pytest.raises(OverflowRisk):
        closed_walks(complete(3), 18)
    with pytest.raises(OverflowRisk):
        closed_walks(empty_graph(65), 2)


def test_closed_walks_equals_trace_powers():
    rng = np.random.default_rng(9)
    for mask in rng.integers(0, 1 << 15, size=25):
        g = Graph(6, int(mask))
        a = g.adjacency_matrix().data.real.astype(np.int64)
        for length in (2, 4, 6):
            ref = int(np.trace(np.linalg.matrix_power(a, length)))
            assert closed_walks(g, length) == ref


def _int_matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(x)
    yt = [[y[i][j] for i in range(n)] for j in range(n)]
    return [[sum(a * b for a, b in zip(row, col)) for col in yt] for row in x]


def test_closed_walks_equals_integer_matrix_powers():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph(n, mask)
            a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]
            square = power = _int_matmul(a, a)
            for length in range(2, 17, 2):
                assert closed_walks(g, length) == sum(power[i][i] for i in range(n)), \
                    (n, mask, length)
                power = _int_matmul(power, square)


def test_strongly_regular():
    assert is_strongly_regular(cycle(5)) == (5, 2, 0, 1)
    assert is_strongly_regular(path(3)) is None
    assert is_strongly_regular(cycle(4)) == (4, 2, 0, 2)
    # conventions for the vacuous slots
    assert is_strongly_regular(complete(4)) == (4, 3, 2, 0)
    assert is_strongly_regular(empty_graph(4)) == (4, 0, 0, 0)
    assert is_strongly_regular(cycle(6)) is None


def test_adjacency_matrix():
    a = cycle(3).adjacency_matrix()
    assert np.array_equal(a.data.real, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(empty_graph(3).adjacency_matrix().data.real, np.zeros((3, 3)))


def test_graph_immutability():
    g = complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


@pytest.mark.parametrize("n", [1, 2, 7, 13, 300])
def test_neighbor_masks_equal_the_per_edge_build(n):
    # the packed-row build against a big-int step per edge
    rng = np.random.default_rng(n)
    pairs = pair_list(n)
    for density in (0.0, 0.3, 0.5, 1.0):
        bits = rng.random(pair_count(n)) < density
        mask = sum(1 << t for t in np.flatnonzero(bits).tolist())
        g = Graph(n, mask)
        masks = [0] * n
        while mask:
            low = mask & -mask
            u, v = pairs[low.bit_length() - 1]
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            mask ^= low
        assert g.neighbor_masks() == masks
