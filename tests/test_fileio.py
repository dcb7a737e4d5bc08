"""Input format decision and edge-list parsing: one line walk, first bad line wins."""

import json

import numpy as np
import pytest

from spectranorm.cli import main
from spectranorm.cmatrix import CMatrix
from spectranorm.errors import BadComplexLiteral, LoopEdge, MalformedGraph6, TooLarge
from spectranorm.fileio import load_subject
from spectranorm.graphs import MAX_ORDER, Graph, paley, write_graph6

MALFORMED_EDGE_LISTS = [
    ("3\n0 1 2\n", ValueError, "edge line must be 'u v', got '0 1 2'"),
    ("3\n1\n2\n", ValueError, "edge line must be 'u v', got '1'"),
    ("0\n", ValueError, "graph order must be a positive integer"),
    ("-2\n", ValueError, "graph order must be a positive integer"),
    # the order is checked before the first edge
    ("0\n0 1\n", ValueError, "graph order must be a positive integer"),
    ("-2\n0 1\n", ValueError, "graph order must be a positive integer"),
    ("2\n0 1\n1 x\n", ValueError, "invalid literal for int() with base 10: 'x'"),
    # the loop on line 2 comes before the bad line 3
    ("3\n1 1\n0 1 2\n", LoopEdge, "loop at vertex 1"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_EDGE_LISTS)
def test_malformed_edge_list_raises_its_own_error(text, error, message):
    with pytest.raises(error) as exc:
        load_subject(text)
    assert type(exc.value) is error and str(exc.value) == message


def test_check_on_a_malformed_edge_list_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(MALFORMED_EDGE_LISTS[0][0])
    assert main(["check", "--in", str(bad), "--format", "json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError", "message": "edge line must be 'u v', got '0 1 2'"}
    assert main(["check", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "edge line must be 'u v', got '0 1 2'" in captured.err


def test_edge_list_order_is_capped_before_the_graph_is_built(monkeypatch, capsys, tmp_path):
    assert MAX_ORDER == 2000
    g = load_subject("2000\n0 1\n")
    assert (g.n, g.num_edges()) == (2000, 1)

    def build(*args):
        raise AssertionError("an edge list above the cap reached the graph")

    monkeypatch.setattr(Graph, "from_edge_list", build)
    for text in ("100000\n0 1\n", "2001\n"):
        with pytest.raises(TooLarge) as exc:
            load_subject(text)
        assert str(exc.value) == f"edge-list order capped at 2000, got {text.split()[0]}"
    big = tmp_path / "big.txt"
    big.write_text("100000\n0 1\n")
    assert main(["check", "--in", str(big), "--format", "json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "TooLarge", "message": "edge-list order capped at 2000, got 100000"}


@pytest.mark.parametrize("text, message", [
    ("", "no matrix rows found"),
    ("\n \n", "no matrix rows found"),
    ("x\n0 1\n", "cannot parse literal 'x'"),
], ids=["empty", "blank", "no-order"])
def test_text_without_an_order_line_is_read_as_a_matrix(text, message):
    with pytest.raises(BadComplexLiteral) as exc:
        load_subject(text)
    assert str(exc.value) == message


def _per_edge(n, pairs):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        adj[u, v] = adj[v, u] = True
    return Graph.from_adjacency(adj)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 300])
def test_edge_list_round_trip(n):
    rng = np.random.default_rng(n)
    pairs = []
    if n > 1:
        u = rng.integers(0, n, size=3 * n)
        v = rng.integers(0, n, size=3 * n)
        pairs = [(int(a), int(b)) for a, b in zip(u, v) if a != b]
        pairs += [(b, a) for a, b in pairs[: len(pairs) // 3]]  # reversed repeats
        pairs += pairs[:5]  # exact repeats
    body = []
    for a, b in pairs:
        body.append(f"{a} {b}")
        if rng.random() < 0.2:
            body.append("   ")
    text = "\r\n".join([str(n), ""] + body) + "\r\n"
    expected = _per_edge(n, pairs)
    g = load_subject(text)
    assert (g.n, g.mask) == (expected.n, expected.mask)


def test_graph6_with_and_without_header():
    g = paley(13)
    token = write_graph6(g)
    for text in (token, token + "\n", f">>graph6<<{token}\n", f"\n  >>graph6<<{token}  \n\n"):
        got = load_subject(text)
        assert isinstance(got, Graph) and (got.n, got.mask) == (g.n, g.mask)


@pytest.mark.parametrize("text, message", [
    (">>graph6<<", "empty graph6 string"),
    (">>graph6<<\n", "empty graph6 string"),
    (">>graph6<<1+1i", "character outside graph6 range"),
])
def test_a_line_with_the_graph6_header_is_graph6(text, message):
    with pytest.raises(MalformedGraph6) as exc:
        load_subject(text)
    assert str(exc.value) == message


# one row per rule of the format decision, in its order: text, kind, (n, m) or shape
FORMAT_DECISION = [
    ("0,1\n1,0\n", CMatrix, (2, 2)),  # a comma: matrix CSV
    ("C~\n", Graph, (4, 6)),  # one line of graph6 characters
    (">>graph6<<C~\n", Graph, (4, 6)),  # one line that starts with the header
    ("\n  >>graph6<<C~  \n", Graph, (4, 6)),
    ("3\n0 1\n1 2\n", Graph, (3, 2)),  # a first line that int() reads: an edge list
    ("5\n", Graph, (5, 0)),
    ("1+1i\n", CMatrix, (1, 1)),  # anything else: one cell per line
    ("1+1i\n2\n", CMatrix, (2, 1)),
]


@pytest.mark.parametrize("text, kind, size", FORMAT_DECISION)
def test_format_decision(text, kind, size):
    got = load_subject(text)
    assert type(got) is kind
    assert ((got.n, got.num_edges()) if kind is Graph else (got.rows, got.cols)) == size


def test_bare_order_is_an_empty_graph_and_a_literal_is_a_matrix():
    g = load_subject("5\n")
    assert isinstance(g, Graph) and (g.n, g.mask) == (5, 0)
    m = load_subject("1+1i")
    assert isinstance(m, CMatrix) and (m.rows, m.cols) == (1, 1)
    assert m.data[0, 0] == 1 + 1j
