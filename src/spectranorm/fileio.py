"""Input parsing and serialization: matrix CSV, edge lists, graph6 autodetect.

Matrix files are CSV with cells that are real (`a`) or complex
(`a+bi` / `a-bi`) literals. A file of plain literals (digits, a point and an
exponent, rows of equal length, `\n` line ends), which is what
`format_matrix_csv` writes, is converted in bulk by `np.loadtxt`; every other
file is parsed cell by cell, which accepts more (spaces, `nan`, `inf`, an
`I` suffix, blank lines) and gives the errors. Both give the same values, bit
for bit. Graph files are a graph6 string or an edge list (first line the order,
then one `u v` pair per line). `load_subject` tells the formats apart once,
by content alone; a malformed edge list is never re-read as a matrix.
"""

from __future__ import annotations

import re
from typing import Optional, Union

import numpy as np

from .cmatrix import CMatrix
from .errors import BadComplexLiteral, RaggedRows
from .graphs import Graph, _capped_order, _is_graph6_line, parse_graph6


def parse_complex_literal(cell: str) -> complex:
    s = cell.strip()
    if not s:
        raise BadComplexLiteral("empty cell")
    if s.endswith(("i", "I")):
        body = s[:-1]
        # the last sign past position 0 that is not an exponent's
        split = len(body)
        while True:
            split = max(body.rfind("+", 1, split), body.rfind("-", 1, split))
            if split < 0 or body[split - 1] not in "eE":
                break
        if split < 0:
            raise BadComplexLiteral(
                f"{cell!r}: complex cells need the a+bi / a-bi form"
            )
        re_str, im_str = body[:split], body[split:]
        try:
            return complex(float(re_str), float(im_str))
        except ValueError:
            raise BadComplexLiteral(f"cannot parse complex literal {cell!r}") from None
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise BadComplexLiteral(f"cannot parse literal {cell!r}") from None


# One plain literal: optional sign, digits with at most one point, an optional
# exponent; a complex cell adds a signed one of those and `i`. `complex()`
# reads exactly these the way `parse_complex_literal` does, once `i` is `j`.
# The pattern is matched one line at a time and reads a line in one way only
# (a point and an exponent each come at most once, and a cell ends only at `,`
# or the line end), so a failed match backtracks within a cell, not across the
# line. Optional parts are written `(?:x|)`, which `re` runs as a branch,
# cheaper than a repeat `(?:x)?`.
_UNSIGNED = r"(?:[0-9]+(?:\.[0-9]*|)|\.[0-9]+)(?:[eE][+-]?[0-9]+|)"
_CELL = rf"[+-]?{_UNSIGNED}(?:[+-]{_UNSIGNED}i|)"
_PLAIN_ROW = re.compile(rf"{_CELL}(?:,{_CELL})*")


def _parse_plain(text: str) -> CMatrix | None:
    """The matrix of a file of plain literals in equal rows, or None for any other file.

    Once every line is checked, the whole body is converted in one
    `np.loadtxt` call, whose complex parser reads each part as `complex()`
    does, bit for bit.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines:
        return None
    commas = lines[0].count(",")
    for line in lines:
        if line.count(",") != commas or not _PLAIN_ROW.fullmatch(line):
            return None
    values = np.loadtxt([line.replace("i", "j") for line in lines], dtype=np.complex128,
                        delimiter=",", ndmin=2)
    return CMatrix.from_array(values)


def parse_matrix_file(text: str) -> CMatrix:
    """CSV of real/complex literals with uniform row lengths.

    A file of plain literals is converted in bulk; any other goes cell by
    cell through `parse_complex_literal`, which gives the same values and
    raises the errors.
    """
    plain = _parse_plain(text)
    return plain if plain is not None else _parse_cells(text)


def _parse_cells(text: str) -> CMatrix:
    """Any matrix file, one `parse_complex_literal` call a cell."""
    rows = [[parse_complex_literal(c) for c in line.split(",")]
            for line in text.splitlines() if line.strip()]
    if not rows:
        raise BadComplexLiteral("no matrix rows found")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {i} has {len(row)} cells, expected {width}")
    return CMatrix.from_rows(rows)


def _format_float(x: float) -> str:
    return repr(float(x))


def format_matrix_csv(m: CMatrix) -> str:
    lines = []
    for row in m.data:
        cells = []
        for z in row:
            if z.imag == 0.0:
                cells.append(_format_float(z.real))
            else:
                sign = "+" if z.imag >= 0 else "-"
                cells.append(f"{_format_float(z.real)}{sign}{_format_float(abs(z.imag))}i")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _lines(text: str) -> list[str]:
    return [ln for ln in (l.strip() for l in text.splitlines()) if ln]


def _edge(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"edge line must be 'u v', got {line!r}")
    return int(parts[0]), int(parts[1])


def _edge_list(lines: list[str]) -> Optional[Graph]:
    """The graph of an edge list's lines, or None when the first is not an order.

    Only that `int()` is guarded. An order above `MAX_ORDER` raises TooLarge
    before anything of order size is allocated; the `u v` lines are then
    read one by one, so the first bad line in file order raises.
    """
    try:
        n = int(lines[0])
    except ValueError:
        return None
    return Graph.from_edge_list(_capped_order(n, "edge-list order"), map(_edge, lines[1:]))


def load_subject(text: str) -> Union[Graph, CMatrix]:
    """Read a graph or a matrix, the format decided once from the content.

    Commas mean matrix CSV. Otherwise the text is split once into stripped,
    non-blank lines: one line that starts with the graph6 header or is all
    graph6 characters is graph6; a first line that `int()` reads starts an
    edge list, which raises at its first bad line and is never re-read as a
    matrix; anything else is a one-cell-per-line matrix (such as `1+1i`).
    """
    if "," in text:
        return parse_matrix_file(text)
    lines = _lines(text)
    if len(lines) == 1 and _is_graph6_line(lines[0]):
        return parse_graph6(lines[0])
    graph = _edge_list(lines) if lines else None
    return parse_matrix_file(text) if graph is None else graph
