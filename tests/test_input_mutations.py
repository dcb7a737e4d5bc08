"""Seeded byte mutations of valid inputs end in a subject or a typed error.

Each case applies one to three byte mutations (delete, duplicate, swap, or
insert from the input alphabet) to a valid graph6, edge-list, plain CSV or
cell-per-line file. `load_subject` must return a Graph or a CMatrix or raise
a SpectranormError or ValueError with a message; a subject it returns must
survive its own writer and reader; and `check` on the file must return an
exit code, never raise.
"""

import contextlib
import io

import numpy as np

from spectranorm import cli
from spectranorm.cmatrix import CMatrix
from spectranorm.errors import SpectranormError
from spectranorm.fileio import format_matrix_csv, load_subject
from spectranorm.graphs import Graph, cycle, paley, parse_graph6, write_graph6

_CASES = 2500
_ALPHABET = b"0123456789 \n,-.ei>?"
_BASES = (
    write_graph6(paley(13)) + "\n",
    ">>graph6<<" + write_graph6(cycle(5)) + "\n",
    "6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n",
    format_matrix_csv(CMatrix.from_array(np.array([[1.0, 0.5 - 2j, 0.0], [3e-3, 1.0, 2.5 + 1j]]))),
    "1+1i\n-2.5e-1\n3\n",
)


def _mutate(rng, data: bytes) -> bytes:
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(4)) if data else 3
        i = int(rng.integers(len(data) + (op == 3)))
        if op == 0:
            data = data[:i] + data[i + 1:]
        elif op == 1:
            data = data[:i] + data[i:i + 1] + data[i:]
        elif op == 2:
            j = int(rng.integers(len(data)))
            swapped = bytearray(data)
            swapped[i], swapped[j] = data[j], data[i]
            data = bytes(swapped)
        else:
            k = int(rng.integers(len(_ALPHABET)))
            data = data[:i] + _ALPHABET[k:k + 1] + data[i:]
    return data


def _round_trips(subject) -> bool:
    if isinstance(subject, Graph):
        return parse_graph6(write_graph6(subject)) == subject
    back = load_subject(format_matrix_csv(subject))
    return isinstance(back, CMatrix) and np.array_equal(back.data, subject.data)


def test_mutated_inputs_end_in_a_subject_or_a_typed_error(tmp_path):
    rng = np.random.default_rng(20261021)
    path = tmp_path / "case.txt"
    outcomes = {"subject": 0, "error": 0}
    for case in range(_CASES):
        data = _mutate(rng, _BASES[case % len(_BASES)].encode())
        try:
            subject = load_subject(data.decode("ascii"))
        except (SpectranormError, ValueError) as exc:
            assert str(exc), data
            outcomes["error"] += 1
        else:
            assert isinstance(subject, (Graph, CMatrix)), data
            assert _round_trips(subject), data
            outcomes["subject"] += 1
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", "--in", str(path)])
        assert code in (0, 1, 2), data
    # both outcomes are common, so the mutations neither always break nor never break an input
    assert min(outcomes.values()) > _CASES // 10, outcomes
