"""`construct` refuses a family too large to build before it allocates.

A matrix family is capped at `_KRON_ENTRY_CAP` entries (SizeOverflow) and a
graph family at order `MAX_ORDER` (TooLarge); the CLI turns either into exit
2. Each refused call runs in a child process whose address space alone is
limited, so a check made after the allocation would fail there, not here.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from spectranorm import constructions, graphs
from spectranorm.constructions import all_ones, dft_matrix, kronecker, sylvester_hadamard
from spectranorm.errors import SizeOverflow, TooLarge
from spectranorm.graphs import (
    MAX_ORDER,
    blow_up,
    complete,
    complete_multipartite,
    cycle,
    paley,
    path,
    perfect_matching,
)

_SRC = Path(__file__).resolve().parents[1] / "src"
_ADDRESS_SPACE = 2 * 10**9  # bytes; each refused family would need more

_REFUSED = [
    ("dft", "20000"),
    ("hadamard", "65536"),
    ("all_ones", "100000,100000"),
    ("cycle", "3000000"),
    ("perfect_matching", "4000000"),
    ("complete_multipartite", "50000,50000"),
    ("blow_up", "100000"),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _construct(tmp_path, family, params, *extra):
    (tmp_path / "k2.g6").write_text("A_\n")
    argv = [sys.executable, "-B", "-m", "spectranorm", "construct", "--family", family,
            "--params", params, *extra]
    if family == "blow_up":
        argv += ["--in", "k2.g6"]
    env = {**os.environ, "PYTHONPATH": str(_SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_address_space)


@pytest.mark.parametrize("family, params", _REFUSED)
def test_refused_before_allocation(tmp_path, family, params):
    done = _construct(tmp_path, family, params)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {family} ")
    assert "capped at" in done.stderr or "entries (cap" in done.stderr


def test_refused_call_reports_json_with_format_json(tmp_path):
    done = _construct(tmp_path, "dft", "20000", "--format", "json")
    assert done.returncode == 2
    assert json.loads(done.stdout) == {"error": {
        "type": "SizeOverflow", "message": "dft would have 400000000 entries (cap 1000000)"}}


def test_matrix_families_build_at_the_entry_cap():
    assert constructions._KRON_ENTRY_CAP == 10**6
    assert all_ones(1000, 1000).data.shape == (1000, 1000)
    assert dft_matrix(1000).data.shape == (1000, 1000)
    assert sylvester_hadamard(512).data.shape == (512, 512)
    assert kronecker(all_ones(10, 100), all_ones(10, 100)).data.shape == (100, 10**4)
    for build in (lambda: all_ones(1000, 1001), lambda: dft_matrix(1001),
                  lambda: sylvester_hadamard(1024),
                  lambda: kronecker(all_ones(10, 100), all_ones(11, 100))):
        with pytest.raises(SizeOverflow):
            build()


def test_graph_families_build_at_the_order_cap():
    assert MAX_ORDER == 2000
    base = complete(2)
    built = [complete(2000), complete_multipartite([1000, 1000]), perfect_matching(2000),
             cycle(2000), path(2000), paley(1997), blow_up(base, 1000)]
    assert [g.n for g in built] == [2000] * 5 + [1997, 2000]
    assert complete(2000).num_edges() == 2000 * 1999 // 2
    assert paley(1997).num_edges() == 1997 * 998 // 2
    for build in (lambda: complete(2001), lambda: complete_multipartite([1000, 1001]),
                  lambda: perfect_matching(2002), lambda: cycle(2001), lambda: path(2001),
                  lambda: paley(2017), lambda: blow_up(base, 1001)):
        with pytest.raises(TooLarge):
            build()


def test_the_edge_list_cap_is_the_family_cap():
    with pytest.raises(TooLarge) as exc:
        graphs._capped_order(MAX_ORDER + 1, "edge-list order")
    assert str(exc.value) == "edge-list order capped at 2000, got 2001"
    assert graphs._capped_order(MAX_ORDER, "edge-list order") == MAX_ORDER


def _cli(tmp_path, *args):
    argv = [sys.executable, "-B", "-m", "spectranorm", *args]
    env = {**os.environ, "PYTHONPATH": str(_SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_address_space)


def test_graph6_long_header_past_the_cap_is_refused_before_allocation(tmp_path):
    # `~~` and six characters name n = 2^36 - 1: a pair mask of that order is 2^71 bits
    (tmp_path / "huge.g6").write_text("~~~~~~~~" + "?" * 8 + "\n")
    done = _cli(tmp_path, "check", "--in", "huge.g6")
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: graph6 order capped at {MAX_ORDER}, got {2**36 - 1}\n"


def test_construct_writes_graph6_past_order_62(tmp_path):
    done = _cli(tmp_path, "construct", "--family", "cycle", "--params", "63")
    assert done.returncode == 0, done.stderr
    assert graphs.parse_graph6(done.stdout) == cycle(63)
    assert done.stdout.startswith("~??~")


def test_construct_with_isolated_is_capped(tmp_path):
    (tmp_path / "k4.g6").write_text("C~\n")
    done = _cli(tmp_path, "construct", "--family", "with_isolated", "--in", "k4.g6",
                "--params", "100000")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: with_isolated order capped at {MAX_ORDER}, got 100004\n"
