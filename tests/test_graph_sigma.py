"""One route to a graph's singular values: |lambda| from the Hermitian solve.

`norms` reads a graph's sigma as `check` does, so a graph's Schatten and Ky
Fan norms print the bits of the registry rows' left-hand sides, and the
Ky Fan 2 identity's two sides come from one solve. A matrix keeps
`singular_values`.
"""

import numpy as np
import pytest

from spectranorm import norms
from spectranorm.bounds import run_registry
from spectranorm.cli import main
from spectranorm.cmatrix import CMatrix
from spectranorm.enumeration import class_table
from spectranorm.fileio import load_subject
from spectranorm.graphs import Graph, paley, write_graph6
from test_registry_goldens import workloads

_PS = (1.0, 2.0, 3.0)
_KS = (1, 2, 3)


def _graphs():
    wl = workloads()
    for name, kind, a in wl.registry_subjects(7):
        if kind == "graph":
            yield name, load_subject(wl.graph6(a) + "\n")
    for n in range(2, 7):
        for i, rep in enumerate(class_table(n).reps.tolist()):
            yield f"n{n}#{i}", Graph(n, rep)


@pytest.fixture
def solves(monkeypatch):
    """Counts of the Hermitian and the singular-value solves `norms` makes."""
    counts = {"hermitian": 0, "singular": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(norms, "hermitian_eigenvalues",
                        counted("hermitian", norms.hermitian_eigenvalues))
    monkeypatch.setattr(norms, "singular_values", counted("singular", norms.singular_values))
    return counts


def test_graph_norms_are_the_registry_lhs_bit_for_bit(solves):
    compared = 0
    for name, g in _graphs():
        solves.update(hermitian=0, singular=0)
        schatten, kyfan = norms.spectral_norms(g, _PS, _KS)
        assert solves == {"hermitian": 1, "singular": 0}, name
        rows = run_registry(g, bound_ids=["MCCLELLAND", "SCHATTEN_P_GE2", "KYFAN_L2"],
                            p_values=_PS, k_values=_KS)
        for row in rows:
            if row.skipped:
                continue
            if row.bound_id == "KYFAN_L2":
                value = kyfan[_KS.index(row.params["k"])]
            else:
                value = schatten[_PS.index(row.params.get("p", 1.0))]
            assert value.hex() == row.lhs.hex(), (name, row.bound_id, row.params)
            compared += 1
    assert compared > 1000


def test_every_graph_norm_takes_one_hermitian_solve_and_no_svd(solves):
    g = paley(13)
    for call in (lambda: norms.energy(g), lambda: norms.schatten_norm(g, 3.0),
                 lambda: norms.kyfan_norm(g, 2), lambda: norms.kyfan2_eigen_identity(g)):
        solves.update(hermitian=0, singular=0)
        call()
        assert solves == {"hermitian": 1, "singular": 0}


def test_matrix_norms_take_the_singular_values(solves):
    rng = np.random.default_rng(5)
    a = CMatrix.from_array(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    sig = norms.singular_values(a).values
    solves.update(hermitian=0, singular=0)
    schatten, kyfan = norms.spectral_norms(a, _PS, _KS)
    assert solves == {"hermitian": 0, "singular": 1}
    assert schatten == [float(norms.schatten_of(sig, p)) for p in _PS]
    assert kyfan == [float(norms.kyfan_of(sig, k)) for k in _KS]


def test_kyfan2_identity_sides_are_one_solve_and_equal(solves):
    checked = 0
    for n in range(2, 7):
        for rep in class_table(n).reps.tolist():
            solves.update(hermitian=0, singular=0)
            lhs, rhs = norms.kyfan2_eigen_identity(Graph(n, rep))
            assert solves == {"hermitian": 1, "singular": 0}
            assert lhs == rhs, (n, rep)
            checked += 1
    assert checked == 207


def test_norms_builds_a_graphs_adjacency_once_for_its_entrywise_norms(monkeypatch, tmp_path,
                                                                      capsys):
    built = []
    adjacency = Graph.adjacency_matrix

    def counted(self):
        built.append(self.n)
        return adjacency(self)

    monkeypatch.setattr(Graph, "adjacency_matrix", counted)
    (tmp_path / "p13.g6").write_text(write_graph6(paley(13)) + "\n")
    monkeypatch.chdir(tmp_path)
    for ps in ([], ["--p", "1"], ["--p", "1", "--p", "1.5", "--p", "3"]):
        built.clear()
        assert main(["norms", "--in", "p13.g6", *ps, "--format", "json"]) == 0
        # one for the Hermitian solve, one for every entrywise norm
        assert built == [13, 13]
    capsys.readouterr()
