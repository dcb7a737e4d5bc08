"""The spectrum-free record fields, set once when a record is made.

`graph_fields` and `matrix_fields` must give, in value and dtype, what each
field's own expression on the subject's matrix gives; `_oracle` keeps those
expressions here.
"""

import contextlib
import functools
import importlib.util
import io
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectranorm import cli
from spectranorm.bounds import SubjectContext, graph_fields, matrix_fields
from spectranorm.cmatrix import CMatrix
from spectranorm.enumeration import class_table
from spectranorm.graphs import Graph, parse_graph6
from spectranorm.norms import as_matrix

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FIELDS = ("n_rows", "n_cols", "ent1", "ent2_sq", "entinf", "is_graph", "nonneg", "zero_one")


def _oracle(subject):
    """Each field from the subject's (oriented) matrix, one expression a field."""
    mat = as_matrix(subject)
    d = mat.data
    with np.errstate(over="ignore"):
        entinf = np.array([np.max(np.abs(d))])
        out = {
            "n_rows": d.shape[0] if d.shape[0] <= d.shape[1] else d.shape[1],
            "n_cols": d.shape[1] if d.shape[0] <= d.shape[1] else d.shape[0],
            "ent1": np.array([np.sum(np.abs(d))]),
            "ent2_sq": np.array([np.sum(np.abs(d) ** 2)]),
            "entinf": entinf,
            "is_graph": np.array([isinstance(subject, Graph)]),
            "nonneg": np.array([
                np.all(d.real >= 0.0) and np.all(np.abs(d.imag) <= 1e-12 * entinf[0])
            ]),
            "zero_one": np.array([np.all((np.abs(d) <= 1e-12 * entinf[0])
                                         | (np.abs(d - 1.0) <= 1e-12 * entinf[0]))]),
        }
    if isinstance(subject, Graph):
        out["m"] = np.array([subject.num_edges()])
    return out


def _assert_fields(got, want, where):
    assert set(got) == set(want), where
    for name, value in want.items():
        if name in ("n_rows", "n_cols"):
            assert type(got[name]) is int and got[name] == value, (where, name)
        else:
            assert got[name].dtype == value.dtype, (where, name)
            assert np.array_equal(got[name], value), (where, name, got[name], value)


def _one(fields, c):
    return {name: v if np.ndim(v) == 0 else v[c:c + 1] for name, v in fields.items()}


@pytest.mark.parametrize("n", range(1, 7))
def test_graph_fields_match_the_oracle_on_every_class(n):
    table = class_table(n)
    fields = graph_fields(n, table.m)
    for c, rep in enumerate(table.reps.tolist()):
        g = Graph(n, rep)
        want = _oracle(g)
        _assert_fields(_one(fields, c), want, (n, rep))
        _assert_fields(_one({name: getattr(table, name) for name in want}, c), want, (n, rep))
        _assert_fields({name: getattr(SubjectContext(g), name) for name in want}, want, (n, rep))


@functools.cache
def _workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode next to the benchmark's files
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up by name
    finally:
        sys.dont_write_bytecode = saved
    return module


def _registry_subjects(seed):
    workloads = _workloads()
    for name, kind, a in workloads.registry_subjects(seed):
        if kind == "graph":
            yield name, parse_graph6(workloads.graph6(a))
        else:
            yield name, CMatrix.from_array(a)


@pytest.mark.parametrize("seed", [7, 31001])
def test_registry_subjects_match_the_oracle(seed):
    names = []
    for name, subject in _registry_subjects(seed):
        want = _oracle(subject)
        ctx = SubjectContext(subject)
        _assert_fields({f: getattr(ctx, f) for f in want}, want, (seed, name))
        if isinstance(subject, CMatrix):
            _assert_fields(matrix_fields(subject.data), want, (seed, name))
        names.append(name)
    assert len(names) == 13


def _gaussian(scale):
    rng = np.random.default_rng(7)
    return CMatrix.from_array(scale * (rng.standard_normal((4, 6))
                                       + 1j * rng.standard_normal((4, 6))))


@pytest.mark.parametrize("scale", [1e-200, 1e-9, 1e9, 1e200])
@pytest.mark.parametrize("transpose", [False, True])
def test_matrix_fields_match_the_oracle_at_every_scale(scale, transpose):
    z = _gaussian(scale)
    if transpose:
        z = CMatrix.from_array(z.data.T)
    want = _oracle(z)
    _assert_fields(matrix_fields(z.data), want, scale)
    ctx = SubjectContext(z)
    _assert_fields({f: getattr(ctx, f) for f in FIELDS}, want, scale)


def test_context_on_a_huge_matrix_warns_nothing():
    # |A|_2^2 of entries near 1e200 is inf; that is no warning to the caller
    z = _gaussian(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = SubjectContext(z)
    assert np.isinf(ctx.ent2_sq[0]) and np.isfinite(ctx.ent1[0])


def test_fields_need_no_matrix():
    # the shape, the entrywise norms and the flags are set without the subject's matrix
    for subject in (Graph(5, 0b1011), _gaussian(1.0)):
        ctx = SubjectContext(subject)
        assert "matrix" not in vars(ctx)
        for name in FIELDS:
            assert name in vars(ctx), name
            assert not isinstance(getattr(SubjectContext, name, None), property), name


def test_warm_sweep_builds_the_adjacency_at_most_once(monkeypatch):
    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--n", "6"]) == 0

    sweep()  # the class table and its chi are built and kept
    built = []
    adjacency = Graph.adjacency_matrix

    def counted(g):
        built.append(g)
        return adjacency(g)

    monkeypatch.setattr(Graph, "adjacency_matrix", counted)
    sweep()
    assert len(built) <= 1
