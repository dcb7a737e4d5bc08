"""Work a sweep or a check repeats is done once per call, and nothing outlives the call."""

import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import spectranorm
from spectranorm import bounds, sweep
from spectranorm.constructions import sylvester_hadamard
from spectranorm.enumeration import ClassTable, class_table
from spectranorm.graphs import (complete, complete_multipartite, cycle, perfect_matching,
                                write_graph6)
from spectranorm.sweep import run_sweep

_SUBJECTS = {"C5": (cycle, 5), "K4": (complete, 4)}
_GRID = dict(p_values=(1.0, 1.5, 3.0), k_values=(1, 2))


def _registry_text(subject) -> str:
    return repr([vars(chk) for chk in bounds.run_registry(subject, **_GRID)])


def _alone(name: str) -> str:
    """`_registry_text` of one subject, run in a fresh interpreter."""
    code = ("from test_sweep import _SUBJECTS, _registry_text\n"
            f"family, n = _SUBJECTS[{name!r}]\n"
            "print(_registry_text(family(n)), end='')")
    paths = [str(Path(spectranorm.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_run_registry_in_one_process_equals_each_subject_alone():
    alone = {name: _alone(name) for name in _SUBJECTS}
    for order in (("C5", "K4"), ("K4", "C5")):
        for name in order:
            family, n = _SUBJECTS[name]
            assert _registry_text(family(n)) == alone[name], (order, name)
            # a context dropped just before the next one is made tends to
            # lend it its address, which a memo keyed by id() would confuse
            assert _registry_text(bounds.SubjectContext(family(n))) == alone[name], (order, name)


def test_sweeps_with_other_grids_give_the_same_records_in_either_order():
    a1 = repr(run_sweep(6, (1.0, 1.5), (1,)))
    b1 = repr(run_sweep(6, (3.0,), (2,)))
    b2 = repr(run_sweep(6, (3.0,), (2,)))
    a2 = repr(run_sweep(6, (1.0, 1.5), (1,)))
    assert (a1, b1) == (a2, b2)
    # the power sums were kept on the sweep's copy, never on the cached table
    assert not hasattr(class_table(6), "powers")


def test_sweep_does_each_repeated_piece_of_work_once(monkeypatch):
    p_values, k_values = (1.0, 1.5, 2.0, 3.0), (1, 2, 3)
    table = class_table(6)
    flagged, written, formed = [], [], []

    first_members = ClassTable.first_members

    def counted_first_members(self, classes, limit, *, canonical=False):
        flagged.append(tuple(np.asarray(classes).tolist()))
        return first_members(self, classes, limit, canonical=canonical)

    def counted_write_graph6(g):
        written.append(g.mask)
        return write_graph6(g)

    class CountedPowers(np.ndarray):
        def __pow__(self, p):
            if self.ndim == 2:  # a power of the whole (classes, sigma) stack
                formed.append(p)
            return np.asarray(self) ** p

    monkeypatch.setattr(ClassTable, "first_members", counted_first_members)
    monkeypatch.setattr(sweep, "write_graph6", counted_write_graph6)
    monkeypatch.setattr(table, "sig", table.sig.view(CountedPowers))
    report = run_sweep(6, p_values, k_values)
    examples = sum(len(r.equality_examples) + len(r.violation_examples) for r in report.rows)
    assert examples > len(written) > 0
    assert len(report.rows) > len(flagged) > 0
    assert len(flagged) == len(set(flagged))
    assert len(written) == len(set(written))
    assert sorted(formed) == sorted(p_values)


@pytest.mark.parametrize("subject", [perfect_matching(6), sylvester_hadamard(4)])
def test_gram_test_runs_once_per_subject_with_a_witness_per_row(subject, monkeypatch):
    """A A* = cI is read off the singular-value profile, formed once per context."""
    profiles = []
    sig_profile = bounds.SubjectContext.sig_profile.func

    def counted(ctx):
        profiles.append(ctx)
        return sig_profile(ctx)

    prop = cached_property(counted)
    prop.__set_name__(bounds.SubjectContext, "sig_profile")
    monkeypatch.setattr(bounds.SubjectContext, "sig_profile", prop)
    checks = bounds.run_registry(subject, p_values=(1.0, 2.0))
    witnesses = [chk.equality_witness for chk in checks
                 if chk.bound_id in ("MCCLELLAND", "POWER_MEAN") and not chk.skipped]
    assert len(profiles) == 1
    assert len(witnesses) >= 3 and all(w == witnesses[0] for w in witnesses)
    assert len({id(w) for w in witnesses}) == len(witnesses)


def _count_structure(monkeypatch):
    """Graph masks passed to the two structure tests the detectors read, by test name."""
    seen = {"detect_complete_multipartite": [], "is_strongly_regular": []}
    for name, calls in seen.items():
        def counted(g, fn=getattr(bounds, name), calls=calls):
            calls.append(g.mask)
            return fn(g)
        monkeypatch.setattr(bounds, name, counted)
    return seen


def _parts_witnesses(witnesses):
    """The distinct witness dicts that quote a parts list."""
    distinct = {id(w): w for w in witnesses if w and w.get("parts") is not None}
    return list(distinct.values())


def test_sweep_derives_each_class_structure_once(monkeypatch):
    seen = _count_structure(monkeypatch)
    report = run_sweep(6, (1.0, 1.5, 2.0, 3.0), (1, 2, 3))
    for name, masks in seen.items():
        assert masks, name
        assert len(masks) == len(set(masks)), name  # one context per class, one call per context
    witnesses = _parts_witnesses(ex["witness"] for r in report.rows
                                 for ex in r.equality_examples)
    assert len(witnesses) > 1
    assert len({id(w["parts"]) for w in witnesses}) == len(witnesses)


def test_check_derives_the_parts_once_for_both_rows_that_read_them(monkeypatch):
    seen = _count_structure(monkeypatch)
    checks = bounds.run_registry(complete_multipartite([3, 3, 3]), p_values=(1.0, 2.0))
    flagged = {chk.bound_id for chk in checks if chk.equality}
    assert {"CAPOROSSI", "SCHR_LOWER"} <= flagged
    assert len(seen["detect_complete_multipartite"]) == 1
    witnesses = _parts_witnesses(chk.equality_witness for chk in checks)
    assert len(witnesses) >= 3 and all(w["parts"] == [3, 3, 3] for w in witnesses)
    assert len({id(w["parts"]) for w in witnesses}) == len(witnesses)
