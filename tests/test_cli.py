"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from spectranorm import bounds, sweep
from spectranorm.cli import _build_parser, main
from spectranorm.fileio import format_matrix_csv, load_subject, parse_matrix_file
from spectranorm.cmatrix import CMatrix
from spectranorm.errors import BadComplexLiteral, RaggedRows
from spectranorm.graphs import Graph, complete


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_complete(capsys, tmp_path):
    code, out = _run(capsys, "construct", "--family", "complete", "--params", "4")
    assert code == 0 and out.strip() == "C~"


def test_construct_matrix_roundtrip(capsys):
    code, out = _run(capsys, "construct", "--family", "dft", "--params", "4")
    assert code == 0
    m = parse_matrix_file(out)
    assert m.rows == 4 and m.cols == 4


def test_norms_text_and_json(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out = _run(capsys, "norms", "--in", str(f), "--p", "1", "--k", "4")
    assert code == 0
    assert "schatten p=1: 6" in out
    assert "kyfan   k=4: 6" in out
    code, out = _run(capsys, "norms", "--in", str(f), "--p", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["kind"] == "graph"
    assert abs(payload["schatten"]["1"] - 6.0) < 1e-9


def test_norms_past_the_double_range_prints_inf_quietly(capsys, tmp_path):
    f = tmp_path / "big.csv"
    f.write_text("1e308,1e308\n1e308,-1e308\n")
    code, out = _run(capsys, "norms", "--in", str(f), "--k", "1", "--k", "2")
    assert code == 0 and capsys.readouterr().err == ""
    assert "kyfan   k=2: inf" in out


def test_norms_solves_once(capsys, tmp_path, monkeypatch):
    import numpy as np

    from spectranorm import norms

    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    f = tmp_path / "m.csv"
    f.write_text(format_matrix_csv(CMatrix.from_array(a)))
    subject = load_subject(f.read_text())
    calls, solve = [], norms.singular_values

    def counting(m):
        calls.append(m)
        return solve(m)

    monkeypatch.setattr(norms, "singular_values", counting)
    for p_list, k_list in (([1.0, 2.0], [1, 2]), ([1.0, 1.5, 3.0], [1, 2, 9])):
        argv = ["norms", "--in", str(f), "--format", "json"]
        if p_list != [1.0, 2.0]:
            argv += [arg for p in p_list for arg in ("--p", str(p))]
            argv += [arg for k in k_list for arg in ("--k", str(k))]
        calls.clear()
        code, out = _run(capsys, *argv)
        assert code == 0 and len(calls) == 1
        payload = json.loads(out)
        assert list(payload) == ["input", "kind", "schatten", "kyfan", "entrywise"]
        # the floats each order got from a solve of its own
        sig = solve(subject).values
        assert list(payload["schatten"].values()) == [
            float(sig.sum()) if p == 1.0 else float(np.sum(sig**p) ** (1.0 / p)) for p in p_list]
        assert list(payload["kyfan"].values()) == [float(sig[:k].sum()) for k in k_list]
        assert [norms.schatten_norm(subject, p) for p in p_list] == list(payload["schatten"].values())
        assert [norms.kyfan_norm(subject, k) for k in k_list] == list(payload["kyfan"].values())


def test_norms_empty_graph(capsys, tmp_path):
    f = tmp_path / "empty5.g6"
    f.write_text("D??\n")
    code, out = _run(capsys, "norms", "--in", str(f), "--p", "1")
    assert code == 0 and "schatten p=1: 0" in out


def test_check_kyfan01_equality_exit0(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out = _run(capsys, "check", "--in", str(f), "--bound", "KYFAN_01", "--k", "4")
    assert code == 0
    assert "EQUALITY" in out


def test_check_json_schema(capsys, tmp_path):
    # keys and their order, for the check payload and each of its BoundChecks
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out = _run(capsys, "check", "--in", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["input", "checks"]
    for chk in payload["checks"]:
        assert list(chk) == ["bound_id", "params", "lhs", "rhs", "slack", "holds",
                             "equality", "equality_witness", "notes", "skipped",
                             "skip_reason"]


def test_check_skip_and_exit(capsys, tmp_path):
    f = tmp_path / "mat.csv"
    f.write_text("0,1\n1,0\n")
    code, out = _run(capsys, "check", "--in", str(f), "--bound", "MCCLELLAND")
    assert code == 0  # graph-only row is skipped for a matrix, not failed
    assert "SKIP" in out


def test_check_order_past_chi_cap(capsys, tmp_path):
    from spectranorm.graphs import paley, write_graph6

    f = tmp_path / "p37.g6"
    f.write_text(write_graph6(paley(37)) + "\n")
    code, out = _run(capsys, "check", "--in", str(f), "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    skipped = {c["bound_id"]: c["skip_reason"] for c in checks if c["skipped"]}
    reason = "exact chromatic number is capped at order 32"
    assert skipped == {"SCHR_LOWER": reason, "HOFFMAN": reason, "KYFAN_CHROMATIC": reason,
                       "SCHATTEN_P_GE2": "requires p >= 2 (got 1)"}
    assert len(checks) == 20  # the other rows are evaluated, not aborted


def test_check_paley29_chromatic_number(capsys, tmp_path):
    from spectranorm.graphs import paley, write_graph6

    f = tmp_path / "p29.g6"
    f.write_text(write_graph6(paley(29)) + "\n")
    code, out = _run(capsys, "check", "--in", str(f), "--bound", "SCHR_LOWER",
                     "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["checks"]
    assert row["bound_id"] == "SCHR_LOWER" and row["notes"] == "chi = 8"
    assert row["holds"] and not row["skipped"]


def test_check_bound_solves_spectra_and_chi_once(capsys, tmp_path, monkeypatch):
    from spectranorm import bounds
    from spectranorm.graphs import paley, write_graph6

    f = tmp_path / "p29.g6"
    f.write_text(write_graph6(paley(29)) + "\n")
    calls = []
    for name in ("hermitian_eigenvalues", "chromatic_number"):
        def counted(*args, _solve=getattr(bounds, name), _name=name):
            calls.append(_name)
            return _solve(*args)
        monkeypatch.setattr(bounds, name, counted)
    ids = ["SCHR_LOWER", "HOFFMAN", "KYFAN_CHROMATIC", "MCCLELLAND"]
    argv = [arg for bid in ids for arg in ("--bound", bid)]
    code, out = _run(capsys, "check", "--in", str(f), *argv, "--format", "json")
    assert code == 0
    assert [c["bound_id"] for c in json.loads(out)["checks"]] == ids
    assert sorted(calls) == ["chromatic_number", "hermitian_eigenvalues"]


def test_check_bound_skips_as_the_whole_registry_does(capsys, tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n0.5,3\n")
    code, out = _run(capsys, "check", "--in", str(f), "--bound", "KYFAN_01",
                     "--bound", "MCCLELLAND", "--format", "json")
    assert code == 0
    named = json.loads(out)["checks"]
    code, out = _run(capsys, "check", "--in", str(f), "--format", "json")
    whole = {c["bound_id"]: c for c in json.loads(out)["checks"]}
    assert named == [whole["KYFAN_01"], whole["MCCLELLAND"]]
    assert named[0]["params"] == {"k": 1}
    assert named[0]["skip_reason"] == "matrix entries must all be 0 or 1"


@pytest.mark.parametrize("argv", [
    ("norms", "--in", "x.g6", "--threads", "1"),
    ("check", "--in", "x.g6", "--threads", "1"),
    ("random", "--n", "5", "--seed", "1", "--threads", "1"),
    ("construct", "--family", "complete", "--params", "3", "--threads", "1"),
    ("norms", "--in", "x.g6", "--tol-scale", "2"),
    ("random", "--n", "5", "--seed", "1", "--tol-scale", "2"),
    ("construct", "--family", "complete", "--params", "3", "--tol-scale", "2"),
    ("search", "--objective", "SPREAD", "--n", "3", "--tol-scale", "2"),
])
def test_flags_that_do_nothing_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", "--in", "K4", "--p", "inf", "--q", "inf"),
    ("check", "--in", "K4", "--p", "nan"),
    ("check", "--in", "K4", "--q=-inf"),
    ("sweep", "--n", "3", "--p", "inf"),
    ("sweep", "--n", "3", "--p", "1", "--p", "nan"),
    ("search", "--objective", "MAX_SCHATTEN_P", "--n", "3", "--p", "nan"),
    ("search", "--objective", "MAX_SCHATTEN_P", "--n", "3", "--p", "inf"),
])
def test_non_finite_p_or_q_exits_2(capsys, tmp_path, argv):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    argv = [str(f) if a == "K4" else a for a in argv]
    code, out = _run(capsys, *argv, "--format", "json")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ValueError" and "finite" in error["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["check", "sweep"])
def test_tol_scale_not_finite_or_negative_exits_2(capsys, tmp_path, monkeypatch, command, value):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    target = ("--in", str(f)) if command == "check" else ("--n", "4")

    def no_work(*args, **kwargs):
        raise AssertionError("a bound row ran")

    monkeypatch.setattr(bounds.BoundRow, "evaluate", no_work)
    monkeypatch.setattr(sweep, "chunk_quantities", no_work)
    code, out = _run(capsys, command, *target, f"--tol-scale={value}", "--format", "json")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ValueError"
    assert "tol_scale must be finite and >= 0" in error["message"]
    code, out = _run(capsys, command, *target, f"--tol-scale={value}")
    assert code == 2 and out == ""


def test_check_finite_p_below_one_is_a_skip(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out = _run(capsys, "check", "--in", str(f), "--p", "0.5", "--format", "json")
    checks = {c["bound_id"]: c for c in json.loads(out)["checks"]}
    assert code == 0
    assert checks["SCHATTEN_EDGES"]["skipped"] is True


def test_check_keeps_tol_scale(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, _ = _run(capsys, "check", "--in", str(f), "--tol-scale", "2")
    assert code == 0


def test_sweep_exit_codes(capsys):
    code, _ = _run(capsys, "sweep", "--n", "4", "--threads", "1")
    assert code == 0
    # shrinking all tolerances far below float dust turns exact-equality
    # rows into reported violations: documents what --tol-scale does
    code, _ = _run(capsys, "sweep", "--n", "4", "--threads", "1",
                   "--tol-scale", "1e-9")
    assert code == 1


_NOT_FINITE = "a side of the bound is not finite in double precision"
# sum sigma_i^p overflows at these p, so each row with an unrooted sum has a side at inf or nan
_OVERFLOWING = ["SCHATTEN_EDGES", "KM_MATRIX"]


def _check_without_warnings(capsys, path, p):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", "--in", str(path), "--p", p, "--q", p, "--format", "json"])
    out, err = capsys.readouterr()
    assert caught == [] and err == ""
    return code, json.loads(out)["checks"]


def _assert_non_finite_skips(checks):
    skipped = [c for c in checks if c["skip_reason"] == _NOT_FINITE]
    assert [c["bound_id"] for c in skipped] == _OVERFLOWING
    assert all(c["skipped"] and c["holds"] is None and c["notes"] == "" for c in skipped)
    assert not any(c["holds"] is False for c in checks)


def test_check_k4_at_p_1000_reports_non_finite_rows_as_skips(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, checks = _check_without_warnings(capsys, f, "1000")
    assert code == 0
    _assert_non_finite_skips(checks)


def test_check_paley29_at_p_300_reports_non_finite_rows_as_skips(capsys, tmp_path):
    from spectranorm.graphs import paley, write_graph6

    f = tmp_path / "p29.g6"
    f.write_text(write_graph6(paley(29)) + "\n")
    code, checks = _check_without_warnings(capsys, f, "300")
    assert code == 0
    _assert_non_finite_skips(checks)


def test_sweep_n5_at_p_700_counts_non_finite_subjects_as_skipped(capsys):
    code, out = _run(capsys, "sweep", "--n", "5", "--p", "700", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["total_violations"] == 0
    for row in report["rows"]:
        assert row["violations"] == 0
        assert row["min_slack"] is None or math.isfinite(row["min_slack"]), row["bound_id"]
        assert row["evaluated"] + row["skipped"] == 1024, row["bound_id"]
    # sigma_1^700 passes the float range once sigma_1 is above about 2.75, so
    # the cell evaluates the sparser graphs alone
    edges = {r["bound_id"]: r for r in report["rows"]}["SCHATTEN_EDGES"]
    assert 0 < edges["evaluated"] and edges["skipped"] > 0 and edges["skip_reason"] is None


def test_sweep_csv(capsys):
    code, out = _run(capsys, "sweep", "--n", "3", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "bound_id,params,evaluated,skipped,violations,min_slack,equality_count"


def test_sweep_text_names_each_cell_without_a_space_before_the_colon(capsys):
    code, out = _run(capsys, "sweep", "--n", "1", "--p", "1", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert "  MCCLELLAND: evaluated=1 violations=0 min_slack=0 equalities=1" in lines
    assert "  SKIP HOFFMAN: graph must have at least one edge" in lines
    assert "  SKIP KM_DENSITY p=1: requires m >= n/2" in lines
    assert "  POWER_MEAN p=1 q=1: evaluated=1 violations=0 min_slack=0 equalities=1" in lines
    assert not any(" :" in line for line in lines)


def test_key_value_csv_joins_lists(capsys):
    code, out = _run(capsys, "search", "--objective", "TAU_K", "--n", "2", "--k", "2",
                     "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["witnesses"] == "A?;A_" and rows["witness_count"] == "2"
    code, out = _run(capsys, "random", "--n", "20", "--p", "1", "--samples", "2",
                     "--seed", "3", "--format", "csv")
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    payload = json.loads(_run(capsys, "random", "--n", "20", "--p", "1", "--samples", "2",
                              "--seed", "3", "--format", "json")[1])
    assert rows["values"] == ";".join(f"{v:.12g}" for v in payload["values"])
    assert rows["mean"] == repr(payload["mean"])


def test_random_determinism(capsys):
    code, out1 = _run(capsys, "random", "--n", "40", "--p", "1",
                      "--samples", "2", "--seed", "3", "--format", "json")
    assert code == 0
    code, out2 = _run(capsys, "random", "--n", "40", "--p", "1",
                      "--samples", "2", "--seed", "3", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["samples"] == 2 and len(payload["values"]) == 2


def test_search_cli_and_threads(capsys):
    outs = []
    for t in ("1", "2"):
        code, out = _run(capsys, "search", "--objective", "XI_K", "--n", "5",
                         "--k", "2", "--threads", t, "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["objective"] == "XI_K" and payload["n"] == 5


def test_json_schemas_pinned(capsys):
    # keys and their order, for every JSON payload built from a result record
    code, out = _run(capsys, "search", "--objective", "MAX_ENERGY", "--n", "4",
                     "--format", "json")
    assert list(json.loads(out)) == ["objective", "n", "param", "value",
                                     "witnesses", "witness_count",
                                     "graphs_scanned", "notes"]
    code, out = _run(capsys, "search", "--objective", "SPREAD_VS_F2", "--n", "4",
                     "--format", "json")
    assert list(json.loads(out)) == ["n", "max_spread", "max_kyfan2",
                                     "spread_witnesses", "kyfan2_witnesses",
                                     "maxima_coincide", "identity_max_gap",
                                     "graphs_scanned"]
    code, out = _run(capsys, "random", "--n", "30", "--p", "2", "--samples",
                     "1", "--seed", "1", "--format", "json")
    assert list(json.loads(out)) == ["n", "p", "samples", "seed", "values",
                                     "mean", "stdev", "normalized",
                                     "sigma1_over_n", "sigma2_over_sqrt_n"]
    code, out = _run(capsys, "sweep", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert list(payload) == ["n", "p_values", "k_values", "tol_scale",
                             "canonical", "graphs_scanned", "total_violations",
                             "rows"]
    for row in payload["rows"]:
        assert list(row) == ["bound_id", "params", "evaluated",
                             "skipped", "violations", "min_slack",
                             "equality_count", "equality_examples",
                             "violation_examples", "skip_reason"]


def test_search_spread_vs_f2(capsys):
    code, out = _run(capsys, "search", "--objective", "SPREAD_VS_F2", "--n", "4",
                     "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["maxima_coincide"] is True


def test_construct_blow_up(capsys, tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out = _run(capsys, "construct", "--family", "blow_up", "--params", "2",
                     "--in", str(f))
    assert code == 0
    g = load_subject(out)
    assert isinstance(g, Graph) and g.n == 8 and g.num_edges() == 24


def test_error_exit_2_and_json_error(capsys, tmp_path):
    code, _ = _run(capsys, "norms", "--in", str(tmp_path / "missing.g6"))
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code, out = _run(capsys, "norms", "--in", str(bad), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "RaggedRows"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing --in
    assert exc.value.code == 2


# --- the JSON writer ------------------------------------------------------------

def _subject_files(tmp_path):
    """K4, paley(13) and a seeded complex 3 x 5 matrix, as the CLI reads them."""
    from spectranorm.graphs import paley, write_graph6

    rng = np.random.default_rng(35)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    files = {"k4.g6": "C~\n", "paley13.g6": write_graph6(paley(13)) + "\n",
             "complex3x5.csv": format_matrix_csv(CMatrix.from_array(a))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


def _payload_argvs(tmp_path):
    """One `--format json` call of every payload kind, over the golden set's shapes."""
    from spectranorm.search import OBJECTIVES

    argvs = []
    for path in _subject_files(tmp_path):
        for params in ((), ("--p", "1", "--k", "1"), ("--p", "3", "--q", "3", "--k", "3")):
            argvs.append(("check", "--in", path, *params))
        argvs.append(("norms", "--in", path))
        argvs.append(("norms", "--in", path, "--p", "1.5", "--p", "3", "--k", "1", "--k", "3"))
    for n in (3, 4, 5, 6):
        for grid in ((), ("--p", "1", "--k", "1"), ("--p", "2.5", "--p", "3", "--k", "2")):
            for mode in ((), ("--canonical",), ("--tol-scale", "1000")):
                argvs.append(("sweep", "--n", str(n), *grid, *mode))
        for objective in OBJECTIVES + ("SPREAD_VS_F2",):
            param = {"XI_K": ("--k", "2"), "TAU_K": ("--k", "2"),
                     "MAX_SCHATTEN_P": ("--p", "3")}.get(objective, ())
            for mode in ((), ("--canonical",)):
                argvs.append(("search", "--objective", objective, "--n", str(n), *param, *mode))
    for n in (1, 2, 30):
        for p in ("1", "1.5", "2", "3"):
            argvs.append(("random", "--n", str(n), "--p", p, "--samples", "2", "--seed", "4"))
    argvs.append(("norms", "--in", str(tmp_path / "missing.g6")))  # the error payload
    return [argv + ("--format", "json") for argv in argvs]


def test_json_writer_matches_json_dumps_on_every_payload(capsys, tmp_path, monkeypatch):
    from spectranorm import cli

    payloads, emit = [], cli._emit_json

    def recorded(obj):
        payloads.append(obj)
        emit(obj)

    monkeypatch.setattr(cli, "_emit_json", recorded)
    for argv in _payload_argvs(tmp_path):
        del payloads[:]
        main(list(argv))
        out = capsys.readouterr().out
        assert len(payloads) == 1, argv
        assert out == json.dumps(payloads[0], indent=2) + "\n", argv


_JSON_STRINGS = ["", "plain", 'quote " backslash \\ slash /', "tab\t newline\n cr\r nul\x00 \x1f",
                 "\x7f caf\u00e9 \u4e2d\u6587 \U0001f600", "\u2028\u2029", "\ud800 lone surrogate"]
_JSON_NUMBERS = [0, 1, -1, 2**63, -(2**100), 10**40, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0, -1.5e-7,
                 math.nan, math.inf, -math.inf, np.float64(2.5), np.float64(-math.inf)]
_JSON_KEYS = _JSON_STRINGS + [0, 7, -3, 2**70, 0.5, -0.0, 1e300, math.nan, math.inf,
                              -math.inf, True, False, None, np.float64(0.25)]


def _random_json_value(rng, depth):
    kind = int(rng.integers(0, 8 if depth < 4 else 5))
    if kind == 0:
        return _JSON_STRINGS[rng.integers(len(_JSON_STRINGS))]
    if kind == 1:
        return _JSON_NUMBERS[rng.integers(len(_JSON_NUMBERS))]
    if kind == 2:
        return [True, False, None, 1, 0, 1.0][rng.integers(6)]  # bool against int
    if kind == 3:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 4:
        return int(rng.integers(-2**62, 2**62)) * int(rng.integers(1, 2**62))
    size = int(rng.integers(0, 5))  # empty containers too
    items = [_random_json_value(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {_JSON_KEYS[rng.integers(len(_JSON_KEYS))]: v for v in items}


@pytest.mark.parametrize("seed", range(8))
def test_json_writer_matches_json_dumps_on_random_values(seed):
    from spectranorm.cli import _json_text

    rng = np.random.default_rng(seed)
    for _ in range(200):
        obj = _random_json_value(rng, 0)
        assert _json_text(obj, "\n") == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": [{frozenset(): 1}]}, [1j], {"a": {1, 2}},
                                 b"bytes"])
def test_json_writer_rejects_what_json_rejects(obj):
    from spectranorm.cli import _json_text

    with pytest.raises(TypeError) as ours:
        _json_text(obj, "\n")
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("p", ["1", "3", "1000"])
def test_json_output_is_strict_json(capsys, tmp_path, p):
    # NaN and Infinity are not JSON; `check` is left out, since its schema
    # pins NaN on skipped rows
    argvs = [("norms", "--in", path, "--p", p) for path in _subject_files(tmp_path)]
    argvs += [("random", "--n", "13", "--p", p, "--samples", "2", "--seed", "5"),
              ("search", "--objective", "MAX_SCHATTEN_P", "--n", "4", "--p", p),
              ("sweep", "--n", "4", "--p", p)]
    for argv in argvs:
        code, out = _run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        _strict_json(out)


# --- file format parsing -------------------------------------------------------

def test_parse_matrix_examples():
    m = parse_matrix_file("0,1\n1,0")
    assert m.rows == 2 and m.data.ravel().tolist() == [0, 1, 1, 0]
    m = parse_matrix_file("1+1i")
    assert m.rows == 1 and m.data.ravel().tolist() == [1 + 1j]
    m = parse_matrix_file("2.5e-1-3i,4")
    assert m.data.ravel().tolist() == [0.25 - 3j, 4 + 0j]
    with pytest.raises(RaggedRows):
        parse_matrix_file("1,2\n3")
    with pytest.raises(BadComplexLiteral):
        parse_matrix_file("ham")
    with pytest.raises(BadComplexLiteral):
        parse_matrix_file("2i")  # needs the a+bi form


def _reference_complex_literal(cell):
    """The a+bi split found by a plain right-to-left scan, one character at a time."""
    s = cell.strip()
    if not s:
        raise BadComplexLiteral("empty cell")
    if s.endswith(("i", "I")):
        body = s[:-1]
        split = -1
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                split = idx
                break
        if split < 0:
            raise BadComplexLiteral(f"{cell!r}: complex cells need the a+bi / a-bi form")
        try:
            return complex(float(body[:split]), float(body[split:]))
        except ValueError:
            raise BadComplexLiteral(f"cannot parse complex literal {cell!r}") from None
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise BadComplexLiteral(f"cannot parse literal {cell!r}") from None


def _literal_outcome(parse, cell):
    try:
        return ("value", parse(cell))
    except BadComplexLiteral as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("cell", [
    "1+2i", "-1.5e-3-2e+4i", "1e-5i", "-3i", "+2-1i", "1e+5+1e-5I", " 0.5-0.25i ",
    "i", "+i", "1 + 2i", "1e+-2i", "--1i", "e-1i", "1.0+-2i",
    "", "  ", "2", "-0.0", "nan+infi", "1E-5-1E+5i", "e+i", "1e5e-5+1i", "+-i", "1e-i",
])
def test_parse_complex_literal_matches_reference_scan(cell):
    from spectranorm.fileio import parse_complex_literal

    got = _literal_outcome(parse_complex_literal, cell)
    want = _literal_outcome(_reference_complex_literal, cell)
    assert got[0] == want[0]
    if got[0] == "value" and want[1] != want[1]:
        assert repr(got[1]) == repr(want[1])
    else:
        assert got == want


def test_parse_complex_literal_matches_reference_scan_random():
    import random

    from spectranorm.fileio import parse_complex_literal

    rnd = random.Random(5)
    for _ in range(2000):
        cell = "".join(rnd.choice("0123456789.eE+-iI ") for _ in range(rnd.randint(0, 9)))
        assert (_literal_outcome(parse_complex_literal, cell)
                == _literal_outcome(_reference_complex_literal, cell)), cell


def test_matrix_csv_roundtrip():
    import numpy as np

    rng = np.random.default_rng(14)
    m = CMatrix.from_array(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    again = parse_matrix_file(format_matrix_csv(m))
    assert np.array_equal(again.data, m.data)


def _parse_outcome(parse, text):
    """The matrix's bits, or the exception's type and message."""
    import numpy as np

    try:
        data = parse(text).data
    except (ValueError, BadComplexLiteral, RaggedRows) as exc:
        return type(exc), str(exc)
    return data.shape, np.ascontiguousarray(data).view(np.uint64).tobytes()


def _seeded_matrix(seed, shape, complex_entries):
    import numpy as np

    rng = np.random.default_rng(seed)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 1e16])

    def part():
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        a.flat[rng.permutation(a.size)[:special.size]] = special
        return a

    a = np.zeros(shape, dtype=complex)
    a.real = part()  # set apart, so that signed zeros survive
    if complex_entries:
        a.imag = part()
    return CMatrix.from_array(a)


@pytest.mark.parametrize("seed", range(6))
def test_plain_parse_equals_cell_parse_bit_for_bit(seed):
    # format_matrix_csv writes what the bulk path reads: repr floats, `a+bi`
    from spectranorm.fileio import _parse_cells, _parse_plain

    m = _seeded_matrix(seed, (2 + seed, 12 - seed), complex_entries=seed % 2 == 0)
    text = format_matrix_csv(m)
    assert "-0.0" in text and "e-324" in text and "e+308" in text
    assert _parse_plain(text) is not None  # the bulk path read it
    assert _parse_outcome(parse_matrix_file, text) == _parse_outcome(_parse_cells, text)


@pytest.mark.parametrize("text", [
    "0,1,-1\n1,0,2\n-0,3,-7\n", "1,2\n3,4", "+1.,.5,-.5e-3+2.e+1i\n1E5,1e05-0i,-0-0i\n",
    "1e400,1\n", "1,-1e400\n", "1,2+1e400i\n", "1e-400,-1e-400-1e-400i\n",
])
def test_plain_files_take_the_bulk_path_and_agree(text):
    from spectranorm.fileio import _parse_cells, _parse_plain

    if "e400" not in text:  # 1e400 reads as inf, which both paths then reject
        assert _parse_plain(text) is not None
    assert _parse_outcome(parse_matrix_file, text) == _parse_outcome(_parse_cells, text)


def _random_plain_cell(rng):
    """One plain literal from the grammar the bulk path accepts, special values weighted in."""
    special = ["-0.0", "0.0", "5e-324", "4.9e-324", "2.2250738585072014e-308", "1e308",
               "1.7976931348623157e308", "42", "+1", ".5", "5.", "0", "-0"]

    def digits(k):
        return "".join(map(str, rng.integers(0, 10, k)))

    def unsigned():
        if rng.random() < 0.3:
            return special[rng.integers(len(special))].lstrip("+-")
        body = [digits(rng.integers(1, 16)), digits(rng.integers(1, 16)) + ".",
                digits(rng.integers(1, 16)) + "." + digits(rng.integers(0, 16)),
                "." + digits(rng.integers(1, 16))][rng.integers(4)]
        if rng.random() < 0.5:
            sign = ["", "+", "-"][rng.integers(3)]
            body += "eE"[rng.integers(2)] + sign + str(rng.integers(0, 290 if sign != "-" else 340))
        return body

    cell = ["", "+", "-"][rng.integers(3)] + unsigned()
    if rng.random() < 0.5:
        cell += "+-"[rng.integers(2)] + unsigned() + "i"
    return cell


@pytest.mark.parametrize("seed", range(4))
def test_random_plain_literals_parse_as_the_cell_parser(seed):
    # the bulk conversion reads every plain literal as `complex()` does:
    # signed zeros, subnormals, 1e308, integers, `+1`, `.5` and `5.`
    from spectranorm.fileio import _parse_cells, _parse_plain

    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 9, 2)
    text = "\n".join(",".join(_random_plain_cell(rng) for _ in range(cols))
                     for _ in range(rows)) + "\n" * int(rng.integers(2))
    assert _parse_plain(text) is not None
    assert _parse_outcome(parse_matrix_file, text) == _parse_outcome(_parse_cells, text)


@pytest.mark.parametrize("text", [
    "1, 2\n3,4\n", " 1,2\n3,4\n", "1,2 \n", "nan,1\n", "1,nan\n", "inf,1\n", "-inf,1\n",
    "1+nani\n", "1_0,2\n", "2i\n", "1,2i\n", "1+i\n", "+i\n", "i\n", "1,2,\n", ",1\n", "1,,2\n",
    "1,2\n3\n", "1\n2,3\n", "1,2\n3,4,5\n", "1,2\n3,x\n", "1,2I\n", "1,2\n\n3,4\n",
    "1,2\r\n3,4\r\n", "\n1,2\n", "1,2\n\n", "", "\n", "1,2\n3,nan\n", "1e,2\n", "1e+,2\n",
    "1..2,3\n", "--1,2\n", "1+2j\n", "(1+2i)\n", "1,2\n3,1_0\n", "1,2\n3, 4\n",
    "1234567890," * 40 + "x\n", "1.5e3-2.5e-4i," * 40 + "1e5e5\n",
])
def test_non_plain_files_agree_with_the_cell_parser(text):
    from spectranorm.fileio import _parse_cells, _parse_plain

    assert _parse_plain(text) is None
    assert _parse_outcome(parse_matrix_file, text) == _parse_outcome(_parse_cells, text)


def test_plain_row_pattern_compiles_on_python_3_10():
    # atomic groups `(?>...)` and possessive repeats (`*+`, `++`, `?+`, `{m,n}+`)
    # need Python 3.11, and the package supports 3.10
    import re

    from spectranorm.fileio import _PLAIN_ROW

    assert not re.search(r"\(\?>|[*+?}]\+", _PLAIN_ROW.pattern)


def test_package_parses_as_python_3_10():
    # grammar only (such as `except*`); regex syntax and newer stdlib calls
    # are not covered here
    import ast
    import pathlib

    import spectranorm

    modules = sorted(pathlib.Path(spectranorm.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_load_subject_detection(tmp_path):
    assert isinstance(load_subject("C~"), Graph)
    g = load_subject("3\n0 1\n1 2\n")
    assert isinstance(g, Graph) and g.num_edges() == 2
    assert isinstance(load_subject("0,1\n1,0"), CMatrix)
    assert isinstance(load_subject("1+1i"), CMatrix)
    # a bare integer line reads as an edge-list header
    g = load_subject("5\n")
    assert isinstance(g, Graph) and g.n == 5 and g.num_edges() == 0


def _construct_family_names():
    """The names the `construct --family` help lists."""
    (subs,) = [a for a in _build_parser()._actions if a.dest == "command"]
    (family,) = [a for a in subs.choices["construct"]._actions if a.dest == "family"]
    return family.help.split(" | ")


@pytest.mark.parametrize("argv", [
    ("--family", "hadamard"),
    ("--family", "dft", "--params", "2,3"),
    ("--family", "all_ones", "--params", "3"),
])
def test_construct_wrong_param_count_is_bad_family_params(capsys, argv):
    code, out = _run(capsys, "construct", *argv, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "BadFamilyParams" and error["message"].startswith("bad parameters")


def test_construct_every_listed_family_without_params(capsys):
    names = _construct_family_names()
    for name in names:
        # no exception may leave main: exit 0 with output, or 2 with an error payload
        code, out = _run(capsys, "construct", "--family", name, "--format", "json")
        if code == 0:
            assert out
        else:
            assert code == 2 and set(json.loads(out)) == {"error"}
            assert not json.loads(out)["error"]["message"].startswith("unknown family")
    # a name off the list is unknown, and the error offers exactly the listed names
    code, out = _run(capsys, "construct", "--family", "no_such_family", "--format", "json")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "BadFamilyParams"
    offered = error["message"].split("choose from ", 1)[1]
    assert offered == str(sorted(names))
