"""Bound registry: example values, detectors, preconditions, soundness."""

import math

import numpy as np
import pytest

from spectranorm.cmatrix import CMatrix
from spectranorm.constructions import all_ones, dft_matrix, sylvester_hadamard
from spectranorm.bounds import (
    SubjectContext,
    check_bound,
    detect_complete_multipartite,
    registry_ids,
    run_registry,
)
from spectranorm.errors import PreconditionFailed, UnknownBoundId
from spectranorm.graphs import (
    Graph,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    paley,
    path,
    perfect_matching,
    with_isolated,
)
from spectranorm.sweep import run_sweep


def test_mcclelland_example_k4():
    chk = check_bound("MCCLELLAND", complete(4))
    assert abs(chk.lhs - 6.0) < 1e-9
    assert abs(chk.rhs - math.sqrt(48)) < 1e-9
    assert chk.holds and not chk.equality


def test_mcclelland_matchings_and_empty():
    chk = check_bound("MCCLELLAND", perfect_matching(6))
    assert chk.equality  # energy 6 = sqrt(2*3*6)
    chk = check_bound("MCCLELLAND", empty_graph(4))
    # numerically 0 = 0, but the detector demands a nonzero Gram scale
    assert chk.holds and abs(chk.slack) < 1e-12 and not chk.equality


def test_kyfan01_equality_k4():
    chk = check_bound("KYFAN_01", complete(4), k=4)
    assert abs(chk.lhs - 6.0) < 1e-12 and abs(chk.rhs - 6.0) < 1e-12
    assert chk.equality
    assert chk.equality_witness["plain"] is True
    assert chk.equality_witness["nonzero_sigma"] == 4


def test_caporossi_p4_strict():
    chk = check_bound("CAPOROSSI", path(4))
    assert abs(chk.lhs - 2 * math.sqrt(5)) < 1e-9
    assert abs(chk.rhs - (1 + math.sqrt(5))) < 1e-9
    assert chk.holds and not chk.equality


def test_caporossi_equality_multipartite():
    g = with_isolated(complete_multipartite([2, 3]), 2)
    chk = check_bound("CAPOROSSI", g)
    assert chk.equality
    assert chk.equality_witness["parts"] == [3, 2]


def test_km_spectral_equality_kn():
    chk = check_bound("KM_SPECTRAL", complete(4), p=1.0)
    assert chk.equality  # 6 = 3 + sqrt(3) sqrt(12 - 9)


def test_km_density_detector_cases():
    chk = check_bound("KM_DENSITY", complete(5), p=1.0)
    assert chk.equality and chk.equality_witness["case"] == "complete"
    chk = check_bound("KM_DENSITY", perfect_matching(6), p=1.0)
    assert chk.equality and chk.equality_witness["case"] == "perfect_matching"
    # C_5 is strongly regular but its nontrivial eigenvalue moduli differ,
    # so the bound holds strictly
    chk = check_bound("KM_DENSITY", paley(5), p=1.0)
    assert chk.holds and not chk.equality
    from spectranorm.bounds import SubjectContext, _detect_km_density

    verdict, witness = _detect_km_density(SubjectContext(paley(13)), {"p": 1.0})
    assert verdict is False and witness["case"] == "strongly_regular"
    assert witness["srg"] == [13, 6, 2, 3]
    with pytest.raises(PreconditionFailed):
        check_bound("KM_DENSITY", with_isolated(complete(2), 3), p=1.0)  # m < n/2


def test_km_absolute_k4_equality():
    chk = check_bound("KM_ABSOLUTE", complete(4))
    assert chk.equality  # 6 = 4(1+2)/2; witness is informational
    assert chk.equality_witness["strongly_regular"] == [4, 3, 2, 0]


def test_hoffman_k4_equality():
    chk = check_bound("HOFFMAN", complete(4))
    assert abs(chk.lhs - 3.0) < 1e-9 and abs(chk.rhs - 3.0) < 1e-9
    assert chk.equality


def test_schr_lower_detectors():
    chk = check_bound("SCHR_LOWER", complete(4), p=1.0)
    assert chk.equality
    # at p > 1 only the regular multipartite case is structural equality
    chk = check_bound("SCHR_LOWER", complete_multipartite([2, 2]), p=1.5)
    assert chk.equality and chk.equality_witness["parts"] == [2, 2]
    chk = check_bound("SCHR_LOWER", path(4), p=1.0)
    assert chk.holds and not chk.equality
    # chi = 2: K_{a,b} has sigma_1 = sigma_2 = sqrt(ab), equality for any a, b
    for parts in ([1, 2], [2, 3]):
        chk = check_bound("SCHR_LOWER", complete_multipartite(parts), p=1.5)
        assert chk.equality, parts
        assert chk.equality_witness["parts"] == sorted(parts, reverse=True)
    chk = check_bound("SCHR_LOWER", complete_multipartite([1, 1, 2]), p=1.5)
    assert chk.holds and not chk.equality
    assert abs(chk.slack - 0.018) < 1e-3


def test_schatten_p_ge2_notes_flag():
    chk = check_bound("SCHATTEN_P_GE2", complete(4), p=3.0)
    assert chk.holds
    assert "norm-level" in chk.notes


def test_power_mean_equality_dft_rows():
    sub = CMatrix.from_array(dft_matrix(5).data[:3, :])
    chk = check_bound("POWER_MEAN", sub, p=1.0, q=2.0)
    assert chk.equality
    rng = np.random.default_rng(21)
    rand = CMatrix.from_array(rng.standard_normal((3, 5)))
    chk = check_bound("POWER_MEAN", rand, p=1.0, q=2.0)
    assert chk.holds and not chk.equality


def test_schatten_abs_mat_equality_dft():
    chk = check_bound("SCHATTEN_ABS_MAT", dft_matrix(4), p=1.0)
    assert abs(chk.lhs - 8.0) < 1e-9
    assert chk.equality


def test_km_matrix_exponent_choice():
    # regression for the frozen p/q final exponent: sound on random inputs,
    # while the 1/q variant is violated
    rng = np.random.default_rng(31)
    saw_1q_violation = False
    for _ in range(300):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, 7))
        a = CMatrix.from_array(rng.standard_normal((m, n)))
        for p, q in [(1.0, 2.0), (1.5, 2.0), (2.0, 3.0)]:
            chk = check_bound("KM_MATRIX", a, p=p, q=q)
            assert chk.holds
            from spectranorm.eigen import singular_values

            sig = singular_values(a).values
            inner = max(0.0, float(np.sum(sig**q)) - sig[0] ** q)
            rhs_1q = sig[0] ** p + (m - 1) ** (1 - p / q) * inner ** (1 / q)
            if chk.lhs > rhs_1q + 1e-9:
                saw_1q_violation = True
    assert saw_1q_violation


def test_nonneg_energy_block_equality():
    # (B, B) with B the adjacency of a maximum-energy order-4 graph attains
    # the absolute nonnegative bound
    b = complete(4).adjacency_matrix().data.real
    a = CMatrix.from_array(np.hstack([b, b]))
    chk = check_bound("NONNEG_ENERGY", a)
    assert abs(chk.lhs - (4 + 2) * math.sqrt(8) / 2) < 1e-9
    assert chk.equality
    assert chk.equality_witness == {"plain": True, "had_class": True}


def test_kyfan_l2_equality_hadamard():
    h = sylvester_hadamard(4)
    chk = check_bound("KYFAN_L2", h, k=4)
    assert chk.equality
    chk = check_bound("KYFAN_INF", h, k=4)
    assert chk.equality


def test_kyfan_matrix_equality_witness_construction():
    # Hadamard-type rows tensored with an all-ones block give exactly k
    # equal nonzero singular values, attaining both matrix Ky Fan bounds
    from spectranorm.constructions import all_ones, kronecker

    for k, q, r, s in [(2, 4, 2, 3), (3, 5, 1, 2), (1, 3, 3, 1)]:
        b = CMatrix.from_array(dft_matrix(q).data[:k, :])
        a = kronecker(b, all_ones(r, s))
        for bid in ("KYFAN_L2", "KYFAN_INF"):
            chk = check_bound(bid, a, k=k)
            assert chk.equality, (bid, k, q, r, s)
            assert chk.equality_witness["nonzero_sigma"] == k


def test_matrix_rows_orient_wide():
    # rows > cols inputs are transposed first; m becomes the smaller side
    rng = np.random.default_rng(41)
    tall = CMatrix.from_array(rng.standard_normal((5, 3)))
    wide = CMatrix.from_array(tall.data.T)
    for bid, kwargs in [("POWER_MEAN", dict(p=1.0, q=2.0)),
                        ("SCHATTEN_ABS_MAT", dict(p=1.5)),
                        ("KM_MATRIX", dict(p=1.0, q=2.0)),
                        ("KYFAN_L2", dict(k=2))]:
        a = check_bound(bid, tall, **kwargs)
        b = check_bound(bid, wide, **kwargs)
        assert a.holds and b.holds
        assert abs(a.lhs - b.lhs) < 1e-9 and abs(a.rhs - b.rhs) < 1e-9


def test_run_registry_named_rows():
    g = complete(4)
    named = run_registry(g, bound_ids=["HOFFMAN", "MCCLELLAND", "HOFFMAN"])
    assert [c.bound_id for c in named] == ["HOFFMAN", "MCCLELLAND", "HOFFMAN"]
    whole = {c.bound_id: c for c in run_registry(g)}
    assert named[0] == whole["HOFFMAN"] and named[1] == whole["MCCLELLAND"]
    with pytest.raises(UnknownBoundId):
        run_registry(g, bound_ids=["MCCLELLAND", "NO_SUCH_BOUND"])


def test_subject_context_takes_known_fields():
    from spectranorm.bounds import SubjectContext

    chi = np.array([4])
    ctx = SubjectContext(complete(4), chi=chi)
    assert ctx.chi is chi
    with pytest.raises(TypeError):
        SubjectContext(complete(4), n_rows=4)  # derived, not computed on first use


def test_preconditions_and_errors():
    with pytest.raises(UnknownBoundId):
        check_bound("NO_SUCH_BOUND", complete(3))
    with pytest.raises(PreconditionFailed):
        check_bound("MCCLELLAND", dft_matrix(3))  # graph-only row
    with pytest.raises(PreconditionFailed):
        check_bound("SCHATTEN_ABS_N", complete(3), p=2.0)  # needs p < 2
    with pytest.raises(PreconditionFailed):
        check_bound("SCHR_LOWER", empty_graph(3), p=1.0)  # needs an edge
    with pytest.raises(PreconditionFailed):
        check_bound("KM_SPECTRAL", complete(3))  # missing p
    with pytest.raises(PreconditionFailed):
        check_bound("KYFAN_01", dft_matrix(3), k=1)  # not 0/1
    with pytest.raises(PreconditionFailed):
        check_bound("KYFAN_L2", complete(3), k=5)  # k > m
    with pytest.raises(PreconditionFailed):
        check_bound("POWER_MEAN", complete(3), p=3.0, q=2.0)  # p > q


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-200])
def test_tiny_gaussian_matrix_is_not_zero_one(scale):
    # every entry of a complex Gaussian matrix times 1e-200 is below 1e-12;
    # an absolute 0/1 test read it as a 0/1 matrix and evaluated KYFAN_01
    rng = np.random.default_rng(7)
    z = scale * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    assert not SubjectContext(CMatrix.from_array(z)).zero_one[0]
    (chk,) = run_registry(CMatrix.from_array(z), bound_ids=["KYFAN_01"], k_values=(2,))
    assert chk.skipped and chk.skip_reason == "matrix entries must all be 0 or 1"
    # a true 0/1 matrix stays one, with or without roundoff at |A|_inf = 1
    ones = (rng.random((4, 6)) < 0.5).astype(float)
    ones[0, 0] = 1.0
    assert SubjectContext(CMatrix.from_array(ones)).zero_one[0]
    assert SubjectContext(CMatrix.from_array(ones * (1.0 + 1e-13))).zero_one[0]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_p_or_q_is_a_value_error(bad):
    with pytest.raises(ValueError, match="must be finite"):
        check_bound("SCHATTEN_EDGES", complete(4), p=bad)
    with pytest.raises(ValueError, match="must be finite"):
        check_bound("POWER_MEAN", dft_matrix(3), p=1.0, q=bad)
    with pytest.raises(ValueError, match="must be finite"):
        run_registry(complete(4), p_values=(bad,))
    with pytest.raises(ValueError, match="must be finite"):
        run_registry(dft_matrix(3), p_values=(1.0,), q_values=(bad,))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
def test_tol_scale_not_finite_or_negative_is_a_value_error(bad):
    with pytest.raises(ValueError, match="tol_scale must be finite and >= 0"):
        check_bound("MCCLELLAND", complete(4), tol_scale=bad)
    with pytest.raises(ValueError, match="tol_scale must be finite and >= 0"):
        run_registry(complete(4), tol_scale=bad)
    with pytest.raises(ValueError, match="tol_scale must be finite and >= 0"):
        run_sweep(3, tol_scale=bad)


def test_zero_tol_scale_is_accepted():
    # a zero band is a valid (strict) tolerance, not an input error
    assert check_bound("MCCLELLAND", empty_graph(3), tol_scale=0.0).holds is True
    assert run_sweep(3, tol_scale=0.0).tol_scale == 0.0


def test_finite_p_below_one_stays_a_skip():
    res = run_registry(complete(4), p_values=(0.5,))
    skipped = {c.bound_id: c.skip_reason for c in res if c.skipped}
    assert skipped["SCHATTEN_EDGES"].startswith("requires")
    with pytest.raises(PreconditionFailed):
        check_bound("SCHATTEN_EDGES", complete(4), p=0.5)


def _seeded_complex_3x5():
    rng = np.random.default_rng(35)
    return CMatrix.from_array(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))


def _seeded_zero_one():
    return CMatrix.from_array(np.random.default_rng(46).integers(0, 2, size=(4, 6)).astype(float))


_ONE_ROW_SUBJECTS = {
    "K4": lambda: complete(4),
    "paley13": lambda: paley(13),
    "C5": lambda: cycle(5),
    "dft4": lambda: dft_matrix(4),
    "hadamard4": lambda: sylvester_hadamard(4),
    "complex3x5": _seeded_complex_3x5,
    "zero_one4x6": _seeded_zero_one,
}


@pytest.mark.parametrize("params", [{"p": 1.0, "q": 2.0, "k": 1},
                                    {"p": 3.0, "q": 3.0, "k": 3}])
@pytest.mark.parametrize("name", list(_ONE_ROW_SUBJECTS))
def test_check_bound_is_the_one_row_registry(name, params):
    # check_bound gives run_registry's record for its row, or raises with its skip reason
    subject = _ONE_ROW_SUBJECTS[name]()
    for bound_id in registry_ids():
        (expected,) = run_registry(subject, bound_ids=[bound_id], p_values=(params["p"],),
                                   q_values=(params["q"],), k_values=(params["k"],))
        if expected.skipped:
            with pytest.raises(PreconditionFailed) as exc:
                check_bound(bound_id, subject, **params)
            assert str(exc.value) == f"{bound_id}: {expected.skip_reason}"
        else:
            assert check_bound(bound_id, subject, **params) == expected, bound_id


def _brute_complete_multipartite(g: Graph):
    adj = g.neighbor_masks()
    live = [v for v in range(g.n) if adj[v]]
    # non-adjacency must be transitive on the live vertices
    for u in live:
        for v in live:
            for w in live:
                if u == w or u == v or v == w:
                    continue
                if not g.has_edge(u, v) and not g.has_edge(v, w) and g.has_edge(u, w):
                    return False
    return True


def test_detect_complete_multipartite_examples():
    assert detect_complete_multipartite(cycle(4)) == [2, 2]
    assert detect_complete_multipartite(path(4)) is None
    assert detect_complete_multipartite(with_isolated(complete(3), 2)) == [1, 1, 1]
    assert detect_complete_multipartite(empty_graph(3)) == []


def test_detect_complete_multipartite_brute_force():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph(n, mask)
            got = detect_complete_multipartite(g) is not None
            assert got == _brute_complete_multipartite(g), (n, mask)


def test_schatten_abs_n_paley_tightness_trend():
    # the absolute order-only bound is strict at finite order but the Paley
    # family approaches it: the powered norm over the bulk term decreases
    # toward 1, and over the full bound increases toward 1
    from spectranorm.norms import schatten_norm

    for p in (1.0, 1.5):
        bulk_ratios = []
        full_ratios = []
        for q in (13, 17, 29, 37, 53):
            lhs = schatten_norm(paley(q), p) ** p
            bulk = 2.0 ** (-p) * q ** (1 + p / 2.0)
            bulk_ratios.append(lhs / bulk)
            full_ratios.append(lhs / (bulk + q**p))
        assert all(r > 1.0 for r in bulk_ratios)
        assert bulk_ratios == sorted(bulk_ratios, reverse=True)
        assert all(r < 1.0 for r in full_ratios)
        assert full_ratios == sorted(full_ratios)


def test_run_registry_reports_skips():
    res = run_registry(complete(4), p_values=(3.0,), k_values=(1,))
    by_id = {}
    for chk in res:
        by_id.setdefault(chk.bound_id, []).append(chk)
    assert any(c.skipped for c in by_id["SCHATTEN_ABS_N"])
    assert all(c.skipped is False for c in by_id["SCHATTEN_P_GE2"])
    # matrix subject: graph rows are reported skipped, never dropped
    res = run_registry(dft_matrix(3), p_values=(1.0,), k_values=(1,))
    ids = {c.bound_id for c in res}
    assert "MCCLELLAND" in ids
    assert all(c.skipped for c in res if c.bound_id == "MCCLELLAND")


def test_run_registry_perfect_matching_equalities():
    res = run_registry(perfect_matching(6), p_values=(1.0,), k_values=(1,))
    flags = {c.bound_id: c for c in res if not c.skipped}
    assert flags["MCCLELLAND"].equality
    assert flags["SCHATTEN_EDGES"].equality


def test_registry_soundness_order_5_exhaustive():
    # every evaluated row holds on every labeled order-5 graph
    for mask in range(1 << 10):
        g = Graph(5, mask)
        for chk in run_registry(g, p_values=(1.0, 1.5, 2.0, 3.0),
                                q_values=(2.0, 3.0), k_values=(1, 2, 3)):
            if chk.skipped:
                continue
            assert chk.holds, (mask, chk.bound_id, chk.params, chk.slack)
            if chk.equality:
                assert chk.holds  # equality implies holds


_SQ2, _SQ3, _SQ5, _SQ6 = math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(6)
_PHI = (1 + _SQ5) / 2  # C_5 has eigenvalues 2, 1/phi, 1/phi, -phi, -phi


def _mat(rows):
    return CMatrix.from_array(np.array(rows, dtype=complex))


# one subject per row with both sides derived by hand; matrix rows use
# rectangular subjects (some tall, so orientation is exercised too)
_ORACLE = [
    ("MCCLELLAND", lambda: path(3), {}, 2 * _SQ2, math.sqrt(12)),
    ("SCHATTEN_EDGES", lambda: cycle(4), {"p": 3.0}, 16.0, 8 * _SQ2),
    ("KM_SPECTRAL", lambda: path(3), {"p": 1.0}, 2 * _SQ2, _SQ2 + 2),
    ("KM_DENSITY", lambda: cycle(4), {"p": 1.0}, 4.0, 2 + 2 * _SQ3),
    ("SCHATTEN_ABS_N", lambda: complete(3), {"p": 1.0}, 4.0, 1.5 * _SQ3 + 3),
    ("KM_ABSOLUTE", lambda: complete(3), {}, 4.0, 3 * (1 + _SQ3) / 2),
    ("SCHATTEN_P_GE2", lambda: complete(3), {"p": 3.0}, 10 ** (1 / 3), _SQ6),
    ("SCHR_LOWER", lambda: cycle(5), {"p": 2.0}, math.sqrt(10), _SQ6),
    ("HOFFMAN", lambda: cycle(5), {}, 2 * _PHI, 2.0),
    ("CAPOROSSI", lambda: cycle(5), {}, 2 + 2 * _SQ5, 4.0),
    ("KYFAN_CHROMATIC", lambda: cycle(5), {}, 3 + _SQ5, 4.0),
    ("EMNA", lambda: cycle(5), {}, 2 + 1 / _PHI, (0.5 + math.sqrt(5 / 12)) * 5),
    ("POWER_MEAN", lambda: _mat([[1, 0], [0, 2], [0, 0]]), {"p": 1.0, "q": 2.0},
     1.5, _SQ5 / _SQ2),
    ("SCHATTEN_ABS_MAT", lambda: _mat([[1, 0, 0], [0, 2, 0]]), {"p": 2.0},
     _SQ5, _SQ2 * _SQ3 * 2),
    ("KM_MATRIX", lambda: _mat([[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0]]),
     {"p": 1.0, "q": 2.0}, 6.0, 3 + math.sqrt(10)),
    ("NONNEG_ENERGY", lambda: _mat([[1, 1, 0], [0, 1, 1]]), {}, _SQ3 + 1,
     (2 + _SQ2) * _SQ3 / 2),
    ("KYFAN_01", lambda: _mat([[1, 0], [1, 1], [0, 1]]), {"k": 1}, _SQ3, _SQ6),
    ("KYFAN_L2", lambda: _mat([[3, 0, 0], [0, 4, 0]]), {"k": 2}, 7.0, 5 * _SQ2),
    ("KYFAN_INF", lambda: CMatrix.from_array(dft_matrix(3).data[:2, :]), {"k": 1},
     _SQ3, _SQ6),
    ("KYFAN_NONNEG", lambda: _mat([[2, 0], [0, 1], [0, 0]]), {"k": 2}, 3.0,
     (1 + _SQ2) * _SQ6),
]


@pytest.mark.parametrize("bound_id,subject,params,lhs,rhs", _ORACLE,
                         ids=[row[0] for row in _ORACLE])
def test_row_formula_oracle(bound_id, subject, params, lhs, rhs):
    chk = check_bound(bound_id, subject(), **params)
    assert abs(chk.lhs - lhs) < 1e-9 and abs(chk.rhs - rhs) < 1e-9, (chk.lhs, chk.rhs)


def test_row_formula_oracle_covers_registry():
    assert sorted(row[0] for row in _ORACLE) == sorted(registry_ids())


def test_registry_ids_stable():
    assert registry_ids() == [
        "MCCLELLAND", "SCHATTEN_EDGES", "KM_SPECTRAL", "KM_DENSITY",
        "SCHATTEN_ABS_N", "KM_ABSOLUTE", "SCHATTEN_P_GE2", "SCHR_LOWER",
        "HOFFMAN", "CAPOROSSI", "KYFAN_CHROMATIC", "EMNA", "POWER_MEAN",
        "SCHATTEN_ABS_MAT", "KM_MATRIX", "NONNEG_ENERGY", "KYFAN_01",
        "KYFAN_L2", "KYFAN_INF", "KYFAN_NONNEG",
    ]


def test_kyfan_01_solves_the_flip_once(monkeypatch):
    # one singular value solve for A and one for J - 2A, which the plainness
    # test reuses
    from spectranorm import bounds, constructions

    calls = []
    for module in (bounds, constructions):
        solve = module.singular_values
        monkeypatch.setattr(module, "singular_values",
                            lambda a, solve=solve: calls.append(a) or solve(a))
    chk = check_bound("KYFAN_01", all_ones(3, 5), k=1)
    assert chk.equality
    assert chk.equality_witness["plain"] is True
    assert chk.equality_witness["nonzero_sigma"] == 1
    assert abs(chk.equality_witness["sigma_value"] - math.sqrt(15.0)) < 1e-12
    assert len(calls) == 2


@pytest.mark.parametrize("s", [1.0, 1e-13, 1e-200])
def test_nonneg_preconditions_are_scale_free(s):
    # imaginary parts count against |A|_inf, and so does the mass deficit
    non_real = CMatrix.from_array(s * np.array([[1.0, 1j], [1j, 1.0]]))
    rows = [c for c in run_registry(non_real)
            if c.bound_id in ("NONNEG_ENERGY", "KYFAN_NONNEG")]
    assert len(rows) == 2
    assert all(c.skipped and c.skip_reason == "matrix must be nonnegative" for c in rows)
    thin = CMatrix.from_array(s * np.diag([1.0, 0.999]))
    with pytest.raises(PreconditionFailed, match=r"\|A\|_1 >= n \|A\|_inf"):
        check_bound("NONNEG_ENERGY", thin)
