"""Each singular-value rule of the equality detectors, stated once.

A A* = cI is "every singular value equal" (`constructions._had_at`) for
every detector that asks it, and the one equality band is `EQ_TOL`. The
Gram-product test that `in_had_class` made before is kept here as an oracle.
"""

import ast
import math
import types
from pathlib import Path

import numpy as np
import pytest

import spectranorm
from spectranorm import bounds
from spectranorm.cmatrix import CMatrix
from spectranorm.constructions import (
    dft_matrix,
    in_had_class,
    kronecker,
    one_complement,
    sylvester_hadamard,
)
from spectranorm.enumeration import class_table
from spectranorm.graphs import Graph

_PACKAGE = Path(spectranorm.__file__).resolve().parent
_PHASES = (1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6)


def _gram_had_oracle(a):
    """`in_had_class` as a Gram product: constant modulus, off-diagonal of A A* within 1e-9."""
    d = a.data
    mods = np.abs(d)
    if not (mods.max() > 0.0 and mods.min() >= mods.max() * (1.0 - 1e-9)):
        return False
    gram = d @ d.conj().T
    row_norm_sq = float(np.max(np.abs(np.einsum("ii->i", gram))))
    off = gram - np.diag(np.einsum("ii->i", gram))
    return float(np.max(np.abs(off))) <= 1e-9 * row_norm_sq


def _phased_h8(eps):
    """Sylvester H8 with entry (0, 0) turned by the phase e^(i eps): constant modulus."""
    d = sylvester_hadamard(8).data.astype(complex)
    d[0, 0] *= np.exp(1j * eps)
    return CMatrix.from_array(d)


@pytest.mark.parametrize("eps", _PHASES)
def test_power_mean_and_schatten_abs_mat_agree_on_a_phased_hadamard(eps):
    power_mean, abs_mat = bounds.run_registry(
        _phased_h8(eps), bound_ids=["POWER_MEAN", "SCHATTEN_ABS_MAT"], p_values=(1.0,),
        q_values=(2.0,))
    assert power_mean.holds and abs_mat.holds
    assert power_mean.equality == abs_mat.equality == in_had_class(_phased_h8(eps))


@pytest.mark.parametrize("delta, zero_one", [(0.0, True), (3e-10, True), (7e-10, False)])
def test_kyfan_nonneg_gate_is_the_constant_modulus_of_the_flip(delta, zero_one):
    # J - 2A / |A|_inf is +-1 within 1e-9 relative iff every entry is within
    # about 5e-10 of 0 or 1; the gate's own 1e-9 band (7e-10 passed) is gone
    a = np.ones((3, 5))
    a[0, 0] -= delta
    chk = bounds.check_bound("KYFAN_NONNEG", CMatrix.from_array(a), k=1)
    assert chk.equality is zero_one
    assert chk.equality_witness["zero_one_multiple"] is zero_one


def _matrices():
    rng = np.random.default_rng(11)
    for n in range(1, 17):
        dft = dft_matrix(n).data
        yield f"dft{n}", dft
        yield f"dft{n}[:{n // 2 + 1}]", dft[: n // 2 + 1]
    for n in (1, 2, 4, 8, 16, 32):
        yield f"h{n}", sylvester_hadamard(n).data
    for a, b in ((2, 2), (3, 4), (4, 4), (5, 2)):
        yield f"dft{a}xh{b}", kronecker(dft_matrix(a), sylvester_hadamard(b)).data
        yield f"h{b}xdft{a}", 0.5 * kronecker(sylvester_hadamard(b), dft_matrix(a)).data
    for m, n in ((1, 1), (2, 3), (3, 3), (4, 7), (8, 8)):
        yield f"phases{m}x{n}", np.exp(2j * np.pi * rng.random((m, n)))
        yield f"signs{m}x{n}", rng.choice([-1.0, 1.0], size=(m, n))
        yield f"gauss{m}x{n}", rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        yield f"zero_one{m}x{n}", rng.integers(0, 2, (m, n)).astype(float)


def test_in_had_class_is_the_gram_oracle_on_flips_and_seeded_matrices():
    members = 0
    for n in range(1, 7):
        table = class_table(n)
        for rep in table.reps.tolist():
            flip = one_complement(Graph(n, rep).adjacency_matrix())
            assert in_had_class(flip) is _gram_had_oracle(flip), (n, rep)
            members += _gram_had_oracle(flip)
    for name, d in _matrices():
        a = CMatrix.from_array(d)
        assert in_had_class(a) is _gram_had_oracle(a), name
        members += _gram_had_oracle(a)
    assert members > 0


def test_the_band_where_the_sigma_test_and_the_gram_oracle_part():
    # the singular values of the phased H8 span less than EQ_TOL (1 + sigma_1)
    # at eps = 1e-8 .. 1e-7, where the Gram oracle's 1e-9 off-diagonal band
    # already fails; in_had_class reads the band as POWER_MEAN always has
    parted = [eps for eps in _PHASES
              if in_had_class(_phased_h8(eps)) is not _gram_had_oracle(_phased_h8(eps))]
    assert parted == [1e-8, 3e-8, 1e-7]
    assert all(in_had_class(_phased_h8(eps)) for eps in parted)


def _float_sqrt_target(n):
    """KM_ABSOLUTE's target parameters by the float square root it used before."""
    root = math.sqrt(n)
    if abs(root - round(root)) < 1e-9:
        r = round(root)
        return [n, (n + r) // 2, (n + 2 * r) // 4, (n + 2 * r) // 4]
    return None


def test_km_absolute_target_is_the_float_sqrt_rule():
    for n in range(1, 10**4 + 1):
        ctx = types.SimpleNamespace(graph=types.SimpleNamespace(n=n), srg=None)
        verdict, witness = bounds._detect_km_absolute(ctx, {})
        assert verdict is None
        assert witness["target_params"] == _float_sqrt_target(n), n


# --- one statement in the source --------------------------------------------------

def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(_PACKAGE.glob("*.py"))}


def test_the_equality_band_literal_is_only_eq_tol():
    sites = []
    for name, tree in _trees().items():
        eq_tol = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["EQ_TOL"]}
        sites += [(name, id(node) in eq_tol) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value == 1e-7]
    assert sites == [("constructions.py", True)]


def test_no_matrix_product_in_constructions_or_bounds():
    products = []
    for name in ("constructions.py", "bounds.py"):
        for node in ast.walk(_trees()[name]):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                products.append((name, node.lineno, "@"))
            elif isinstance(node, ast.Call):
                fn = node.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if called in ("dot", "einsum", "matmul", "vdot"):
                    products.append((name, node.lineno, called))
    assert products == []
