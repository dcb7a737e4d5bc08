"""`check --format json` on the benchmark's registry subjects, pinned by digest.

The 13 subjects of `perfbench/workloads.py` at seed 7, each under both of
its parameter sets, run in a directory of their input files. A change meant
to leave the bound rows' outputs alone leaves every digest here alone.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spectranorm.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_MODULE = "_perfbench_workloads"

# argv after "check --in", with --format json appended: (exit code, sha256 of stdout)
REGISTRY_GOLDENS = {
    "paley29.g6 --p 1 --k 1":
        (0, "0057259043f569b39a1e1098c325e19fbaffc7244d39a2294a500b545fd4a5b1"),
    "paley29.g6 --p 3 --q 3 --k 3":
        (0, "17c611c374b625fc99a1366c9fb35d7598d82e618c45b29a2336f91c6d5f8ee0"),
    "paley13.g6 --p 1 --k 1":
        (0, "8f74557983ff3efec497a442b219927624994b8a34635306301413f12be6167d"),
    "paley13.g6 --p 3 --q 3 --k 3":
        (0, "25645cce6c94d68f93b2b041392f4170c7bc675a244de3f06671e9e1a930a648"),
    "blowup_k4_3.g6 --p 1 --k 1":
        (0, "e2279d8ca5a057d0974b89b11605d458b7f77e3e6d52ddfa85c4f9197cdbf0b7"),
    "blowup_k4_3.g6 --p 3 --q 3 --k 3":
        (0, "c5a3c0dcaeec0426faabe18d3d7082a1982fe09ba2bd80f5d229cff918b6d973"),
    "k333.g6 --p 1 --k 1":
        (0, "db862a546872b2702375ed54509dc4b761007dbaa341b7abacc81dea26a1dc19"),
    "k333.g6 --p 3 --q 3 --k 3":
        (0, "c3bcba7d0f5b24fcf87da8e0cb6f05c6f0577faecd256bc75476942f8073658f"),
    "c30.g6 --p 1 --k 1":
        (0, "d95e9e31f8416993f007d8db33627aa958796a246450f6fedc704b5ca923198d"),
    "c30.g6 --p 3 --q 3 --k 3":
        (0, "36f338de171f6fc8e619c683c75794fa9f2deeed2bae7eea6043b4a8e608d3b1"),
    "gnp32.g6 --p 1 --k 1":
        (0, "506cc2093838935d9f744eda2738a8f365d96fbae6292b84d9bdc8a6014fc579"),
    "gnp32.g6 --p 3 --q 3 --k 3":
        (0, "dda541397d07b6f1602239705383b1213e204cb35093ad01af7eb2c8a1694310"),
    "dft8.csv --p 1 --k 1":
        (0, "9e52cbf561d942bf7bf69b8724edc396016073b40debc282f5efc58eb1e31af0"),
    "dft8.csv --p 3 --q 3 --k 3":
        (0, "dc0110b385df2aba16dfed088d680f606d2b615c69a823a00e3eb935092a0260"),
    "h16.csv --p 1 --k 1":
        (0, "1ea5082477a81282bc425e13126e41d9380d46b7ffb21b1d727705c3fd82359e"),
    "h16.csv --p 3 --q 3 --k 3":
        (0, "4fa1da2e4027f7600f42e67b957378aeea59b786e8eaba6a195ca385756bb506"),
    "dft4_kron_h4.csv --p 1 --k 1":
        (0, "66ce265558158e459a504fc30144ee0cda0a3f540559d9878d7fbf411f40c672"),
    "dft4_kron_h4.csv --p 3 --q 3 --k 3":
        (0, "37f81b38dec943c1a2d8f77fe8599c2ed160f2e02c73e18962ba9ea50345f08f"),
    "complex12x20.csv --p 1 --k 1":
        (0, "f90aaa92f8ff1624425ccf015a5360f64e973cef070fd680d4eb46dcf3c49eea"),
    "complex12x20.csv --p 3 --q 3 --k 3":
        (0, "dab3fdaead613755975beaf4d94d7e31f04e365e9a28c5015c19ecdfa3433bfb"),
    "complex60x80.csv --p 1 --k 1":
        (0, "e7ddc5c7d172f754939d8da486ddb87fd000cf6e694a6c0e465337478cf97f8d"),
    "complex60x80.csv --p 3 --q 3 --k 3":
        (0, "048426329a4975f2443f1c6a9e94e0c2d392b05886c1b1465fedf3a3a7c95202"),
    "nonneg30x30.csv --p 1 --k 1":
        (0, "3275116dc94d95074f2a91d00102c49e42b22673ba4ef5581d422a3d3ef19bf7"),
    "nonneg30x30.csv --p 3 --q 3 --k 3":
        (0, "f5b72e4bbda58d1f0db9cc7e177e7c962126644e9a9a6f09b276fc8a8efa4c92"),
    "zero_one20x40.csv --p 1 --k 1":
        (0, "24ff33ca41c462ae3cb1dd0552fb621e88e01647299a6496523bfad38b762b6f"),
    "zero_one20x40.csv --p 3 --q 3 --k 3":
        (0, "a67da168813890318a0c70afc9c3e046c000fcefbcd474bbaab9c3331e3431d9"),
}


def workloads():
    """`perfbench/workloads.py`, loaded once, with no bytecode written next to it."""
    if _MODULE not in sys.modules:
        saved = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            spec = importlib.util.spec_from_file_location(_MODULE, WORKLOADS)
            module = sys.modules[_MODULE] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)  # its dataclasses look their module up by name
        finally:
            sys.dont_write_bytecode = saved
    return sys.modules[_MODULE]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("registry")
    wl = workloads()
    for name, kind, a in wl.registry_subjects(7):
        if kind == "graph":
            (d / f"{name}.g6").write_text(wl.graph6(a) + "\n")
        else:
            (d / f"{name}.csv").write_text(wl.matrix_csv(a))
    return d


def test_the_goldens_cover_every_subject_and_parameter_set():
    wl = workloads()
    want = {f"{name}.{'g6' if kind == 'graph' else 'csv'} {' '.join(params)}"
            for name, kind, _ in wl.registry_subjects(7) for params in wl.PARAM_SETS}
    assert set(REGISTRY_GOLDENS) == want


@pytest.mark.parametrize("args", list(REGISTRY_GOLDENS))
def test_registry_check_digest(args, inputs, capsys, monkeypatch):
    monkeypatch.chdir(inputs)
    code = main(["check", "--in", *args.split(), "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == REGISTRY_GOLDENS[args]


@pytest.mark.parametrize("k", range(1, 13))
def test_norms_kyfan_is_the_kyfan_row_lhs_bit_for_bit(k, inputs, capsys, monkeypatch):
    # one Ky Fan sum: `norms` prints the bits `check` reads, also past k = 7
    monkeypatch.chdir(inputs)
    assert main(["norms", "--in", "complex12x20.csv", "--k", str(k), "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["kyfan"][str(k)]
    argv = ["check", "--in", "complex12x20.csv", "--bound", "KYFAN_L2", "--k", str(k),
            "--format", "json"]
    assert main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["checks"]
    assert value.hex() == row["lhs"].hex()
