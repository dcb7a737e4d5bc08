"""Output bytes of representative CLI calls, pinned by the sha256 of stdout.

Each entry is one argv, run in a directory of input files (some outputs name
the input file), and the call's exit code with the sha256 of what it wrote
to stdout. A refactor that is meant to leave outputs alone leaves every
digest alone; a change that moves an output updates its digest and says why.
"""

import hashlib

import numpy as np
import pytest

from spectranorm.cli import main
from spectranorm.cmatrix import CMatrix
from spectranorm.fileio import format_matrix_csv
from spectranorm.graphs import complete, cycle, paley, write_graph6

GOLDENS = {
    "sweep --n 4 --format json":
        (0, "3404e1c56057df9a3bc17955c5539cb1273d0aead3f15e309e6d9e73c2b5c6f2"),
    "sweep --n 4 --format csv":
        (0, "730097f5fe4b95d3b3dd7bd7868f37e2c139dc886aea9b257a777518f67751da"),
    "sweep --n 4 --canonical --format json":
        (0, "283269767aadf37d36987e358e8c16211e7eb95b3dcbe5d6710de347dd0de47d"),
    "sweep --n 4 --canonical --format csv":
        (0, "874ac4a49a2795447466a9697320d211304d5c1892cae4d8b817418be3a26047"),
    "sweep --n 5 --format json":
        (0, "8109d29d902746d52ded80b72a69bb46c2625540b5fee359395704cbbfbeb415"),
    "sweep --n 5 --format csv":
        (0, "ebf6fbf82cdc6e2d7add13979c39b58fa84d2917b1d4d76907c81e373a58416a"),
    "sweep --n 5 --canonical --format json":
        (0, "127b2eb7a7ce315a3cff01b5ec5d7cf57f983623e70c49f84bb938aff321df1b"),
    "sweep --n 5 --canonical --format csv":
        (0, "7e4a1b356c543da8b1669607ea3cd90e0d6d1836a2d870ab549f9723e90b8279"),
    "sweep --n 5 --p 1.5 --p 3 --k 2 --format json":
        (0, "bd896d642965aee3b6efffb5432a5d38a08287b929c3d366ba5602dbe03c6ace"),
    "search --objective XI_K --k 2 --n 5 --format json":
        (0, "671b875a18574b4c827c6df455c31d2561a48fe000139d574d4f3a1a1d0065f7"),
    "search --objective TAU_K --k 3 --n 5 --format json":
        (0, "46ef9cac9b6aa902d9a06a0302bac3e054a22b523210fdc78f8ad1ee27dc9238"),
    "search --objective SPREAD --n 5 --format json":
        (0, "7d9ed70bd2a2bc3d2591deae5f782e18775b01e877f2705b586932194e4326ee"),
    "search --objective MAX_ENERGY --n 5 --format json":
        (0, "bcc7037d9b79d4761752e27e88fd1860c5084b109c7cbf558a8a2f59d6869317"),
    "search --objective MAX_ENERGY --n 5 --canonical --format json":
        (0, "6473b42720b7fbe069bdb08adbd59734a277612ddf72672d484fcf6f0508879c"),
    "search --objective MAX_SCHATTEN_P --p 1.5 --n 5 --format json":
        (0, "343b6c2649884ee86dc2953a2021a61d98244d12eb8b08fa236fbe057aa5b188"),
    "search --objective SPREAD_VS_F2 --n 5 --format json":
        (0, "f02267a126ff8f29b8016ec12df0b5c79e9a2dc345355ee0a74379281cd0523c"),
    "search --objective XI_K --n 5 --format json":
        (2, "76e88cac9e6b7b9305ca3c9ce830715f3afa41083d559d1c1b8ef0681c8f8ed9"),
    "search --objective TAU_K --n 5 --format json":
        (2, "79f77421e3a0b669230ca3531120b701a4f407eb5dd4c4d7db1ff2cea55f09b9"),
    "search --objective MAX_SCHATTEN_P --n 5 --format json":
        (2, "447407e0f952d9113484ba158a2985ee7b552d4fa7af17a71cd449ff5afdcb0d"),
    "check --in k4.g6 --format json":
        (0, "cb7270a5eebf2edffabc7108b1779d46d9b6bc891b901e3d0881a729b9a39b66"),
    "check --in paley13.g6 --format json":
        (0, "8e6c8e5ab1bcc908599486a46e89918ea3d4eea4ed8da9d75f1f13ae9dfa1049"),
    "check --in c5.g6 --format json":
        (0, "77be665eeb2cabe41bd618f88dfc528cd40cf26968bc484b8e9e001614c84169"),
    "check --in c35.csv --format json":
        (0, "7f87df5dcff0655f644b7d85cb690ae8d9306d33d63308b69a81941c6066cd60"),
    "check --in k4.g6 --p 1000 --q 1000 --format json":
        (0, "40d4b7ff2344d7b4847d5191df67c3adc9e2f50c04a25d057d6e6b5e89efd4c9"),
    "check --in c35.csv --p 1.5 --q 3 --k 2 --format json":
        (0, "79f3ad5eb71b11be6262ee121cbd03624cd957bf4c93541298abc4edd3f6598f"),
    "norms --in k4.g6 --format json":
        (0, "ca3544dd5e9e21f7b07d0e061308ea9f0a601386b1cbf991bbf8aef0cad32c30"),
    "norms --in paley13.g6 --format json":
        (0, "50e7befcb1eaa529b63732c7c67c882fefdd45e1966e7aca178ca9870e6d65fa"),
    "norms --in c5.g6 --format json":
        (0, "388c20fba0c1ea503dc148b04f979be1899d991058484f4e46c88bc6456be3da"),
    "norms --in c35.csv --format json":
        (0, "d1aac832388b9db29ff313d93725cbe74a8221f7d44d07af3d971c6a677bf0b6"),
    "norms --in k4.g6 --p 1 --p 1.5 --p 1000 --k 2 --format json":
        (0, "47c0c74bb1834d92316cbc5d071ed257e03e78b4d23f1e4c71c300d4ba3cb682"),
    "construct --family paley --params 13":
        (0, "9ef54215ac86fcb70ebc6fefc900af318bdd3d159bd9600cd88a000e8115a5b0"),
    "construct --family hadamard --params 8":
        (0, "941821af32cfcc6ea5a43486e82bb049cfe0a5976d56fd68f613447fc5c42b64"),
    "construct --family blow_up --params 2 --in c5.g6":
        (0, "61b6903e8e36f4d9b021a83c19b3950674b145af8ed2d635e88240b22c2bce07"),
    "construct --family with_isolated --params 3 --in el30.txt":
        (0, "5c4c0d585608ae4b5ce810a3ea7b6c78e6419f18c1006f358bdf8a3e66bff48a"),
    "random --n 60 --p 1 --samples 2 --seed 3 --format json":
        (0, "1b438d81fd25888ff74a6cd87145d5a57dc72995c6704e16a79e841cd9903af8"),
    "random --n 60 --p 1.5 --samples 2 --seed 3 --format json":
        (0, "9b2409c5fdd363208d76eab9747cfd64588f63b1faad4224adef2b68f2fd09d6"),
    "random --n 60 --p 2 --samples 2 --seed 3 --format json":
        (0, "9f9ed8fabdbe796970b31a542cdf9d57bdf11f9a42154995dd6ad907cc1dcd45"),
    "random --n 60 --p 3 --samples 2 --seed 3 --format json":
        (0, "27b6aa913d97b05d5a833f400c04641a901eb84cde96e5d3041eb09ee396355c"),
    "random --n 13 --p 1 --samples 3 --seed 0 --format csv":
        (0, "898f7fd2cb568085c1303b80a1a6fbbc7dc1e9d7a2e26dab19a02a56fcd5dbd4"),
    "random --n 13 --p 1.5 --samples 3 --seed 0 --format text":
        (0, "26c9d57161e2d157626ae5d9037eeafff554282085aa4d0c8f9aa5e8fad75ff3"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("goldens")
    for name, g in {"k4": complete(4), "paley13": paley(13), "c5": cycle(5)}.items():
        (d / f"{name}.g6").write_text(write_graph6(g) + "\n")
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    (d / "c35.csv").write_text(format_matrix_csv(CMatrix.from_array(m)))
    bits = rng.integers(0, 2, size=(30, 30))
    lines = ["30"] + [f"{u} {v}" for v in range(30) for u in range(v) if bits[u, v]]
    (d / "el30.txt").write_text("\n".join(lines) + "\n")
    return d


@pytest.mark.parametrize("argv", list(GOLDENS))
def test_cli_output_digest(argv, inputs, capsys, monkeypatch):
    monkeypatch.chdir(inputs)
    code = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDENS[argv]
