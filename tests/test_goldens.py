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
from spectranorm.constructions import dft_matrix, sylvester_hadamard
from spectranorm.fileio import format_matrix_csv
from spectranorm.graphs import complete, cycle, paley, perfect_matching, write_graph6

GOLDENS = {
    "sweep --n 4 --format json":
        (0, "cdf1770db30d33d8025bc30437afe312d876f0d5e6bcb1991bbe047d08021e72"),
    "sweep --n 4 --format csv":
        (0, "0a99fd293245f6047a7825f775ac438ce8d0fb85bac1747c6c2a6e1ce14d3b1d"),
    "sweep --n 4 --canonical --format json":
        (0, "e54f24c76760ad4bd837a6a7fd8f3e545d5251db9525e69ceea803e1714cd482"),
    "sweep --n 4 --canonical --format csv":
        (0, "757bdbb97a00012712a8641782872013fd92cec386bb92d6b2a3fc5106ccd375"),
    "sweep --n 5 --format json":
        (0, "688f94c276b7d14e1e607496680e14fe23d0a2953524eafc755277220960cb6f"),
    "sweep --n 5 --format csv":
        (0, "96fb2dc7fa2a471439b2fffee03843b444a534e03e71a8627b1eab770ddc1a6f"),
    "sweep --n 5 --canonical --format json":
        (0, "7fcfc07daa2d144bb4a5a32929e12fa6ea404d484928faf54948a348f9c0273a"),
    "sweep --n 5 --canonical --format csv":
        (0, "7784711341cd1fc9072580f03baf47dbec3e7f171f50d69f68d3103b22a70173"),
    "sweep --n 5 --p 1.5 --p 3 --k 2 --format json":
        (0, "e3ad11fdbd934a2cfcd1163cb16de4d259c2e7b436eda584a6dbeb5aef8ce0c7"),
    # the benchmark's order-6 calls
    "sweep --n 6 --format json":
        (0, "80821c79201f214953afa64bd9e1c2e4c60712d505363541617e61866b52588f"),
    "sweep --n 6 --canonical --format json":
        (0, "9a9b4c0c8440ac2a9706147578f185bf80757b859a6e053a44f01f95f448f9d8"),
    "sweep --n 6 --p 1.5 --p 3 --k 2 --format csv":
        (0, "dcf8caf839be78141980851ab8f53d23511f85a904a7bc8c2ccc34d28f0cdc27"),
    "search --objective MAX_ENERGY --n 6 --format json":
        (0, "fa9f0cb35ba073d26688360a65228bef77af68590dc3c9b8f34341e742a6dbd4"),
    # sweeps with violation examples (no tolerance), cells that skip every
    # class, and the one-vertex order
    "sweep --n 5 --tol-scale 0 --format json":
        (1, "3310e971cf0fa9d479989bf3b3eb0f449074432a7dfec10f2bd7aafb590ca10d"),
    "sweep --n 6 --tol-scale 0 --canonical --format json":
        (1, "1c363ae610d6e17c68de47f1534a11f5f23eae3d07a1002cc6eef7b5da404835"),
    "sweep --n 4 --tol-scale 0 --p 1 --p 2.5 --k 1 --format csv":
        (1, "fd52604df7d33e6bea9ef792b5d190b6cc9b495c2ac731fc4c881cfb6f4dbcf3"),
    "sweep --n 3 --p 0.5 --k 0 --format json":
        (0, "cb18ab82d909ce968f78cb3047a5c079837309b439be25b6ddd0acbb6fcb9e11"),
    "sweep --n 1 --format json":
        (0, "67890d9a39c8a844b0db5b1799d2b27504d9d472b6e3f8770c45556c458419ac"),
    "search --objective XI_K --k 2 --n 5 --format json":
        (0, "66ea6c5ccd0ee48beb6d0a0bdf3af31de1b25915ca98813931c0cbd1115f2096"),
    "search --objective TAU_K --k 3 --n 5 --format json":
        (0, "88a93c6372289452a22c0f6c52bf02fb39752ff65bb5f8549848a14fc336457c"),
    "search --objective SPREAD --n 5 --format json":
        (0, "f0bead5cbed4aac2997d8552977d39c8f20b92c865a4b38615043418b53a8e82"),
    "search --objective MAX_ENERGY --n 5 --format json":
        (0, "1d1774fe074c5d416da176fe5ff3f5a47e50c19ab0317e856ac275bfa0b0223d"),
    "search --objective MAX_ENERGY --n 5 --canonical --format json":
        (0, "252a5a3acf1d1cbe6e038ec5453c4f6dff1fc234fada4b67b22d03a0a77089e0"),
    "search --objective MAX_SCHATTEN_P --p 1.5 --n 5 --format json":
        (0, "29d5856b9d3e74fb7784ed8950b214d911905f6800dc65759fe3f8f8a41ab20b"),
    "search --objective SPREAD_VS_F2 --n 5 --format json":
        (0, "154beddd932cc2cc40fb76eae8f71daaa41330ab12fb052d99d58c468893e470"),
    "search --objective XI_K --n 5 --format json":
        (2, "76e88cac9e6b7b9305ca3c9ce830715f3afa41083d559d1c1b8ef0681c8f8ed9"),
    "search --objective TAU_K --n 5 --format json":
        (2, "79f77421e3a0b669230ca3531120b701a4f407eb5dd4c4d7db1ff2cea55f09b9"),
    "search --objective MAX_SCHATTEN_P --n 5 --format json":
        (2, "447407e0f952d9113484ba158a2985ee7b552d4fa7af17a71cd449ff5afdcb0d"),
    "check --in k4.g6 --format json":
        (0, "746109dacef9a859228a2dc6252a4078c283114be519b8c60fbd841686d0511a"),
    "check --in paley13.g6 --format json":
        (0, "8f74557983ff3efec497a442b219927624994b8a34635306301413f12be6167d"),
    "check --in c5.g6 --format json":
        (0, "d4da11e889ebfab9fd37660c91184638bd698c39eeec193b511bfe2d662ca714"),
    "check --in c35.csv --format json":
        (0, "4f1964fa12386bd6045b18fdd5f972fae9cc77ba677fa4d57f310fa0fceec5f6"),
    "check --in k4.g6 --p 1000 --q 1000 --format json":
        (0, "9c23a232e821345661bb55bf8b373707be81899a69e83bd3b619babd534516cd"),
    "check --in c35.csv --p 1.5 --q 3 --k 2 --format json":
        (0, "b89d0eea521658e7f3a116db3d714b3e9804eb1488dd374b1a20ac958d598f1d"),
    "check --in el_bad.txt --format json":
        (2, "7c348f96df34f59fd9f202215ce96e07112322cbf4442b7c56996c4efcaa2c99"),
    "check --in g6_header.txt --format json":
        (2, "cb4661fcc1a3dcaa08c5527713b9b2c90138c76a6fa106434455198d0a3686c9"),
    # equality cases of KM_MATRIX, KYFAN_INF, KYFAN_L2, POWER_MEAN and SCHATTEN_ABS_MAT
    "check --in h8.csv --p 1 --k 8 --format json":
        (0, "1871ef08de2b8c074c124b1b570e62a9a020d297ef26cbb18b8fd857aa0c0932"),
    "check --in h8.csv --p 3 --q 3 --k 3 --format json":
        (0, "d82403b056a8a543b953c1c14ca13f44c7140744193290989b526466a6dca00d"),
    "check --in dft4.csv --p 1.5 --q 3 --k 4 --format json":
        (0, "1a2cb78c9a1b484a2303c460f8e5368a1589cd28d30ae13baeab682f7826b231"),
    # equality cases of KM_SPECTRAL, KM_DENSITY, KM_MATRIX, MCCLELLAND and POWER_MEAN
    "check --in pm6.g6 --p 1 --k 1 --format json":
        (0, "22a393fc3e3ca7fe8eed85239a68439b98d32edf437fd0abf6385ce2b843ee8f"),
    "check --in pm6.g6 --p 1.5 --q 3 --k 2 --format json":
        (0, "0992e627de3c2d1b7eb1fe7dceb5f96f64ff9a3818de16985dfd6e51e6187ea5"),
    "norms --in k4.g6 --format json":
        (0, "797eab51e1f2e3a9bfda7d8ab9268f1eeca4b89edae90a34a0983f3b6fdd027e"),
    "norms --in paley13.g6 --format json":
        (0, "9a080d875df85619e0aaec6950569f387107d12251ba3425482124cff0808184"),
    "norms --in c5.g6 --format json":
        (0, "70ca181510a7811efc49a3ded8a3cb013ee74145b7f871f3495e41dac627b1de"),
    "norms --in c35.csv --format json":
        (0, "0b9f91dd83a959541d17b1502837e3e93afc685736f9c40d2129f029c38f9d64"),
    "norms --in k4.g6 --p 1 --p 1.5 --p 1000 --k 2 --format json":
        (0, "701cbba8db9fa557503443c1235effd122294c2a8c078fd075676c96264b2558"),
    "construct --family paley --params 13":
        (0, "9ef54215ac86fcb70ebc6fefc900af318bdd3d159bd9600cd88a000e8115a5b0"),
    "construct --family hadamard --params 8":
        (0, "941821af32cfcc6ea5a43486e82bb049cfe0a5976d56fd68f613447fc5c42b64"),
    "construct --family blow_up --params 2 --in c5.g6":
        (0, "61b6903e8e36f4d9b021a83c19b3950674b145af8ed2d635e88240b22c2bce07"),
    "construct --family with_isolated --params 3 --in el30.txt":
        (0, "5c4c0d585608ae4b5ce810a3ea7b6c78e6419f18c1006f358bdf8a3e66bff48a"),
    "random --n 60 --p 1 --samples 2 --seed 3 --format json":
        (0, "8e9962af8e91fab10c1f664760ef8809de3746116def3062c15198315f6ab34f"),
    "random --n 60 --p 1.5 --samples 2 --seed 3 --format json":
        (0, "51b2930fa03bfd67a979549f1dd64098678bbf1903284a1e269c8d404eb41f5c"),
    "random --n 60 --p 2 --samples 2 --seed 3 --format json":
        (0, "21afcabb47557c626288806b016dc8a74ccfc06cad3b1dcb7205da44ed356524"),
    "random --n 60 --p 3 --samples 2 --seed 3 --format json":
        (0, "6d068e1b7dc0f8cfc92c361b638273890657601e6c789ddcc8f339d8c3f53df6"),
    "random --n 13 --p 1 --samples 3 --seed 0 --format csv":
        (0, "f4e3bd54396c4c6c6842e4792adb7b2e140a893bff17ec8a098c03f99ef1052c"),
    "random --n 13 --p 1.5 --samples 3 --seed 0 --format text":
        (0, "26c9d57161e2d157626ae5d9037eeafff554282085aa4d0c8f9aa5e8fad75ff3"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("goldens")
    for name, g in {"k4": complete(4), "paley13": paley(13), "c5": cycle(5),
                    "pm6": perfect_matching(6)}.items():
        (d / f"{name}.g6").write_text(write_graph6(g) + "\n")
    (d / "h8.csv").write_text(format_matrix_csv(sylvester_hadamard(8)))
    (d / "dft4.csv").write_text(format_matrix_csv(dft_matrix(4)))
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    (d / "c35.csv").write_text(format_matrix_csv(CMatrix.from_array(m)))
    bits = rng.integers(0, 2, size=(30, 30))
    lines = ["30"] + [f"{u} {v}" for v in range(30) for u in range(v) if bits[u, v]]
    (d / "el30.txt").write_text("\n".join(lines) + "\n")
    (d / "el_bad.txt").write_text("3\n0 1 2\n")
    (d / "g6_header.txt").write_text(">>graph6<<\n")
    return d


@pytest.mark.parametrize("argv", list(GOLDENS))
def test_cli_output_digest(argv, inputs, capsys, monkeypatch):
    monkeypatch.chdir(inputs)
    code = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDENS[argv]
