"""Schatten and Ky Fan norms of graphs and complex matrices.

A self-contained Householder eigensolver, which solves a tridiagonal of
order up to 64 by implicit QL and a larger one by Sturm-count multisection
that reproduces bisection exactly, and singular values by Golub-Kahan
bidiagonalization and dqds on the bidiagonal, feed norm functionals, a
registry of extremal bounds with equality detection, named graph and
matrix constructions, seeded Monte Carlo experiments on G(n, 1/2), and
exhaustive extremal search over all small-order graphs.
"""

from .asymptotics import (
    ExperimentStats,
    gamma_fn,
    predicted_schatten,
    run_experiment,
    sample_gn_half,
    semicircle_constant,
)
from .bounds import (
    BoundCheck,
    check_bound,
    detect_complete_multipartite,
    registry_ids,
    run_registry,
)
from .cmatrix import CMatrix
from .constructions import (
    all_ones,
    dft_matrix,
    in_had_class,
    is_plain,
    kronecker,
    one_complement,
    sylvester_hadamard,
)
from .eigen import (
    EigenSpectrum,
    SingularSpectrum,
    hermitian_eigenvalues,
    rayleigh_allones,
    singular_values,
)
from .enumeration import enumerate_graphs
from .graphs import (
    Graph,
    blow_up,
    chromatic_number,
    closed_walks,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    family,
    is_strongly_regular,
    paley,
    parse_graph6,
    path,
    perfect_matching,
    with_isolated,
    write_graph6,
)
from .norms import (
    energy,
    entrywise_norm,
    kyfan2_eigen_identity,
    kyfan_norm,
    schatten_norm,
)
from .search import SearchRecord, compare_spread_vs_f2, extremal
from .sweep import SweepReport, run_sweep

__version__ = "0.1.0"
