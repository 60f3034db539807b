"""qllab: quantum-like state spaces from classical graph topologies.

Builds QL bits from coupled regular random subgraphs (`qlbit`) and
multi-bit state spaces from their full or contracted Cartesian products
(`qlproduct`), then reads effective states, synchronization (`kuramoto`),
witness readout (`witness`) and expansion (`cheeger`) off the spectra of
these graphs (`spectral`, `states`).  `qllab.cli` runs each reading as a
named experiment over a JSON config.
"""

__version__ = "0.1.0"

from .cheeger import CheegerReport, cheeger_bounds, expansion_profile, isoperimetric_exact
from .errors import QllabError
from .graph import (
    BiasedGraph,
    EffectiveState,
    GraphGenSpec,
    add_diagonal_disorder,
    block_basis,
    build_graph,
    delete_random_edges,
    disjoint_union,
    gen_bipartite_d_regular,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    graph_to_json,
    project_blocks,
    two_lift,
)
from .kuramoto import (
    OscillatorState,
    SyncRunConfig,
    SyncResult,
    order_parameter,
    phase_transform,
    run_sync_experiment,
    step,
)
from .qlbit import (
    BLOCH_PROJECTIONS,
    BiasTopology,
    CrossRegular,
    EdgeBudgetFraction,
    PairProbability,
    QLBitSpec,
    apply_bias_topology,
    build_qlbit,
    build_regular_qlbit,
    project_two_state,
    qlbit_spec,
)
from .qlproduct import (
    ProductSpec,
    apply_alignment_detuning,
    build_contracted_product,
    build_full_product,
    build_product,
    cartesian_product,
    label_adjacency,
    project_product_state,
    verify_spectrum_composition,
)
from .spectral import (
    EnsembleSpectrum,
    Spectrum,
    eigendecompose,
    eigenvalues,
    emergent_state,
    ensemble_spectrum,
    top_pair,
)
from .states import DensityMatrix, concurrence, density_from_state, mixture_purity
from .witness import attach_witness, witness_readout
