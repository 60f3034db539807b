"""qllab: quantum-like state spaces from classical graph topologies.

Builds QL bits from coupled regular random subgraphs, multi-bit state
spaces from graph Cartesian products (full or contracted), and verifies
their spectral, robustness, synchronization, and entanglement properties
numerically.
"""

__version__ = "0.1.0"

from .cheeger import CheegerReport, cheeger_bounds, expansion_profile, isoperimetric_exact
from .errors import QllabError
from .graph import (
    BiasedGraph,
    GraphGenSpec,
    add_diagonal_disorder,
    average_degree,
    build_graph,
    delete_random_edges,
    disjoint_union,
    gen_bipartite_d_regular,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
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
    EffectiveTwoState,
    PairProbability,
    QLBitSpec,
    apply_bias_topology,
    build_qlbit,
    build_regular_qlbit,
    build_type2_qlbit,
    j_vectors,
    project_two_state,
    qlbit_spec,
)
from .qlproduct import (
    EffectiveProductState,
    ProductSpec,
    apply_alignment_detuning,
    apply_subgraph_detuning,
    build_contracted_product,
    build_full_product,
    build_product,
    cartesian_product,
    label_adjacency,
    product_basis_labels,
    product_j_vectors,
    project_product_state,
    sign_pattern_states,
    verify_spectrum_composition,
)
from .spectral import (
    EnsembleSpectrum,
    Spectrum,
    eigendecompose,
    eigenvalues,
    emergent_state,
    ensemble_spectrum,
    ramanujan_check,
    spectral_gap,
)
from .states import (
    DensityMatrix,
    alternator,
    bell_states,
    concurrence,
    convex_sum,
    degenerate_mixture,
    density_from_state,
    mixture_purity,
    permutation_operator,
    purity,
    state_fidelity,
    subspace_fidelity,
    symmetrizer,
    tensor_inner,
)
from .witness import WitnessAttachment, attach_witness, witness_readout
