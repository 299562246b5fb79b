"""Graph signal sampling via randomized local aggregations.

Sampling sets come from greedy dominating sets (hop-expanded when the budget
is tight, grown by a balancing rule when it is loose); each measurement is a
random Gaussian combination of a sampled node's neighborhood, scaled so the
ensemble is isotropic on average.  Reconstruction is least squares on a known
support or l1 minimization when the support is unknown.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphFormatError,
    HopPlanInfeasibleError,
    closed_in_neighborhood,
    connected_components,
    generate,
    geometric_graph_from_positions,
    greedy_dominating_set,
    load_edge_list,
    minimal_hop_level,
    p_hop_graph,
    save_edge_list,
)
from .spectral import (
    CoherenceReport,
    OrthoBasis,
    condition_number,
    dct_basis,
    gft_basis,
    graph_basis_coherence,
    laplacian,
    load_matrix_csv,
    numerical_rank,
    pseudoinverse,
    save_matrix_csv,
)
from .sampler import (
    PoolExhaustedError,
    SamplingOperator,
    SamplingPlan,
    build_plan,
    draw_operator,
    measure,
    node_multiplicities,
    plan_to_json,
)
from .baselines import (
    successive_aggregations,
    uniform_node_sampling,
)
from .recon import (
    ReconResult,
    SolverParams,
    SparseSignalSpec,
    bp_l1,
    ls_known_support,
    mse_db,
    realized_coefficients,
    synthesize,
)
from .harness import (
    ExperimentConfig,
    GraphSpec,
    WsnScenario,
    derive_seed,
    run_known_support,
    run_unknown_support,
    write_csv,
    wsn_experiment,
)
