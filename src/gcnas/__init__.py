"""Surrogate-assisted architecture search over Hamming-1 graphs."""

from .arch_graph import (
    ArchGraph,
    AssignedSimilarity,
    build_graph,
    node_architecture,
    node_index,
    normalize_adjacency,
)
from .evaluator import (
    CostModel,
    Evaluator,
    GroundTruthParams,
    SyntheticSupernet,
    bundled_cost_model,
    calibrate_sigma,
    flops,
    sample_architectures,
)
from .gcn import (
    GcnConfig,
    GcnModel,
    forward,
    init_model,
    train,
)
from .metrics import kendall_tau, regression_score
from .search_engine import (
    RoundReport,
    RoundResult,
    ScoredArchitecture,
    SearchConfig,
    constraint_select,
    iter_search_rounds,
    reverify,
    run_round,
)
from .search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    Subspace,
    SuperCell,
    default_initial_architecture,
    default_space,
    full_subspace,
    make_segment_plan,
    materialize,
    sample_uniform,
)

__version__ = "0.1.0"
