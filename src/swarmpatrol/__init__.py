"""Deterministic multi-robot patrol simulator with shared anomaly perception.

Robots patrol a metric graph under one of ten strategies, sense a planted
anomaly through a noisy channel, and fuse ternary beliefs whenever two of
them pass within communication range. The harness sweeps strategy x noise
matrices under derived per-run seeds and reduces each run to accuracy,
idleness, consensus and communication-connectivity metrics.
"""

from .beliefs import fuse_vectors, measurement_update
from .comms import CommState, tick_comms
from .graph import (
    PatrolGraph,
    Route,
    build_cyclic_route,
    generate_default_map,
    parse_map,
    serialize_map,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    cell_seed,
    load_map,
    run_matrix,
    run_one,
    summarize,
)
from .metrics import (
    CommGraph,
    ConfusionCounts,
    ConsensusReport,
    ConsensusTracker,
    algebraic_connectivity,
    classify,
    f_score,
    jacobi_eigenvalues,
    pearson,
    system_error,
)
from .strategies import StrategyKind
from .world import IdlenessTracker, RngStream, RobotState

__version__ = "0.1.0"

__all__ = [
    "fuse_vectors",
    "measurement_update",
    "CommState",
    "tick_comms",
    "PatrolGraph",
    "Route",
    "build_cyclic_route",
    "generate_default_map",
    "parse_map",
    "serialize_map",
    "ExperimentConfig",
    "RunRecord",
    "SummaryRow",
    "cell_seed",
    "load_map",
    "run_matrix",
    "run_one",
    "summarize",
    "CommGraph",
    "ConfusionCounts",
    "ConsensusReport",
    "ConsensusTracker",
    "algebraic_connectivity",
    "classify",
    "f_score",
    "jacobi_eigenvalues",
    "pearson",
    "system_error",
    "StrategyKind",
    "IdlenessTracker",
    "RngStream",
    "RobotState",
    "__version__",
]
