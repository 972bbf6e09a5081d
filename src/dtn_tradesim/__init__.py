"""Seedable Monte Carlo trade study of routing protocols for
disruption-prone deep-space relay networks."""

__version__ = "0.1.0"

from .errors import ConfigurationError, SimulationFault
from .network import (
    CostKind,
    NetworkConfig,
    NetworkState,
    Node,
    NodeKind,
    SPEED_OF_LIGHT_KM_S,
    build_network,
    euclidean_distance,
    perturb,
    place_nodes,
    reset,
)
from .routing import ProtocolKind, Route, dijkstra_path, most_frequent_path, next_hop
from .simulation import (
    PacketRecord,
    PacketState,
    RunResult,
    RunSummary,
    cumulative_running_mean,
    hop_outcome,
    run_simulation,
    simulate_packet,
)
from .stats import (
    StudySummary,
    SummaryStats,
    TTestResult,
    regularized_incomplete_beta,
    significance_matrix,
    student_t_upper_tail,
    summarize,
    welch_t,
)
from .decision import (
    DecisionRow,
    DecisionTable,
    SwingWeights,
    build_table,
    mavf_score,
    practicality_correction,
    rank,
    value_linear,
)
from .config import StudyConfig, load_config
from .study import StudyReport, run_seed, run_study
from .report import write_report

__all__ = [
    "ConfigurationError",
    "SimulationFault",
    "CostKind",
    "NetworkConfig",
    "NetworkState",
    "Node",
    "NodeKind",
    "SPEED_OF_LIGHT_KM_S",
    "build_network",
    "euclidean_distance",
    "perturb",
    "place_nodes",
    "reset",
    "ProtocolKind",
    "Route",
    "dijkstra_path",
    "most_frequent_path",
    "next_hop",
    "PacketRecord",
    "PacketState",
    "RunResult",
    "RunSummary",
    "cumulative_running_mean",
    "hop_outcome",
    "run_simulation",
    "simulate_packet",
    "StudySummary",
    "SummaryStats",
    "TTestResult",
    "regularized_incomplete_beta",
    "significance_matrix",
    "student_t_upper_tail",
    "summarize",
    "welch_t",
    "DecisionRow",
    "DecisionTable",
    "SwingWeights",
    "build_table",
    "mavf_score",
    "practicality_correction",
    "rank",
    "value_linear",
    "StudyConfig",
    "load_config",
    "StudyReport",
    "run_seed",
    "run_study",
    "write_report",
]
