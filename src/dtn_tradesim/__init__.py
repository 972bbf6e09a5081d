"""Seedable Monte Carlo trade study of routing protocols for
disruption-prone deep-space relay networks.

The package root holds the study entry points; the layers (network,
routing, simulation, stats, decision) are importable from their modules.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, SimulationFault
from .routing import ProtocolKind
from .config import StudyConfig, load_config
from .study import StudyReport, run_study
from .report import write_report

__all__ = [
    "ConfigurationError",
    "SimulationFault",
    "ProtocolKind",
    "StudyConfig",
    "load_config",
    "StudyReport",
    "run_study",
    "write_report",
    "__version__",
]
