"""Seedable Monte Carlo trade study of routing protocols for
disruption-prone deep-space relay networks.

The package root holds the study entry points; the layers (network,
routing, simulation, stats, decision) are importable from their modules.
Importing the root loads only the standard library, the errors and the
config: ProtocolKind, StudyReport, run_study and write_report import the
engine (and numpy) on first access, and each is then the same object as in
its defining module.
"""

import importlib

__version__ = "0.1.0"

from .errors import ConfigurationError, SimulationFault
from .config import StudyConfig, load_config

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

# Root name -> the module that defines it, imported on first access (PEP 562).
_LAZY = {
    "ProtocolKind": "routing",
    "StudyReport": "study",
    "run_study": "study",
    "write_report": "report",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
