"""Study orchestration: seeded runs, aggregation, t-tests, decision tables."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import StudyConfig, config_hash
from .decision import DecisionTable, build_table, practicality_correction, rank
from .errors import SimulationFault
from .routing import ProtocolKind, Route, most_frequent_path
from .simulation import PROTOCOL_ORDER, RunResult, run_simulation
from .stats import PairwiseTests, StudySummary, significance_matrix, summarize_or_mean

logger = logging.getLogger(__name__)


def run_seed(master_seed: int, run_index: int) -> np.random.SeedSequence:
    """Independent, reproducible per-run seed: spawn key (run_index,) off the master."""
    return np.random.SeedSequence(master_seed, spawn_key=(run_index,))


@dataclass(frozen=True)
class FrequentRoute:
    run_index: int
    protocol: ProtocolKind
    route: Route
    frequency: int


@dataclass
class StudyReport:
    config: StudyConfig
    runs: list[RunResult]
    study_summary: StudySummary
    ttests: PairwiseTests | None
    decision_raw: DecisionTable
    decision_corrected: DecisionTable
    ranking: list[ProtocolKind]
    frequent_routes: list[FrequentRoute]
    provenance: dict[str, str]


# The RunSummary value whose per-run samples make up each StudySummary metric.
RUN_VALUE_OF_METRIC = {"percent_error": "percent_error", "transmission_time": "time_mean_hr"}


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN, unwarned
def _study_summary(runs: list[RunResult]) -> StudySummary:
    return StudySummary(
        **{
            metric: {
                p: summarize_or_mean([getattr(run.summaries[p], value) for run in runs])
                for p in ProtocolKind
            }
            for metric, value in RUN_VALUE_OF_METRIC.items()
        }
    )


def run_study(config: StudyConfig) -> StudyReport:
    """Execute the full trade study described by config.

    Runs execute in order with independent derived seeds, then everything
    downstream (summary stats, pairwise tests, decision tables, frequent
    routes) is computed from the collected run data.
    """
    runs: list[RunResult] = []
    for i in range(config.run_count):
        rng = np.random.default_rng(run_seed(config.seed, i))
        try:
            runs.append(run_simulation(config, rng))
        except SimulationFault as exc:
            raise SimulationFault(f"run {i}: {exc}") from exc
        logger.info("run %d of %d complete", i + 1, config.run_count)

    study_summary = _study_summary(runs)

    if config.run_count >= 2:
        ttests = significance_matrix(study_summary)
    else:
        logger.warning("run_count < 2: skipping significance tests")
        ttests = None

    decision_raw = build_table(
        **{
            metric: {p: s.mean for p, s in getattr(study_summary, metric).items()}
            for metric in RUN_VALUE_OF_METRIC
        }
    )
    decision_corrected = practicality_correction(decision_raw, config.baseline)
    ranking = rank(decision_corrected)

    frequent_routes = []
    for i, run in enumerate(runs):
        for p, routes in zip(PROTOCOL_ORDER, run.routes):
            best = most_frequent_path(routes)
            frequent_routes.append(FrequentRoute(i, p, best, routes.count(best)))

    provenance = {
        "tool_version": __version__,
        "seed": str(config.seed),
        "config_hash": config_hash(config),
    }
    return StudyReport(
        config=config,
        runs=runs,
        study_summary=study_summary,
        ttests=ttests,
        decision_raw=decision_raw,
        decision_corrected=decision_corrected,
        ranking=ranking,
        frequent_routes=frequent_routes,
        provenance=provenance,
    )
