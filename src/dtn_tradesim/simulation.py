"""Monte Carlo packet engine.

Each packet is cloned once per protocol and the three copies traverse the
same randomly evolving network: one shared perturbation per step, then each
unfinished copy takes its own next hop and draws its own survival outcome.
A damaged copy keeps routing so its full route and timing stay observable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import StudyConfig
from .errors import SimulationFault
from .network import (
    SPEED_OF_LIGHT_KM_S,
    NetworkState,
    build_network,
    perturb,
    place_nodes,
    reset,
)
from .routing import ProtocolKind, Route, next_hop

logger = logging.getLogger(__name__)

SECONDS_PER_HOUR = 3600.0

# Fixed evaluation order for the per-step copy updates.
PROTOCOL_ORDER = tuple(ProtocolKind)


class PacketState(Enum):
    INTACT = "intact"
    DAMAGED = "damaged"


@dataclass(frozen=True)
class PacketRecord:
    """Outcome of one protocol copy of one packet."""

    packet_index: int
    protocol: ProtocolKind
    route: Route
    transmission_time_hr: float
    state: PacketState


@dataclass(frozen=True)
class RunSummary:
    """Per-protocol aggregate over one run's packets.

    time_std_hr and time_sem_hr are NaN when the run holds fewer than two
    packets.  crm_hr holds the cumulative running mean of transmission time
    after each successive packet.
    """

    protocol: ProtocolKind
    percent_error: float
    time_mean_hr: float
    time_std_hr: float
    time_sem_hr: float
    crm_hr: np.ndarray = field(repr=False)


@dataclass
class RunResult:
    network: NetworkState
    records: list[PacketRecord]
    summaries: dict[ProtocolKind, RunSummary]


def hop_outcome(rng: np.random.Generator, quality: float) -> bool:
    """One survival draw: True iff u < quality for u ~ Uniform[0, 1).

    The boundary draw u == quality counts as a loss, so quality 0 can never
    survive and quality 1 always does.
    """
    if not 0.0 <= quality <= 1.0:
        raise ValueError(f"quality must lie in [0, 1], got {quality}")
    return rng.random() < quality


@dataclass
class _Copy:
    node: int
    route: list[int]
    time_s: float = 0.0
    damaged: bool = False


def simulate_packet(
    network: NetworkState,
    rng: np.random.Generator,
    sigma_frac: float,
    packet_index: int = 0,
    step_budget: int | None = None,
) -> list[PacketRecord]:
    """Route one packet's three protocol copies from the probe to the ground.

    Per step: perturb the shared network once, then advance every copy that
    has not yet arrived.  Hop timing accrues the traversed link's build-time
    geometric distance over the speed of light, while the survival draw uses
    the link's current (perturbed) quality.  Exceeding the step budget
    raises SimulationFault.
    """
    if step_budget is None:
        step_budget = StudyConfig.step_budget_factor * network.node_count
    src = network.probe_id
    dst = network.ground_id
    copies = {p: _Copy(node=src, route=[src]) for p in PROTOCOL_ORDER}

    steps = 0
    while True:
        unfinished = [p for p in PROTOCOL_ORDER if copies[p].node != dst]
        if not unfinished:
            break
        if steps >= step_budget:
            raise SimulationFault(
                f"packet {packet_index}: step budget {step_budget} exceeded "
                f"with copies still in flight: "
                + "; ".join(
                    f"{p.value} route " + "-".join(map(str, copies[p].route))
                    for p in unfinished
                )
            )
        perturb(network, rng, sigma_frac)
        for p in unfinished:
            copy = copies[p]
            nh = next_hop(network, p, copy.node, dst)
            hop = (copy.node, nh)
            copy.time_s += float(network.default_distance[hop]) / SPEED_OF_LIGHT_KM_S
            if not hop_outcome(rng, float(network.current_quality[hop])):
                copy.damaged = True
            copy.route.append(nh)
            copy.node = nh
        steps += 1

    return [
        PacketRecord(
            packet_index=packet_index,
            protocol=p,
            route=tuple(copies[p].route),
            transmission_time_hr=copies[p].time_s / SECONDS_PER_HOUR,
            state=PacketState.DAMAGED if copies[p].damaged else PacketState.INTACT,
        )
        for p in PROTOCOL_ORDER
    ]


def cumulative_running_mean(samples) -> np.ndarray:
    """Running mean after each successive sample; errors on empty input."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    return np.cumsum(arr) / np.arange(1, arr.size + 1)


def summarize_protocol_records(
    protocol: ProtocolKind, records: list[PacketRecord]
) -> RunSummary:
    """Fold one protocol's packet records into a RunSummary."""
    if not records:
        raise ValueError("records must be non-empty")
    times = np.array([r.transmission_time_hr for r in records], dtype=np.float64)
    n = times.size
    damaged = sum(1 for r in records if r.state is PacketState.DAMAGED)
    if n >= 2:
        std = float(np.std(times, ddof=1))
        sem = std / math.sqrt(n)
    else:
        std = math.nan
        sem = math.nan
    return RunSummary(
        protocol=protocol,
        percent_error=100.0 * damaged / n,
        time_mean_hr=float(np.mean(times)),
        time_std_hr=std,
        time_sem_hr=sem,
        crm_hr=cumulative_running_mean(times),
    )


def run_simulation(config: StudyConfig, rng: np.random.Generator) -> RunResult:
    """One run: build a fresh random network, then push packet_count packets.

    config is a StudyConfig, validated here; the network resets to its
    defaults before every packet.
    """
    config.validate()
    network = build_network(place_nodes(config, rng), rng, config)
    budget = config.step_budget_factor * network.node_count
    records: list[PacketRecord] = []
    for k in range(config.packet_count):
        reset(network)
        records.extend(
            simulate_packet(
                network, rng, config.sigma_frac, packet_index=k, step_budget=budget
            )
        )
    summaries = {
        p: summarize_protocol_records(p, [r for r in records if r.protocol is p])
        for p in PROTOCOL_ORDER
    }
    return RunResult(network=network, records=records, summaries=summaries)
