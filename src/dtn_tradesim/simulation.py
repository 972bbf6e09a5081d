"""Monte Carlo packet engine.

Each packet is cloned once per protocol and the three copies traverse the
same randomly evolving network: one shared perturbation per step, then each
unfinished copy takes its own next hop and draws its own survival outcome.
A damaged copy keeps routing so its full route and timing stay observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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
from .stats import SummaryStats, summarize

SECONDS_PER_HOUR = 3600.0

# Fixed evaluation order for the per-step copy updates.
PROTOCOL_ORDER = tuple(ProtocolKind)

# A packet may take at most this many steps per network node.
STEP_BUDGET_FACTOR = 10


class PacketState(Enum):
    INTACT = "intact"
    DAMAGED = "damaged"


# Read once per packet copy: reading a member off its Enum class runs Python
# code on every access.
_INTACT = PacketState.INTACT
_DAMAGED = PacketState.DAMAGED


class PacketRecord(NamedTuple):
    """Outcome of one protocol copy of one packet.

    A NamedTuple: its fields are read-only, it unpacks by position in field
    order, and it equals (and hashes as) the plain tuple of its fields.
    """

    packet_index: int
    protocol: ProtocolKind
    route: Route
    transmission_time_hr: float
    state: PacketState


@dataclass(frozen=True)
class RunSummary:
    """One protocol's aggregate over one run's packets.

    RunResult.summaries holds one per protocol, keyed by the protocol.
    time_hr summarizes the packets' transmission times; its std and sem
    are NaN when the run holds fewer than two packets.  crm_hr holds the
    cumulative running mean of transmission time after each successive
    packet.
    """

    percent_error: float
    time_hr: SummaryStats
    crm_hr: np.ndarray = field(repr=False)


@dataclass(eq=False)
class RunResult:
    """One run's network, packet outcomes and per-protocol summaries.

    The outcomes are columns indexed [protocol position in PROTOCOL_ORDER,
    packet index]: transmission times in hours, damage flags, and routes,
    where every copy of one route in a run refers to the same tuple.
    """

    network: NetworkState
    times_hr: np.ndarray  # float64, (len(PROTOCOL_ORDER), packet_count)
    damaged: np.ndarray  # bool, same shape
    routes: list[list[Route]]  # routes[j][k]: protocol j's route for packet k
    summaries: dict[ProtocolKind, RunSummary]

    @property
    def records(self) -> list[PacketRecord]:
        """Every copy as a PacketRecord, built anew on each access.

        Packet by packet and, within a packet, in PROTOCOL_ORDER; times are
        Python floats.
        """
        per_protocol = [
            zip(t, d, r)
            for t, d, r in zip(self.times_hr.tolist(), self.damaged.tolist(), self.routes)
        ]
        return [
            PacketRecord(k, p, route, t, _DAMAGED if d else _INTACT)
            for k, copies in enumerate(zip(*per_protocol))
            for p, (t, d, route) in zip(PROTOCOL_ORDER, copies)
        ]


def hop_outcome(rng: np.random.Generator, quality: float) -> bool:
    """One survival draw: True iff u < quality for u ~ Uniform[0, 1).

    The boundary draw u == quality counts as a loss, so quality 0 can never
    survive and quality 1 always does.
    """
    if not 0.0 <= quality <= 1.0:
        raise ValueError(f"quality must lie in [0, 1], got {quality}")
    return rng.random() < quality


def simulate_packet(
    network: NetworkState,
    rng: np.random.Generator,
    sigma_frac: float,
    packet_index: int = 0,
    step_budget: int | None = None,
) -> list[PacketRecord]:
    """Route one packet's three protocol copies from the probe to the ground.

    Per step: perturb the shared network once, then advance every copy that
    has not yet arrived, in PROTOCOL_ORDER.  Each copy is one mutable slot
    [protocol, route, seconds, damaged]; its route ends at its current node.
    Hop timing accrues the traversed link's build-time geometric distance
    over the speed of light, while the survival draw uses the link's
    current (perturbed) quality; both matrices are read once per packet,
    and perturb writes the current one in place.  perturb (once per step),
    next_hop and hop_outcome (once per step of each copy) are looked up in
    this module's globals at each call.  Exceeding the step budget
    (STEP_BUDGET_FACTOR times the node count unless one is given) raises
    SimulationFault.  Returns one PacketRecord per protocol, in
    PROTOCOL_ORDER.
    """
    if step_budget is None:
        step_budget = STEP_BUDGET_FACTOR * network.node_count
    src = network.probe_id
    dst = network.ground_id
    distance = network.default_distance
    quality = network.current_quality
    copies = [[p, [src], 0.0, False] for p in PROTOCOL_ORDER]
    in_flight = copies
    steps = 0
    while in_flight:
        if steps >= step_budget:
            raise SimulationFault(
                f"packet {packet_index}: step budget {step_budget} exceeded "
                f"with copies still in flight: "
                + "; ".join(
                    f"{p.value} route " + "-".join(map(str, route))
                    for p, route, _, _ in in_flight
                )
            )
        perturb(network, rng, sigma_frac)
        for copy in in_flight:
            route = copy[1]
            u = route[-1]
            v = next_hop(network, copy[0], u, dst)
            copy[2] += distance.item(u, v) / SPEED_OF_LIGHT_KM_S
            if not hop_outcome(rng, quality.item(u, v)):
                copy[3] = True
            route.append(v)
        in_flight = [copy for copy in in_flight if copy[1][-1] != dst]
        steps += 1

    return [
        PacketRecord(
            packet_index, p, tuple(route), t / SECONDS_PER_HOUR, _DAMAGED if d else _INTACT
        )
        for p, route, t, d in copies
    ]


def cumulative_running_mean(samples) -> np.ndarray:
    """Running mean after each successive sample along the last axis.

    Errors on empty input.  Each row of a 2-D input gets the bits it would
    get alone, because a cumulative sum runs in order.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    return np.cumsum(arr, axis=-1) / np.arange(1, arr.shape[-1] + 1)


@np.errstate(over="ignore", invalid="ignore")
def summarize_protocol_records(
    times_hr: np.ndarray, damaged: np.ndarray
) -> dict[ProtocolKind, RunSummary]:
    """Fold a run's time and damage columns into one RunSummary per protocol.

    The columns are (len(PROTOCOL_ORDER), packet_count) arrays, row j for
    PROTOCOL_ORDER[j], as in RunResult.  The times are summarized by
    stats.summarize and their running means by cumulative_running_mean,
    each one call along the packet axis, so every row's values equal those
    of the calls on that row alone bit for bit.
    Times that overflowed give an inf or NaN statistic without a warning.
    """
    n = times_hr.shape[1]
    crms = cumulative_running_mean(times_hr)
    damaged_counts = np.count_nonzero(damaged, axis=1).tolist()
    return {
        p: RunSummary(100.0 * c / n, time_hr, crm)
        for p, c, time_hr, crm in zip(PROTOCOL_ORDER, damaged_counts, summarize(times_hr), crms)
    }


@np.errstate(over="ignore", invalid="ignore")
def run_simulation(config: StudyConfig, rng: np.random.Generator) -> RunResult:
    """One run: build a fresh random network, then push packet_count packets.

    config is a StudyConfig, checked when it was built.  Every packet starts
    from the network's defaults: its first perturb rewrites the whole current
    state from them before anything reads it, so the network is reset once,
    after the last packet, and is returned at its defaults with no scratch
    block left.  The (protocol, packet) result columns are allocated before
    the first packet, so a run too large for memory fails at once; each
    protocol's values are gathered in lists and written into them once,
    after the last packet.  Values that overflow (a sigma_frac or an
    end_to_end_km near the float maximum; see perturb) raise no numpy
    warning.
    """
    network = build_network(place_nodes(config, rng), rng, config)
    shape = (len(PROTOCOL_ORDER), config.packet_count)
    times_hr = np.empty(shape, dtype=np.float64)
    damaged = np.empty(shape, dtype=bool)
    times: list[list[float]] = [[] for _ in PROTOCOL_ORDER]
    flags: list[list[bool]] = [[] for _ in PROTOCOL_ORDER]
    routes: list[list[Route]] = [[] for _ in PROTOCOL_ORDER]
    interned: dict[Route, Route] = {}
    for k in range(config.packet_count):
        copies = simulate_packet(network, rng, config.sigma_frac, packet_index=k)
        for (_, _, route, t, state), ts, ds, rs in zip(copies, times, flags, routes):
            ts.append(t)
            ds.append(state is _DAMAGED)
            rs.append(interned.setdefault(route, route))
    reset(network)
    times_hr[:] = times
    damaged[:] = flags
    summaries = summarize_protocol_records(times_hr, damaged)
    return RunResult(network, times_hr, damaged, routes, summaries)
