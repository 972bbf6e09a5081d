"""Shared test fixtures: hand-built networks and brute-force oracles."""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import math
import os

import numpy as np

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.network import (
    GROUND_ID,
    PROBE_ID,
    SPEED_OF_LIGHT_KM_S,
    CostKind,
    NetworkState,
    NodeKind,
    _link_costs,
    build_network,
    place_nodes,
    reset,
)
from dtn_tradesim.routing import PROTOCOL_COST_KIND, ProtocolKind
from dtn_tradesim.simulation import (
    PROTOCOL_ORDER,
    SECONDS_PER_HOUR,
    PacketRecord,
    PacketState,
)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def build_random_network(seed: int, **keys) -> NetworkState:
    """Random network for a StudyConfig with the given keys overridden."""
    cfg = StudyConfig(**keys)
    r = rng(seed)
    return build_network(place_nodes(cfg, r), r, cfg)


def build_custom_network(
    positions: list[tuple[NodeKind, float, float]],
    seed: int = 0,
    min_coord_km: float = 1.0,
) -> NetworkState:
    """Network from explicit (kind, x, y) rows; ids follow list order.

    The probe row comes first and the ground row second, as in place_nodes.
    """
    kinds = [kind for kind, _, _ in positions]
    if kinds != [NodeKind.PROBE, NodeKind.GROUND] + [NodeKind.RELAY] * (len(kinds) - 2):
        raise ValueError(f"rows must be probe, ground, then relays: {kinds}")
    xy = np.array([(x, y) for _, x, y in positions], dtype=np.float64)
    return build_network(xy, rng(seed), StudyConfig(min_coord_km=min_coord_km))


def set_link(
    network: NetworkState,
    a: int,
    b: int,
    quality: float | None = None,
    distance: float | None = None,
) -> None:
    """Pin a link's default (and current) quality or distance."""
    if quality is not None:
        network.default_quality[a, b] = network.default_quality[b, a] = quality
    if distance is not None:
        network.default_distance[a, b] = network.default_distance[b, a] = distance
    reset(network)


def edge_cost_matrix(network: NetworkState, kind: CostKind) -> np.ndarray:
    """n x n link costs of the given kind, with the direct link penalized.

    The probe-to-ground link costs the sum of every entry plus one, which
    strictly exceeds the cost of any simple relay path, so shortest-path
    routing only falls back to it when no alternative exists.  The search
    kernels in routing price that link at inf instead, which decides the
    same hops; the oracles below search this matrix.
    """
    costs = _link_costs(network, kind)
    p, g = network.probe_id, network.ground_id
    costs[p, g] = costs[g, p] = costs.sum() + 1.0
    return costs


def brute_force_min_cost(
    network: NetworkState, kind: CostKind, src: int, dst: int
) -> float:
    """Exhaustive minimum simple-path cost; independent of the router."""
    costs = edge_cost_matrix(network, kind)
    others = [v for v in range(network.node_count) if v != src and v != dst]
    best = math.inf
    for r in range(len(others) + 1):
        for mids in itertools.permutations(others, r):
            path = (src,) + mids + (dst,)
            total = sum(float(costs[path[i], path[i + 1]]) for i in range(len(path) - 1))
            best = min(best, total)
    return best


def path_cost(network: NetworkState, kind: CostKind, path) -> float:
    costs = edge_cost_matrix(network, kind)
    return sum(float(costs[path[i], path[i + 1]]) for i in range(len(path) - 1))


def distance_to(network: NetworkState, node: int, target: int) -> float:
    """Build-time geometric distance from node to target (0 for the target)."""
    if node == target:
        return 0.0
    return float(network.default_distance[node, target])


def reference_dijkstra_path(
    network: NetworkState, kind: CostKind, src: int, dst: int
) -> tuple[int, ...]:
    """Heap Dijkstra carrying whole paths: the tie-order reference.

    Heap entries are (cost, hop count, path), so equal-cost alternatives
    resolve to the fewest hops and remaining ties to the lexicographically
    smallest node sequence; the first time dst pops it holds the optimum.
    """
    n = network.node_count
    rows = edge_cost_matrix(network, kind).tolist()
    best: list[tuple[float, int, tuple[int, ...]] | None] = [None] * n
    start = (0.0, 0, (src,))
    best[src] = start
    heap = [start]
    while heap:
        entry = heapq.heappop(heap)
        cost, hops, path = entry
        u = path[-1]
        if u == dst:
            return path
        if entry != best[u]:
            continue  # stale entry
        row = rows[u]
        for v in range(n):
            if v == u or v in path:
                continue
            candidate = (cost + row[v], hops + 1, path + (v,))
            if best[v] is None or candidate < best[v]:
                best[v] = candidate
                heapq.heappush(heap, candidate)
    raise RuntimeError(f"no path from {src} to {dst}")


def _reference_greedy_hop(network: NetworkState, current: int, dst: int) -> int:
    """The bundle protocol's hop, candidate by candidate.

    Candidates are the nodes strictly closer to dst than current by default
    distance (dst itself at zero), without the probe's direct link to the
    ground while relays exist; the best current quality wins, and a tie
    keeps the lower node id.  No candidate sends the packet to dst.
    """
    def to_dst(v: int) -> float:
        return 0.0 if v == dst else float(network.default_distance[v, dst])

    hop, hop_quality = dst, None
    for v in range(network.node_count):
        if to_dst(v) >= to_dst(current):
            continue
        if current == network.probe_id and v == network.ground_id and network.node_count > 2:
            continue
        quality = float(network.current_quality[current, v])
        if hop_quality is None or quality > hop_quality:
            hop, hop_quality = v, quality
    return hop


def reference_packet(
    network: NetworkState,
    rng: np.random.Generator,
    sigma_frac: float,
    packet_index: int = 0,
    step_budget: int | None = None,
) -> tuple[list[PacketRecord], list[tuple[np.ndarray, np.ndarray]]]:
    """One packet's three protocol copies, worked out link by link and hop by hop.

    The reference for simulate_packet.  Each step draws one standard normal
    per link, every quality first and then every distance, each over the
    links a < b in row-major order, and sets the link to
    default * (1.0 + sigma_frac * z), raised to its floor (0 for a quality,
    min_coord_km for a distance; also when the product is NaN) and, for a
    quality, capped at 1.  The values are written into network's current
    state.  Then every copy still in flight, in PROTOCOL_ORDER, takes its
    hop (the greedy loop above, or the second node of reference_dijkstra_path
    under its protocol's cost kind), adds the hop's default distance over
    the speed of light to its time, and draws one rng.random(); the copy is
    damaged if the draw is not below the hop's current quality.

    Returns the records, as simulate_packet does, and each step's perturbed
    (quality, distance) matrices.  Running past step_budget steps raises
    RuntimeError.
    """
    n = network.node_count
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    layers = [
        (network.default_quality, network.current_quality, 0.0, 1.0),
        (network.default_distance, network.current_distance, network.min_coord_km, math.inf),
    ]
    src, dst = network.probe_id, network.ground_id
    routes = {p: [src] for p in PROTOCOL_ORDER}
    seconds = {p: 0.0 for p in PROTOCOL_ORDER}
    damaged = {p: False for p in PROTOCOL_ORDER}
    steps = []
    while any(route[-1] != dst for route in routes.values()):
        if step_budget is not None and len(steps) >= step_budget:
            raise RuntimeError(f"packet {packet_index}: step budget {step_budget} exceeded")
        for default, current, floor, ceiling in layers:
            for a, b in links:
                value = float(default[a, b]) * (1.0 + sigma_frac * rng.standard_normal())
                if math.isnan(value) or value < floor:
                    value = floor
                value = min(value, ceiling)
                current[a, b] = current[b, a] = value
        steps.append((network.current_quality.copy(), network.current_distance.copy()))
        for p in PROTOCOL_ORDER:
            u = routes[p][-1]
            if u == dst:
                continue
            if p is ProtocolKind.BUNDLE:
                v = _reference_greedy_hop(network, u, dst)
            else:
                v = reference_dijkstra_path(network, PROTOCOL_COST_KIND[p], u, dst)[1]
            seconds[p] += float(network.default_distance[u, v]) / SPEED_OF_LIGHT_KM_S
            if not rng.random() < float(network.current_quality[u, v]):
                damaged[p] = True
            routes[p].append(v)
    records = [
        PacketRecord(
            packet_index,
            p,
            tuple(routes[p]),
            seconds[p] / SECONDS_PER_HOUR,
            PacketState.DAMAGED if damaged[p] else PacketState.INTACT,
        )
        for p in PROTOCOL_ORDER
    ]
    return records, steps


def _reference_csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return value


def reference_write_table(
    out_dir: str, name: str, columns: list[str], rows: list[tuple], fmt: str
) -> list[str]:
    """Cell-by-cell stdlib table writer: the byte reference for report tables.

    CSV goes through csv.writer one row at a time with floats as
    float.__repr__ and bools lowercase; JSON through json.dump(indent=2) over
    one dict per row, with NaN replaced by None.
    """
    written = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_reference_csv_cell(v) for v in row])
        written.append(f"{name}.csv")
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{name}.json")
        clean = [
            {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in zip(columns, row)
            }
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(clean, fh, indent=2)
            fh.write("\n")
        written.append(f"{name}.json")
    return written


def reference_node_rows(network: NetworkState) -> tuple[list[str], list[tuple]]:
    """One network's node table: the reference for each run's slice.

    These are the rows the bundle wrote to a file per run before its network
    tables gained a run column.
    """
    columns = ["node_id", "kind", "x_km", "y_km"]
    kinds = {PROBE_ID: NodeKind.PROBE, GROUND_ID: NodeKind.GROUND}
    xy = enumerate(network.positions.tolist())
    return columns, [(i, kinds.get(i, NodeKind.RELAY).value, x, y) for i, (x, y) in xy]


def reference_link_rows(network: NetworkState) -> tuple[list[str], list[tuple]]:
    """One network's link table, pair by pair from n x n lists (a < b, row-major)."""
    columns = ["node_a", "node_b", "default_distance_km", "default_quality"]
    distance = network.default_distance.tolist()
    quality = network.default_quality.tolist()
    n = network.node_count
    rows = [
        (a, b, distance[a][b], quality[a][b]) for a in range(n) for b in range(a + 1, n)
    ]
    return columns, rows
