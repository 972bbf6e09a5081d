"""Relay-network model: node placement, link state, perturbation, edge costs.

The network is a complete graph over one deep-space probe, one ground
station, and a configurable number of relay satellites.  Every link keeps
a default (build-time) distance and quality plus a current value that a
per-step perturbation jitters around the default.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT_KM_S = 299_792.458

# Fixed node ids: the source probe and the destination ground station are
# always present; relays take the remaining ids.
PROBE_ID = 0
GROUND_ID = 1


class NodeKind(Enum):
    PROBE = "probe"
    RELAY = "relay"
    GROUND = "ground"


class CostKind(Enum):
    """Edge-cost flavors used by the shortest-path protocols."""

    TRANSMISSION_TIME = "transmission_time"
    QUALITY_COMPLEMENT = "quality_complement"


def place_nodes(config, rng: np.random.Generator) -> np.ndarray:
    """Node positions in kilometers: an (n, 2) array of (x, y), row = node id.

    config is a StudyConfig (relay_count, end_to_end_km, min_coord_km).
    Ground sits at the origin and the probe at (end_to_end_km, 0), so their
    separation equals the configured end-to-end span exactly.  Relay x values
    stay min_coord_km clear of both endpoints; relay y spans half the
    end-to-end distance on either side of the axis.
    """
    e = config.end_to_end_km
    xs = rng.uniform(config.min_coord_km, e - config.min_coord_km, config.relay_count)
    ys = rng.uniform(-e / 2.0, e / 2.0, config.relay_count)
    # Rows PROBE_ID = 0 and GROUND_ID = 1, then the relays.
    return np.vstack(([e, 0.0], [0.0, 0.0], np.column_stack((xs, ys))))


@functools.lru_cache(maxsize=8)
def _link_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays shared by every n-node network.

    links is the upper-triangle mask; selecting with it visits the links
    (a < b) in row-major order, the order in which link values are drawn.
    upper holds the same links as flat positions in an n x n matrix, and
    slots maps each off-diagonal entry to its link's draw-order position.
    """
    links = np.triu(np.ones((n, n), dtype=bool), 1)
    rows, cols = links.nonzero()
    slots = np.zeros((n, n), dtype=np.intp)
    slots[rows, cols] = slots[cols, rows] = np.arange(len(rows))
    layout = (links, rows * n + cols, slots)
    for array in layout:
        array.setflags(write=False)
    return layout


class NetworkState:
    """Complete graph over the placed nodes with default and current link state.

    positions is the (n, 2) array from place_nodes; the probe and the ground
    station always hold ids PROBE_ID and GROUND_ID.  Link attributes are
    symmetric n x n arrays indexed by node id: ``current_quality[a, b]`` is
    the current quality of the link between a and b.  The diagonal holds no
    link and stays zero.
    """

    probe_id = PROBE_ID
    ground_id = GROUND_ID

    def __init__(self, positions: np.ndarray, min_coord_km: float) -> None:
        n = len(positions)
        self.positions = positions
        self.min_coord_km = min_coord_km
        self.node_count = n
        self.link_count = n * (n - 1) // 2
        self.links, self._upper, self._slots = _link_layout(n)
        self.default_distance = np.zeros((n, n))
        self.default_quality = np.zeros((n, n))
        self.current_quality = np.zeros((n, n))
        self._current_distance = np.zeros((n, n))
        # (sigma_frac, distance normals) of the last perturbation while its
        # distances are not yet written; None once current_distance is.
        self._distance_draws: tuple[float, np.ndarray] | None = None

    @property
    def current_distance(self) -> np.ndarray:
        """Current link distances, written on the first read after a perturbation."""
        if self._distance_draws is not None:
            sigma_frac, zd = self._distance_draws
            self._distance_draws = None
            d = self.default_distance.take(self._upper) * (1.0 + sigma_frac * zd)
            _set_links(self, self._current_distance, np.maximum(d, self.min_coord_km))
        return self._current_distance


def _set_links(network: NetworkState, matrix: np.ndarray, values: np.ndarray) -> None:
    """Write per-link values, given in draw order, to both triangles of matrix."""
    values.take(network._slots, out=matrix, mode="clip")  # "raise" would buffer
    matrix.ravel()[:: network.node_count + 1] = 0.0


def build_network(
    positions: np.ndarray, rng: np.random.Generator, config
) -> NetworkState:
    """Assemble the complete graph: geometric distances, Beta link qualities.

    config is a StudyConfig (beta_a, beta_b, min_coord_km).  Qualities are
    drawn in one vectorized call over the links in row-major upper-triangle
    order, so the same seed always yields the same network.
    """
    n = len(positions)
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n}")
    network = NetworkState(positions, config.min_coord_km)
    # math.hypot per pair, in draw order; np.hypot may differ in the last bit.
    dist = [
        math.hypot(ax - bx, ay - by)
        for (ax, ay), (bx, by) in itertools.combinations(positions.tolist(), 2)
    ]
    quality = rng.beta(config.beta_a, config.beta_b, size=len(dist))
    _set_links(network, network.default_distance, np.array(dist))
    _set_links(network, network.default_quality, quality)
    return reset(network)


def perturb(
    network: NetworkState, rng: np.random.Generator, sigma_frac: float
) -> NetworkState:
    """Redraw current link state around the defaults, in place.

    Each value is Normal(default, sigma_frac * default); qualities clamp to
    [0, 1] and distances to >= min_coord_km.  sigma_frac = 0 reproduces the
    defaults bit for bit.  Draw order is fixed (qualities, then distances,
    each over the links in upper-triangle order) to keep runs reproducible.
    Qualities are written at once; distances when current_distance is next
    read, from the draws made here.
    """
    if sigma_frac < 0:
        raise ConfigurationError(f"sigma_frac must be >= 0, got {sigma_frac}")
    zq, zd = rng.standard_normal((2, network.link_count))
    # maximum/minimum clamp like np.clip, with less overhead on small arrays.
    q = network.default_quality.take(network._upper) * (1.0 + sigma_frac * zq)
    _set_links(network, network.current_quality, np.minimum(np.maximum(q, 0.0), 1.0))
    network._distance_draws = (sigma_frac, zd)
    return network


def reset(network: NetworkState) -> NetworkState:
    """Restore current link state to the build-time defaults, in place."""
    np.copyto(network.current_quality, network.default_quality)
    np.copyto(network._current_distance, network.default_distance)
    network._distance_draws = None
    return network


def edge_cost_matrix(network: NetworkState, kind: CostKind) -> np.ndarray:
    """n x n link costs of the given kind, with the direct link penalized.

    The probe-to-ground link costs the sum of every entry plus one, which
    strictly exceeds the cost of any simple relay path, so shortest-path
    routing only falls back to it when no alternative exists.
    """
    if kind is CostKind.TRANSMISSION_TIME:
        costs = network.current_distance / SPEED_OF_LIGHT_KM_S
    elif kind is CostKind.QUALITY_COMPLEMENT:
        costs = 1.0 - network.current_quality
    else:
        raise ValueError(f"unknown cost kind: {kind!r}")
    p, g = network.probe_id, network.ground_id
    costs[p, g] = costs[g, p] = costs.sum() + 1.0
    return costs
