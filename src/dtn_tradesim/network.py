"""Relay-network model: node placement, link state, perturbation, link costs.

The network is a complete graph over one deep-space probe, one ground
station, and a configurable number of relay satellites.  Every link keeps
a default (build-time) distance and quality plus a current value that a
per-step perturbation jitters around the default; a perturbation writes
every link's current quality and distance at once.
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


# Hot paths test a cost kind by identity against these: reading a member off
# its Enum class runs Python code on every call.
_TIME_COST = CostKind.TRANSMISSION_TIME
_QUALITY_COST = CostKind.QUALITY_COMPLEMENT


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
    A link block is a flat array of 1 + 2 * link_count values: a zero for
    the diagonal, then every link's quality and then every link's distance,
    each in draw order.  gather holds the flat position in a (2, n, n) stack
    of each block value after the zero; slots maps every stack entry to its
    position in the block, 0 on both diagonals.
    """
    links = np.triu(np.ones((n, n), dtype=bool), 1)
    rows, cols = links.nonzero()
    gather = rows * n + cols
    slots = np.zeros((2, n, n), dtype=np.intp)
    in_block = np.arange(1, 2 * len(rows) + 1).reshape(2, -1)
    slots[:, rows, cols] = slots[:, cols, rows] = in_block
    layout = (links, np.concatenate((gather, gather + n * n)), slots)
    for array in layout:
        array.setflags(write=False)
    return layout


class NetworkState:
    """Complete graph over the placed nodes with default and current link state.

    positions is the (n, 2) array from place_nodes; the probe and the ground
    station always hold ids PROBE_ID and GROUND_ID.  Link attributes are
    symmetric n x n arrays indexed by node id: ``current_quality[a, b]`` is
    the current quality of the link between a and b.  The diagonal holds no
    link and stays zero.  The default and the current values are each one
    (2, n, n) stack, quality layer then distance layer, and the four link
    attributes are views of those layers.  perturb keeps its link block
    (see _link_layout) on the network between calls; reset releases it.
    """

    probe_id = PROBE_ID
    ground_id = GROUND_ID

    def __init__(self, positions: np.ndarray, min_coord_km: float) -> None:
        n = len(positions)
        self.positions = positions
        self.min_coord_km = min_coord_km
        self.node_count = n
        self.link_count = n * (n - 1) // 2
        self.links, self._gather, self._slots = _link_layout(n)
        self._defaults = np.zeros((2, n, n))
        self._current = np.zeros((2, n, n))
        self.default_quality, self.default_distance = self._defaults
        self.current_quality, self.current_distance = self._current
        self._block = self._jittered = None


def _set_links(network: NetworkState, stack: np.ndarray, block: np.ndarray) -> None:
    """Write a link block (see _link_layout) to a (2, n, n) stack."""
    block.take(network._slots, out=stack, mode="clip")  # "raise" would buffer


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
    m = network.link_count
    block = np.zeros(1 + 2 * m)
    block[1 : m + 1] = rng.beta(config.beta_a, config.beta_b, size=m)
    # math.hypot per pair, in draw order; np.hypot may differ in the last bit.
    block[m + 1 :] = [
        math.hypot(ax - bx, ay - by)
        for (ax, ay), (bx, by) in itertools.combinations(positions.tolist(), 2)
    ]
    _set_links(network, network._defaults, block)
    return reset(network)


@functools.lru_cache(maxsize=8)
def _clamp_bounds(link_count: int, min_coord_km: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (floor, ceiling) of a link block after its zero.

    Qualities lie in [0, 1] and distances in [min_coord_km, inf]: each bound
    holds every link's quality bound, then every link's distance bound, in
    the block's order.  A ceiling of inf leaves every distance as it is.
    """
    bounds = np.repeat(((0.0, min_coord_km), (1.0, math.inf)), link_count, axis=1)
    bounds.setflags(write=False)
    return bounds[0], bounds[1]


def perturb(
    network: NetworkState, rng: np.random.Generator, sigma_frac: float
) -> NetworkState:
    """Redraw current link state around the defaults, in place.

    Each value is default * (1 + sigma_frac * z) for a standard normal z,
    so Normal(default, sigma_frac * default); qualities clamp to [0, 1] and
    distances to >= min_coord_km.  So sigma_frac = 0 reproduces the
    defaults, except that a default distance below min_coord_km comes back
    as min_coord_km.  When sigma_frac * z overflows (sigma_frac near the
    float maximum), a value goes to +-inf and clamps, and a zero default,
    whose product is then NaN, comes back at its floor as it would at any
    finite z; numpy's warnings for both are left to the caller.  Draw order
    is fixed (qualities, then distances, each over the links in
    upper-triangle order) to keep runs reproducible.  The
    normals are drawn straight into the network's link block (see
    _link_layout), scaled there in place, clamped by one fmax and one
    minimum over the whole block against read-only bounds (see
    _clamp_bounds; min_coord_km is read from the network on every call), and
    written to both layers in one pass, the diagonal included.  The block is
    allocated, with its zero, on the first call after a build or a reset,
    and kept on the network until the next reset.  The defaults are gathered
    anew on every call, so writes into ``default_*`` made after the build
    are followed without a reset.
    """
    if sigma_frac < 0:
        raise ConfigurationError(f"sigma_frac must be >= 0, got {sigma_frac}")
    m = network.link_count
    jittered = network._jittered
    if jittered is None:
        network._block = np.zeros(1 + 2 * m)  # [0] is the diagonal's zero
        jittered = network._jittered = network._block[1:]
    # The same stream as standard_normal((2, m)): qualities, then distances.
    rng.standard_normal(out=jittered)
    # default * (1.0 + sigma_frac * z), one in-place IEEE step at a time.
    jittered *= sigma_frac
    jittered += 1.0
    jittered *= network._defaults.take(network._gather)
    # fmax/minimum clamp like np.clip, with less overhead on small arrays;
    # fmax also sends NaN (a zero default times an overflowed inf) to the floor.
    floor, ceiling = _clamp_bounds(m, network.min_coord_km)
    np.fmax(jittered, floor, out=jittered)
    np.minimum(jittered, ceiling, out=jittered)
    _set_links(network, network._current, network._block)
    return network


def reset(network: NetworkState) -> NetworkState:
    """Restore current link state to the build-time defaults, in place.

    Also releases perturb's link block, so a reset network holds no scratch
    state.
    """
    np.copyto(network._current, network._defaults)
    network._block = network._jittered = None
    return network


def _link_costs(network: NetworkState, kind: CostKind) -> np.ndarray:
    """A fresh n x n matrix of current link costs of the given kind."""
    if kind is _TIME_COST:
        return network.current_distance / SPEED_OF_LIGHT_KM_S
    if kind is _QUALITY_COST:
        return 1.0 - network.current_quality
    raise ValueError(f"unknown cost kind: {kind!r}")
