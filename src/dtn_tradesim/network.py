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
def _link_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays shared by every n-node network.

    links is the upper-triangle mask; selecting with it visits the links
    (a < b) in row-major order, the order in which link values are drawn.
    A link block is a flat array of 2 * link_count values: every link's
    quality and then every link's distance, each in draw order.  slots maps
    every entry of a (2, n, n) stack to its position in the block, so one
    take writes a block to both triangles of both layers.  Both diagonals
    hold no link and map to position 0; a take writes the first link's
    value there, which its callers zero or multiply by a zero default.
    """
    links = np.triu(np.ones((n, n), dtype=bool), 1)
    rows, cols = links.nonzero()
    slots = np.zeros((2, n, n), dtype=np.intp)
    in_block = np.arange(2 * len(rows)).reshape(2, -1)
    slots[:, rows, cols] = slots[:, cols, rows] = in_block
    for array in (links, slots):
        array.setflags(write=False)
    return links, slots


class NetworkState:
    """Complete graph over the placed nodes with default and current link state.

    positions is the (n, 2) array from place_nodes; the probe and the ground
    station always hold ids PROBE_ID and GROUND_ID.  Link attributes are
    symmetric n x n arrays indexed by node id: ``current_quality[a, b]`` is
    the current quality of the link between a and b.  The diagonal holds no
    link: it is +0.0 in the defaults and reads 0 in the current state.  The
    default and the current values are each one (2, n, n) stack, quality
    layer then distance layer, and the four link attributes are views of
    those layers.  Every writer of the defaults writes both triangles, and
    perturb reads both.  The read-only floor stack of perturb (see
    _clamp_floor) is fetched when the network is built, so min_coord_km is
    read once, there; nothing writes it afterwards.  fallback_warned holds
    the (node, destination) pairs for which greedy forwarding has already
    logged its direct-hop fallback on this network.
    """

    probe_id = PROBE_ID
    ground_id = GROUND_ID

    def __init__(self, positions: np.ndarray, min_coord_km: float) -> None:
        n = len(positions)
        self.positions = positions
        self.min_coord_km = min_coord_km
        self.node_count = n
        self.link_count = n * (n - 1) // 2
        self.links, self._slots = _link_layout(n)
        self._floor = _clamp_floor(n, min_coord_km)
        self._defaults = np.zeros((2, n, n))
        self._current = np.zeros((2, n, n))
        self.default_quality, self.default_distance = self._defaults
        self.current_quality, self.current_distance = self._current
        self.fallback_warned: set[tuple[int, int]] = set()


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
    block = np.empty(2 * m)
    block[:m] = rng.beta(config.beta_a, config.beta_b, size=m)
    # math.hypot per pair, in draw order; np.hypot may differ in the last bit.
    block[m:] = [
        math.hypot(ax - bx, ay - by)
        for (ax, ay), (bx, by) in itertools.combinations(positions.tolist(), 2)
    ]
    defaults = network._defaults
    block.take(network._slots, out=defaults, mode="clip")  # "raise" would buffer
    defaults[:, range(n), range(n)] = 0.0  # the take wrote the first link there
    return reset(network)


@functools.lru_cache(maxsize=8)
def _clamp_floor(n: int, min_coord_km: float) -> np.ndarray:
    """Read-only (2, n, n) floor of perturbed link values.

    0 for qualities and min_coord_km for distances, with 0 on both
    diagonals, which hold no link; every n-node network with this
    min_coord_km shares one.
    """
    floor = np.zeros((2, n, n))
    floor[1] = min_coord_km
    np.fill_diagonal(floor[1], 0.0)
    floor.setflags(write=False)
    return floor


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
    finite z.  normal overflows without a warning; the multiply by the
    defaults warns for a finite factor that overflows there and for a NaN
    product, and numpy's warnings are left to the caller.  Draw order is
    fixed (qualities, then distances, each over the links in upper-triangle
    order) to keep runs reproducible.  One normal(1.0, sigma_frac) call
    draws the link block of factors 1 + sigma_frac * z, with the same two
    roundings, and one take writes it straight to the current (2, n, n)
    stack, both triangles and the diagonals (see _link_layout).  There it
    is multiplied in place by the defaults, raised to the network's
    read-only floor stack (see _clamp_floor) by one fmax, and capped at 1
    in its quality layer by one minimum.  A diagonal's factor meets a zero
    default, so it comes back as +-0, or as NaN that fmax sends to its
    floor 0.  The defaults, both triangles of them, are read anew on every
    call, so writes into ``default_*`` made after the build are followed
    without a reset; every writer sets a link at both (a, b) and (b, a).
    """
    if sigma_frac < 0:
        raise ConfigurationError(f"sigma_frac must be >= 0, got {sigma_frac}")
    current = network._current
    # normal reads the stream of standard_normal(2 * m), qualities then
    # distances, and forms 1.0 + sigma_frac * z, rounding after the multiply
    # and after the add (test_normal_draw_is_one_plus_scaled_standard_normal).
    rng.normal(1.0, sigma_frac, 2 * network.link_count).take(
        network._slots, out=current, mode="clip"  # "raise" would buffer
    )
    current *= network._defaults
    # fmax/minimum clamp like np.clip, with less overhead on small arrays;
    # fmax also sends NaN (a zero default times an overflowed inf) to the floor.
    np.fmax(current, network._floor, out=current)
    np.minimum(network.current_quality, 1.0, out=network.current_quality)
    return network


def reset(network: NetworkState) -> NetworkState:
    """Restore current link state, both layers, to the build-time defaults, in place."""
    np.copyto(network._current, network._defaults)
    return network


def _link_costs(network: NetworkState, kind: CostKind) -> np.ndarray:
    """A fresh n x n matrix of current link costs of the given kind."""
    if kind is _TIME_COST:
        return network.current_distance / SPEED_OF_LIGHT_KM_S
    if kind is _QUALITY_COST:
        return 1.0 - network.current_quality
    raise ValueError(f"unknown cost kind: {kind!r}")
