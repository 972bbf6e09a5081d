"""Core network model: placement, sampling, perturbation, edge costs."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.errors import ConfigurationError
from dtn_tradesim.network import (
    GROUND_ID,
    PROBE_ID,
    SPEED_OF_LIGHT_KM_S,
    CostKind,
    build_network,
    perturb,
    place_nodes,
    reset,
)

from helpers import build_random_network, edge_cost_matrix, rng, set_link


def test_place_nodes_endpoints_fixed():
    positions = place_nodes(StudyConfig(), rng(3))
    assert positions.shape == (12, 2)
    assert positions[PROBE_ID].tolist() == [1.27e9, 0.0]
    assert positions[GROUND_ID].tolist() == [0.0, 0.0]


def test_place_nodes_relay_bounds():
    cfg = StudyConfig()
    for seed in range(10):
        relays = place_nodes(cfg, rng(seed))[2:]
        assert len(relays) == cfg.relay_count
        xs, ys = relays.T
        assert np.all(xs >= cfg.min_coord_km)
        assert np.all(xs <= cfg.end_to_end_km - cfg.min_coord_km)
        assert np.all(np.abs(ys) <= cfg.end_to_end_km / 2)


def test_place_nodes_deterministic():
    a = place_nodes(StudyConfig(), rng(11))
    assert np.array_equal(a, place_nodes(StudyConfig(), rng(11)))


def test_sample_quality_moments():
    # Beta(3, 2): mean 0.6, variance 0.04, over the ~100k links of one network.
    network = build_random_network(seed=42, relay_count=450)
    draws = network.default_quality[network.links]
    assert draws.size > 100_000
    assert abs(draws.mean() - 0.6) < 0.005
    assert abs(draws.var(ddof=1) - 0.04) < 0.003
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_sample_quality_uniform_special_case():
    # Beta(1, 1) must be indistinguishable from Uniform[0, 1].
    network = build_random_network(seed=7, relay_count=200, beta_a=1.0, beta_b=1.0)
    draws = network.default_quality[network.links]
    assert draws.size > 20_000
    result = scipy_stats.kstest(draws, "uniform")
    assert result.pvalue > 0.01


def test_build_network_complete_graph():
    network = build_random_network(seed=5)
    n = network.node_count
    assert n == 12
    assert network.link_count == n * (n - 1) // 2
    assert network.default_quality.shape == (n, n)
    assert np.all(network.default_quality >= 0.0)
    assert np.all(network.default_quality <= 1.0)
    assert network.default_distance[network.probe_id, network.ground_id] == 1.27e9


def test_build_network_deterministic():
    a = build_random_network(seed=9)
    b = build_random_network(seed=9)
    assert np.array_equal(a.default_quality, b.default_quality)
    assert np.array_equal(a.default_distance, b.default_distance)
    assert np.array_equal(a.positions, b.positions)


def test_link_view_symmetric():
    network = build_random_network(seed=2, relay_count=4)
    perturb(network, rng(1), 0.3)
    for matrix in (
        network.default_distance,
        network.current_distance,
        network.default_quality,
        network.current_quality,
    ):
        assert np.array_equal(matrix, matrix.T)
    for kind in CostKind:
        costs = edge_cost_matrix(network, kind)
        assert np.array_equal(costs, costs.T)


def test_no_self_links():
    network = build_random_network(seed=2, relay_count=2)
    for state in (network, perturb(network, rng(1), 0.5), reset(network)):
        assert not np.any(np.diag(state.default_distance))
        assert not np.any(np.diag(state.current_distance))
        assert not np.any(np.diag(state.current_quality))


def test_link_mask_visits_pairs_in_draw_order():
    network = build_random_network(seed=3, relay_count=3)
    n = network.node_count
    rows, cols = np.nonzero(network.links)
    assert list(zip(rows, cols)) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_edge_cost_quality_complement():
    network = build_random_network(seed=4, relay_count=3)
    set_link(network, 2, 3, quality=0.75)
    costs = edge_cost_matrix(network, CostKind.QUALITY_COMPLEMENT)
    assert costs[2, 3] == costs[3, 2] == pytest.approx(0.25)


def test_edge_cost_transmission_time_is_distance_over_c():
    network = build_random_network(seed=4, relay_count=3)
    set_link(network, 2, 4, distance=SPEED_OF_LIGHT_KM_S)
    costs = edge_cost_matrix(network, CostKind.TRANSMISSION_TIME)
    assert costs[2, 4] == costs[4, 2] == pytest.approx(1.0)


def test_perturb_sigma_zero_is_identity():
    network = build_random_network(seed=8)
    perturb(network, rng(1), 0.0)
    assert np.array_equal(network.current_quality, network.default_quality)
    assert np.array_equal(network.current_distance, network.default_distance)


def test_perturb_sigma_zero_clamps_short_default_distances():
    # A validated config can place links closer than min_coord_km; sigma 0
    # keeps every quality and lifts exactly those distances to the clamp.
    network = build_random_network(seed=0, end_to_end_km=2.5e4, min_coord_km=1.0e4)
    short = network.links & (network.default_distance < network.min_coord_km)
    assert np.count_nonzero(short) == 23
    perturb(network, rng(1), 0.0)
    assert np.array_equal(network.current_quality, network.default_quality)
    want = np.where(short | short.T, network.min_coord_km, network.default_distance)
    assert np.array_equal(network.current_distance, want)


def test_perturb_rejects_negative_sigma():
    network = build_random_network(seed=8, relay_count=2)
    with pytest.raises(ConfigurationError):
        perturb(network, rng(1), -0.1)


def test_perturb_clamps_to_valid_ranges():
    network = build_random_network(seed=8, relay_count=5)
    r = rng(3)
    for _ in range(50):
        perturb(network, r, 5.0)  # huge jitter to exercise the clamps
        quality = network.current_quality[network.links]
        assert np.all(quality >= 0.0)
        assert np.all(quality <= 1.0)
        assert np.all(network.current_distance[network.links] >= network.min_coord_km)


def test_perturb_centered_on_default():
    network = build_random_network(seed=12)
    # Pick a link whose default quality sits well inside [0, 1] so the
    # clamp cannot bias the average.
    idx = np.unravel_index(
        np.argmin(np.abs(network.default_quality - 0.6)), network.default_quality.shape
    )
    q = float(network.default_quality[idx])
    assert 0.3 < q < 0.9
    r = rng(5)
    draws = np.empty(10_000)
    for k in range(draws.size):
        perturb(network, r, 0.05)
        draws[k] = network.current_quality[idx]
    sem = 0.05 * q / math.sqrt(draws.size)
    assert abs(draws.mean() - q) < 3 * sem


def test_perturb_leaves_defaults_untouched():
    network = build_random_network(seed=8, relay_count=3)
    before_q = network.default_quality.copy()
    before_d = network.default_distance.copy()
    perturb(network, rng(2), 0.5)
    assert np.array_equal(network.default_quality, before_q)
    assert np.array_equal(network.default_distance, before_d)


def test_reset_restores_fresh_state():
    network = build_random_network(seed=8, relay_count=3)
    fresh_q = network.current_quality.copy()
    fresh_d = network.current_distance.copy()
    perturb(network, rng(2), 0.3)
    reset(network)  # restores both layers of the current state
    assert np.array_equal(network.current_quality, fresh_q)
    assert np.array_equal(network.current_distance, fresh_d)
    reset(network)  # idempotent
    assert np.array_equal(network.current_quality, fresh_q)


def test_perturb_floor_is_set_at_build_and_reset_restores_both_layers():
    network = build_random_network(seed=8, relay_count=3)
    n, floor = network.node_count, network._floor
    assert floor.shape == (2, n, n) and not floor.flags.writeable
    assert not floor[0].any() and not floor[:, range(n), range(n)].any()
    assert (floor[1][network.links] == network.min_coord_km).all()
    # One shared read-only floor per (n, min_coord_km).
    assert build_random_network(seed=9, relay_count=3)._floor is floor
    apart = build_random_network(seed=9, relay_count=3, min_coord_km=2.0e4)
    assert apart._floor is not floor and apart._floor.max() == 2.0e4
    perturb(network, rng(2), 0.3)
    assert network._current.tobytes() != network._defaults.tobytes()
    reset(network)
    assert network._current.tobytes() == network._defaults.tobytes()
    # perturb keeps no scratch block on the network.
    assert network._floor is floor and not hasattr(network, "_block")


@pytest.mark.parametrize("sigma", [0.6, 1.7e308])
def test_perturb_leaves_both_diagonals_zero(sigma):
    # The diagonals' slots point at the first link's factor, which meets a
    # zero default: the product is +-0, or NaN when the factor overflowed,
    # and the floor's zero diagonal must bring NaN back to 0.
    network = build_random_network(seed=8, relay_count=5)
    diagonal = (slice(None), *np.diag_indices(network.node_count))
    defaults = network._defaults[diagonal]
    assert defaults.tobytes() == bytes(defaults.nbytes)  # +0.0 exactly: every byte zero
    r = rng(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(20):
            perturb(network, r, sigma)
            assert (network._current[diagonal] == 0.0).all()


def test_perturb_clamps_each_network_to_its_own_floor():
    # Each network holds the floor of its own min_coord_km from its build.
    # Two networks of one size with different floors, perturbed in turn, must
    # each keep clamping to their own min_coord_km.  At sigma 3
    # about a third of the draws send a distance below zero, so every step
    # clamps some link to the floor.
    sigma = 3.0
    networks = [
        build_random_network(seed=8, relay_count=5, min_coord_km=floor)
        for floor in (1.0e4, 1.0e8)
    ]
    streams = [rng(31), rng(32)]
    for _ in range(3):
        for network, r in zip(networks, streams):
            perturb(network, r, sigma)
            distances = network.current_distance[network.links]
            assert distances.min() == network.min_coord_km


def test_perturb_draws_one_normal_block():
    network = build_random_network(seed=8, relay_count=5)
    r, twin = rng(4), rng(4)
    perturb(network, r, 0.3)
    twin.standard_normal((2, network.link_count))
    assert r.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.6, 1e300, 1.7e308])
def test_normal_draw_is_one_plus_scaled_standard_normal(sigma):
    # perturb draws its factors with normal(1.0, sigma, k) and relies on them
    # equalling 1.0 + sigma * z from standard_normal(k), rounded after the
    # multiply and after the add, with the stream ending in the same place.
    fused, twin = rng(9), rng(9)
    got = fused.normal(1.0, sigma, 1000)
    with np.errstate(over="ignore"):  # sigma * z overflows at 1.7e308
        want = 1.0 + sigma * twin.standard_normal(1000)
    assert got.tobytes() == want.tobytes(), (
        f"numpy {np.__version__}: normal(1.0, {sigma}, k) is not 1.0 + {sigma} * z "
        "bit for bit; a build that fuses loc + scale * z into one multiply-add "
        "rounds once, so perturbed values differ from those under numpy 2.4.6 "
        "and the pinned perturb results need a re-pin under this numpy; this "
        "does not show that the engine broke"
    )
    assert fused.bit_generator.state == twin.bit_generator.state, (
        f"numpy {np.__version__}: normal(1.0, {sigma}, k) consumes another "
        "stream than standard_normal(k), so perturb's draws differ from numpy 2.4.6's"
    )


def test_second_perturb_overwrites_the_first():
    # Each perturb overwrites the whole current state, so two perturbs in a
    # row must leave exactly the second draw, computed link by link.
    network = build_random_network(seed=8, relay_count=5)
    sigma = 0.4
    r, twin = rng(6), rng(6)
    perturb(network, r, sigma)
    perturb(network, r, sigma)
    twin.standard_normal((2, network.link_count))
    _, zd = twin.standard_normal((2, network.link_count))
    rows, cols = np.nonzero(network.links)
    d = np.maximum(network.default_distance[rows, cols] * (1.0 + sigma * zd), network.min_coord_km)
    want = np.zeros_like(network.default_distance)
    want[rows, cols] = want[cols, rows] = d
    assert np.array_equal(network.current_distance, want)


def test_perturb_follows_default_writes_and_keeps_networks_apart():
    sigma = 0.3
    network = build_random_network(seed=8, relay_count=5)
    r, twin = rng(7), rng(7)
    perturb(network, r, sigma)
    twin.standard_normal((2, network.link_count))
    # Written through the views after the build and a perturb, with no reset.
    network.default_quality[2, 5] = network.default_quality[5, 2] = 0.125
    network.default_distance[2, 5] = network.default_distance[5, 2] = 7.5e7
    perturb(network, r, sigma)
    zq, zd = twin.standard_normal((2, network.link_count)).tolist()
    n = network.node_count
    want_q, want_d = np.zeros((n, n)), np.zeros((n, n))
    for k, (a, b) in enumerate(zip(*np.nonzero(network.links))):
        q = network.default_quality[a, b] * (1.0 + sigma * zq[k])
        d = network.default_distance[a, b] * (1.0 + sigma * zd[k])
        want_q[a, b] = want_q[b, a] = min(max(q, 0.0), 1.0)
        want_d[a, b] = want_d[b, a] = max(d, network.min_coord_km)
    assert 0.0 < want_q[2, 5] < 1.0 and want_d[2, 5] > network.min_coord_km  # unclamped
    assert np.array_equal(network.current_quality, want_q)
    assert np.array_equal(network.current_distance, want_d)

    # Two networks of one size, perturbed in turn, each end as if alone.
    def pair():
        return [build_random_network(seed=s, relay_count=5) for s in (11, 12)]

    alternate, alone = pair(), pair()
    streams, alone_streams = [rng(21), rng(22)], [rng(21), rng(22)]
    for _ in range(3):
        for net, r in zip(alternate, streams):
            perturb(net, r, sigma)
    for net, r in zip(alone, alone_streams):
        for _ in range(3):
            perturb(net, r, sigma)
    for a, b in zip(alternate, alone):
        assert np.array_equal(a.current_quality, b.current_quality)
        assert np.array_equal(a.current_distance, b.current_distance)


def test_build_network_validation():
    with pytest.raises(ConfigurationError):
        build_network(np.zeros((1, 2)), rng(0), StudyConfig())
