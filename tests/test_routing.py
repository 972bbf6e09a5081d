"""Routing strategies: shortest path, greedy forwarding, route frequency."""

import logging
import math

import numpy as np
import pytest

from dtn_tradesim import routing
from dtn_tradesim.network import (
    GROUND_ID,
    PROBE_ID,
    SPEED_OF_LIGHT_KM_S,
    CostKind,
    NodeKind,
    perturb,
    reset,
)
from dtn_tradesim.routing import (
    ProtocolKind,
    dijkstra_path,
    most_frequent_path,
    next_hop,
)

from helpers import (
    brute_force_min_cost,
    build_custom_network,
    build_random_network,
    distance_to,
    edge_cost_matrix,
    path_cost,
    reference_dijkstra_path,
    rng,
    set_link,
)

C = SPEED_OF_LIGHT_KM_S


def triangle_network():
    # probe(0) -- relay(2) -- ground(1), with direct probe-ground available.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 2.0 * C, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, C, 0.0),
        ]
    )
    set_link(network, 0, 2, distance=1.0 * C)
    set_link(network, 2, 1, distance=1.0 * C)
    set_link(network, 0, 1, distance=3.0 * C)
    return network


def test_dijkstra_two_cheap_hops_beat_one_expensive():
    network = triangle_network()
    path = dijkstra_path(network, CostKind.TRANSMISSION_TIME, 0, 1)
    assert path == (0, 2, 1)
    assert path_cost(network, CostKind.TRANSMISSION_TIME, path) == pytest.approx(2.0)


def test_dijkstra_quality_variant():
    network = triangle_network()
    set_link(network, 0, 2, quality=0.9)
    set_link(network, 2, 1, quality=0.9)
    set_link(network, 0, 1, quality=0.99)
    assert dijkstra_path(network, CostKind.QUALITY_COMPLEMENT, 0, 1) == (0, 2, 1)


def test_dijkstra_tie_prefers_lowest_node_id():
    # Two routes of identical cost: 0-2-1 and 0-3-1.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 2.0 * C, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, C, 100.0),
            (NodeKind.RELAY, C, -100.0),
        ]
    )
    for a, b in ((0, 2), (2, 1), (0, 3), (3, 1)):
        set_link(network, a, b, distance=1.0 * C)
    set_link(network, 2, 3, distance=5.0 * C)
    assert dijkstra_path(network, CostKind.TRANSMISSION_TIME, 0, 1) == (0, 2, 1)


def test_dijkstra_zero_cost_ties_stay_consistent_stepwise():
    # Perfect links: every quality cost ties at zero, so fewest hops must
    # decide or replanning at each hop could bounce between neighbors.
    network = build_random_network(seed=5)
    network.default_quality[:] = 1.0
    reset(network)
    node = 0
    walked = [node]
    while node != 1:
        node = next_hop(network, ProtocolKind.QUALITY_DIJKSTRA, node, 1)
        walked.append(node)
        assert len(walked) <= network.node_count
    assert walked == [0, 2, 1]


def test_dijkstra_rejects_equal_endpoints():
    network = build_random_network(seed=1, relay_count=2)
    with pytest.raises(ValueError):
        dijkstra_path(network, CostKind.TRANSMISSION_TIME, 3, 3)


def test_dijkstra_matches_brute_force():
    # Exhaustive-search oracle over small random networks, both cost kinds.
    checked = 0
    for seed in range(50):
        relay_count = 2 + seed % 4  # networks of 4..7 nodes
        network = build_random_network(seed=200 + seed, relay_count=relay_count)
        perturb(network, rng(seed), 0.05)  # exercise non-default state too
        for kind in CostKind:
            path = dijkstra_path(network, kind, network.probe_id, network.ground_id)
            got = path_cost(network, kind, path)
            want = brute_force_min_cost(network, kind, network.probe_id, network.ground_id)
            assert got == pytest.approx(want, rel=1e-9)
            checked += 1
    assert checked == 100


def test_dijkstra_probe_to_ground_uses_relays():
    for seed in range(10):
        network = build_random_network(seed=300 + seed)
        for kind in CostKind:
            path = dijkstra_path(network, kind, network.probe_id, network.ground_id)
            assert path[0] == network.probe_id
            assert path[-1] == network.ground_id
            assert len(path) >= 3  # never the bare direct edge
            assert len(set(path)) == len(path)  # simple path


def test_next_hop_dijkstra_is_second_path_node():
    network = build_random_network(seed=17)
    for protocol in (ProtocolKind.DISTANCE_DIJKSTRA, ProtocolKind.QUALITY_DIJKSTRA):
        kind = (
            CostKind.TRANSMISSION_TIME
            if protocol is ProtocolKind.DISTANCE_DIJKSTRA
            else CostKind.QUALITY_COMPLEMENT
        )
        path = dijkstra_path(network, kind, network.probe_id, network.ground_id)
        assert next_hop(network, protocol, network.probe_id, network.ground_id) == path[1]


def test_next_hop_rejects_arrived_packet():
    network = build_random_network(seed=17, relay_count=2)
    with pytest.raises(ValueError):
        next_hop(network, ProtocolKind.BUNDLE, 1, 1)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("current, dst", [(-1, 1), (99, 1), (0, -1), (0, 99)])
def test_next_hop_rejects_out_of_range_nodes(protocol, current, dst):
    network = build_random_network(seed=3)
    with pytest.raises(ValueError, match="out of range"):
        next_hop(network, protocol, current, dst)


def test_next_hop_rejects_unknown_protocol():
    network = build_random_network(seed=3, relay_count=2)
    with pytest.raises(ValueError, match="unknown protocol"):
        next_hop(network, "distance_dijkstra", 0, 1)


def test_next_hop_matches_reference_tie_order():
    # The heap reference carries whole paths, so it defines the tie order:
    # cost, then hop count, then the lexicographically smallest path.  High
    # sigma clamps many qualities to 1, so zero-cost edges tie exactly.
    decisions = 0
    for seed in range(200):
        relay_count = (1, 2, 4, 10, 30)[seed % 5]
        sigma_frac = (0.0, 0.05, 0.6, 2.0)[seed // 5 % 4]
        network = build_random_network(seed=500 + seed, relay_count=relay_count)
        perturb(network, rng(seed), sigma_frac)
        for protocol, kind in (
            (ProtocolKind.DISTANCE_DIJKSTRA, CostKind.TRANSMISSION_TIME),
            (ProtocolKind.QUALITY_DIJKSTRA, CostKind.QUALITY_COMPLEMENT),
        ):
            for src in range(network.node_count):
                if src == network.ground_id:
                    continue
                want = reference_dijkstra_path(network, kind, src, network.ground_id)
                got = next_hop(network, protocol, src, network.ground_id)
                assert got == want[1], (seed, protocol, src)
                assert dijkstra_path(network, kind, src, network.ground_id) == want
                decisions += 1
    assert decisions == 2 * 40 * (2 + 3 + 5 + 11 + 31)


# Both first-hop kernels, called directly, so each is checked on both sides of
# routing.LAYERED_MIN_NODES.
KERNELS = (routing._search, routing._layered_next_hop)


@pytest.mark.parametrize("relay_count", [0, 1, 2, 4, 10, 30, 60])
def test_layered_search_matches_reference(relay_count):
    # relay_count 0 is the two-node network: the probe and the ground station.
    def build(seed):
        if relay_count == 0:
            rows = [(NodeKind.PROBE, 100.0, 0.0), (NodeKind.GROUND, 0.0, 0.0)]
            return build_custom_network(rows, seed=seed)
        return build_random_network(seed=700 + seed, relay_count=relay_count)

    networks = [
        perturb(build(seed), rng(seed), sigma_frac)
        for sigma_frac in (0.0, 0.05, 0.6, 2.0)
        for seed in range(2)
    ]
    # Perfect links: every quality cost is zero but the penalized direct
    # link's, so only hop counts and the lexicographic order decide.
    perfect = build(9)
    perfect.default_quality[:] = 1.0
    networks.append(reset(perfect))
    # The kernels' stop bound reads dst's own row, so search toward the probe
    # and the last relay too, not only the ground station.
    dsts = sorted({GROUND_ID, PROBE_ID, relay_count + 1})
    decisions = 0
    for network in networks:
        for kind in CostKind:
            for dst in dsts:
                for src in range(network.node_count):
                    if src == dst:
                        continue
                    want = reference_dijkstra_path(network, kind, src, dst)[1]
                    for kernel in KERNELS:
                        assert kernel(network, kind, src, dst) == want, (kernel, kind, src, dst)
                    decisions += 1
    assert decisions == 9 * 2 * len(dsts) * (relay_count + 1)


@pytest.mark.parametrize("relay_count", [2, 10, 30])
def test_layered_search_matches_reference_on_zero_cost_ties(relay_count):
    # Links pinned to quality 1.0 cost zero, so exact ties and zero-cost
    # detours abound; pinning the diagonal too puts a zero on it, which the
    # layered search must never take for a path.
    decisions = 0
    for seed, share in enumerate((0.2, 0.5, 0.9)):
        network = build_random_network(seed=300 + seed, relay_count=relay_count)
        rows, cols = network.links.nonzero()
        pin = rng(seed).random(network.link_count) < share
        quality = network.default_quality
        quality[rows[pin], cols[pin]] = quality[cols[pin], rows[pin]] = 1.0
        np.fill_diagonal(quality, 1.0)
        reset(network)
        for kind in CostKind:
            for dst in (network.ground_id, network.node_count - 1):
                for src in range(network.node_count):
                    if src == dst:
                        continue
                    want = reference_dijkstra_path(network, kind, src, dst)[1]
                    got = routing._layered_next_hop(network, kind, src, dst)
                    assert got == want, (seed, kind, src, dst)
                    decisions += 1
    assert decisions == 3 * 2 * 2 * (relay_count + 1)


def test_layered_search_keeps_fewer_hops_on_equal_cost():
    # 0-2-1 (2 hops) and 0-3-4-1 (3 hops) both cost exactly 2 s.  The longer
    # path reaches the ground one layer later through 4, which is still
    # cheaper than the best ground label then, so only the strict comparison
    # keeps relay 2 as the next hop.  In _search the two ground labels tie on
    # cost and the hop count decides.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 0.0, 0.0),
            (NodeKind.GROUND, 9.0 * C, 0.0),
            (NodeKind.RELAY, 4.0 * C, 3.0 * C),
            (NodeKind.RELAY, 4.0 * C, -3.0 * C),
            (NodeKind.RELAY, 6.0 * C, -3.0 * C),
        ]
    )
    for a, b, seconds in ((0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0), (3, 4, 0.5), (4, 1, 0.5)):
        set_link(network, a, b, distance=seconds * C)
    for a, b in ((0, 4), (3, 1), (2, 3), (2, 4)):
        set_link(network, a, b, distance=5.0 * C)
    kind = CostKind.TRANSMISSION_TIME
    assert path_cost(network, kind, (0, 3, 4, 1)) == path_cost(network, kind, (0, 2, 1)) == 2.0
    assert reference_dijkstra_path(network, kind, 0, 1) == (0, 2, 1)
    for kernel in KERNELS:
        assert kernel(network, kind, 0, 1) == 2, kernel


def test_search_stop_bound_is_strict_on_an_exact_tie():
    # Quality costs, all exact in binary: 0-3-4-1 costs 0.125 + 0.125 + 0.75
    # and 0-2-1 costs 0.5 + 0.5, both 1.0.  The cheapest link into the
    # ground is 2-1 (last = 0.5).  _search labels the ground through the
    # 3-hop path first; when relay 2 is the cheapest open node, its label
    # plus last ties the ground's label exactly, and only going on (the
    # strict test) lets its 2-hop path replace the ground's label, as the
    # reference order requires.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 0.0, 0.0),
            (NodeKind.GROUND, 9.0 * C, 0.0),
            (NodeKind.RELAY, 4.0 * C, 3.0 * C),
            (NodeKind.RELAY, 4.0 * C, -3.0 * C),
            (NodeKind.RELAY, 6.0 * C, -3.0 * C),
        ]
    )
    network.default_quality[:] = 0.0  # every other link costs 1.0
    for a, b, quality in ((0, 2, 0.5), (2, 1, 0.5), (0, 3, 0.875), (3, 4, 0.875), (4, 1, 0.25)):
        set_link(network, a, b, quality=quality)
    kind = CostKind.QUALITY_COMPLEMENT
    assert path_cost(network, kind, (0, 3, 4, 1)) == path_cost(network, kind, (0, 2, 1)) == 1.0
    assert reference_dijkstra_path(network, kind, 0, 1) == (0, 2, 1)
    for kernel in KERNELS:
        assert kernel(network, kind, 0, 1) == 2, kernel


def _search_settling(network, kind, src, dst):
    """_search's hop and the nodes its settle loop picks, in order.

    The loop picks each node by an index call on the source's cost row, so
    the rows are lists that log those calls.
    """
    settled = []

    class Row(list):
        def index(self, value, *args):
            settled.append(u := super().index(value, *args))
            return u

    class Costs:
        def __init__(self, costs):
            self.costs = costs

        def tolist(self):
            return [Row(row) for row in self.costs.tolist()]

    real = routing._link_costs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "_link_costs", lambda *args: Costs(real(*args)))
        hop = routing._search(network, kind, src, dst)
    return hop, settled


def first_check_network():
    """Probe 0, ground 1 and relays 2-4; every link costs 1.0 (quality 0)
    unless set, in quality costs exact in binary."""
    network = build_custom_network(
        [
            (NodeKind.PROBE, 0.0, 0.0),
            (NodeKind.GROUND, 9.0 * C, 0.0),
            (NodeKind.RELAY, 4.0 * C, 3.0 * C),
            (NodeKind.RELAY, 4.0 * C, -3.0 * C),
            (NodeKind.RELAY, 6.0 * C, -3.0 * C),
        ]
    )
    network.default_quality[:] = 0.0
    return network


def test_search_first_check_returns_the_direct_hop_before_settling():
    # From relay 2: its one-hop labels are 0.25 to relay 3, 0.5 to the
    # ground and 1.0 elsewhere.  The cheapest link into the ground is 4-1,
    # so last = 0.375, and 0.25 + 0.375 > 0.5: no path through an open node
    # can beat the direct label, so the ground is the hop and no node
    # settles.  The cheapest one-hop neighbour, relay 3, is not the hop.
    network = first_check_network()
    for a, b, quality in ((2, 3, 0.75), (2, 1, 0.5), (4, 1, 0.625)):
        set_link(network, a, b, quality=quality)
    kind = CostKind.QUALITY_COMPLEMENT
    assert reference_dijkstra_path(network, kind, 2, 1) == (2, 1)
    assert _search_settling(network, kind, 2, 1) == (1, [])
    for kernel in KERNELS:
        assert kernel(network, kind, 2, 1) == 1, kernel
    # The direct probe-ground label is inf, so a search from the probe
    # always settles a node before it returns.
    want = reference_dijkstra_path(network, kind, 0, 1)
    hop, settled = _search_settling(network, kind, 0, 1)
    assert hop == want[1] and settled


def test_search_first_check_lets_a_cheaper_two_hop_path_win():
    # From relay 2: 2-3-1 costs 0.125 + 0.25 = 0.375, below the direct 0.5.
    # last = 0.25 (3-1), and 0.125 + 0.25 is not above 0.5, so the search
    # goes on, settles relay 3 and returns it as the hop.
    network = first_check_network()
    for a, b, quality in ((2, 3, 0.875), (3, 1, 0.75), (2, 1, 0.5)):
        set_link(network, a, b, quality=quality)
    kind = CostKind.QUALITY_COMPLEMENT
    assert reference_dijkstra_path(network, kind, 2, 1) == (2, 3, 1)
    assert _search_settling(network, kind, 2, 1) == (3, [3])
    for kernel in KERNELS:
        assert kernel(network, kind, 2, 1) == 3, kernel


_CAP_EDGES = (0.0, 5e-324, 1e-300, 0.1, 0.5, 1.0, 3.0, 1e16, 1e308, math.inf)


def test_cap_bounds_every_extension_into_dst():
    # cap <= top, and cap + last >= top, so a path dropped at the cap cannot
    # reach dst strictly cheaper than top; the cap is at most one float above
    # top - last, so it prunes almost all that the bound allows.
    r = rng(17)
    cases = [(top, last) for top in _CAP_EDGES for last in _CAP_EDGES]
    cases += [(t, t) for t in _CAP_EDGES]
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        tops = r.random(300) * scale
        lasts = tops * r.random(300)  # last <= top, as on a network
        cases += zip(tops.tolist(), lasts.tolist())
        cases += zip(tops.tolist(), (r.random(300) * scale).tolist())
    for top, last in cases:
        cap = routing._cap(top, last)
        assert not math.isnan(cap) and not math.isnan(cap + last), (top, last)
        assert cap <= top, (top, last, cap)
        assert cap + last >= top, (top, last, cap)
        if last < math.inf and top < math.inf:
            assert cap <= math.nextafter(top - last, math.inf), (top, last, cap)


# The oracles in helpers search edge_cost_matrix, which prices the direct
# link above every relay path; the kernels price it at inf.  The two agree
# only while the penalty can never win or tie.
def test_direct_link_penalty_value():
    network = build_random_network(seed=6, relay_count=4)
    base = {
        CostKind.TRANSMISSION_TIME: network.current_distance / C,
        CostKind.QUALITY_COMPLEMENT: 1.0 - network.current_quality,
    }
    p, g = network.probe_id, network.ground_id
    for kind in CostKind:
        costs = edge_cost_matrix(network, kind)
        assert costs[p, g] == costs[g, p] == pytest.approx(base[kind].sum() + 1.0)
        costs[p, g] = costs[g, p] = base[kind][p, g]
        assert np.array_equal(costs, base[kind])


def test_direct_link_penalty_dominates_every_relay_path():
    # The penalized direct cost must exceed any simple path that avoids it.
    for seed in range(10):
        for relay_count in (2, 3, 4, 5):
            network = build_random_network(seed=100 + seed, relay_count=relay_count)
            for kind in CostKind:
                costs = edge_cost_matrix(network, kind)
                direct = float(costs[network.probe_id, network.ground_id])
                best_alternative = brute_force_min_cost(
                    network, kind, network.probe_id, network.ground_id
                )
                assert best_alternative < direct


def test_search_never_takes_the_direct_link_when_relays_exist():
    # The direct link is the cheapest link of both kinds, but the kernels
    # price it at inf and edge_cost_matrix above every relay path, so all
    # leave the probe through a relay, as the reference does.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 10.0 * C, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, 2.0 * C, 7.0 * C),
            (NodeKind.RELAY, 5.0 * C, -6.0 * C),
            (NodeKind.RELAY, 8.0 * C, 5.0 * C),
        ]
    )
    set_link(network, 0, 1, quality=1.0, distance=1.0 * C)
    links = network.links
    assert network.current_distance[0, 1] == network.current_distance[links].min()
    assert network.current_quality[0, 1] == network.current_quality[links].max()
    for protocol, kind in routing.PROTOCOL_COST_KIND.items():
        want = reference_dijkstra_path(network, kind, 0, 1)
        assert want[1] != 1
        for kernel in KERNELS:
            assert kernel(network, kind, 0, 1) == want[1], (kernel, kind)
        assert next_hop(network, protocol, 0, 1) == want[1]
        back = dijkstra_path(network, kind, 1, 0)
        assert back == reference_dijkstra_path(network, kind, 1, 0)
        assert back[1] != 0

    two_node = build_custom_network(
        [(NodeKind.PROBE, 100.0, 0.0), (NodeKind.GROUND, 0.0, 0.0)]
    )
    for protocol, kind in routing.PROTOCOL_COST_KIND.items():
        for kernel in KERNELS:
            assert kernel(two_node, kind, 0, 1) == 1, (kernel, kind)
        assert next_hop(two_node, protocol, 0, 1) == 1
        assert dijkstra_path(two_node, kind, 0, 1) == (0, 1)
        assert dijkstra_path(two_node, kind, 1, 0) == (1, 0)


@pytest.mark.parametrize("relay_count", [1, 2, 4, 10, 16])
def test_kernels_agree_on_overflowed_distances(relay_count):
    # A sigma_frac near the float maximum overflows perturbed distances to
    # inf.  Here links are set to inf by hand, without perturb: where every
    # unsettled node costs inf, no finite path reaches dst and both kernels
    # return dst; with every link inf that holds from the first label.
    kind = CostKind.TRANSMISSION_TIME
    for seed, share in enumerate((0.3, 0.7, 1.0)):
        network = build_random_network(seed=900 + seed, relay_count=relay_count)
        rows, cols = network.links.nonzero()
        cut = rng(seed).random(network.link_count) < share
        distance = network.current_distance
        distance[rows[cut], cols[cut]] = distance[cols[cut], rows[cut]] = math.inf
        dst = network.ground_id
        for src in range(network.node_count):
            if src == dst:
                continue
            hop = routing._search(network, kind, src, dst)
            assert routing._layered_next_hop(network, kind, src, dst) == hop, (seed, src)
            assert next_hop(network, ProtocolKind.DISTANCE_DIJKSTRA, src, dst) == hop
            if share == 1.0:
                assert hop == dst


def test_next_hop_switches_to_layered_search_on_large_graphs(monkeypatch):
    def no_search(*args):
        raise RuntimeError("_search called")

    monkeypatch.setattr(routing, "_search", no_search)
    large = build_random_network(seed=31, relay_count=60)
    small = build_random_network(seed=31, relay_count=10)
    for protocol, kind in routing.PROTOCOL_COST_KIND.items():
        want = reference_dijkstra_path(large, kind, large.probe_id, large.ground_id)
        assert next_hop(large, protocol, large.probe_id, large.ground_id) == want[1]
        assert dijkstra_path(large, kind, large.probe_id, large.ground_id) == want
        with pytest.raises(RuntimeError, match="_search called"):
            next_hop(small, protocol, small.probe_id, small.ground_id)
        with pytest.raises(RuntimeError, match="_search called"):
            dijkstra_path(small, kind, small.probe_id, small.ground_id)


def test_dijkstra_next_hops_replay_whole_path_when_static():
    # With no perturbation, stepwise decisions must retrace the one-shot path.
    network = build_random_network(seed=23)
    for protocol in (ProtocolKind.DISTANCE_DIJKSTRA, ProtocolKind.QUALITY_DIJKSTRA):
        kind = (
            CostKind.TRANSMISSION_TIME
            if protocol is ProtocolKind.DISTANCE_DIJKSTRA
            else CostKind.QUALITY_COMPLEMENT
        )
        want = dijkstra_path(network, kind, network.probe_id, network.ground_id)
        node = network.probe_id
        walked = [node]
        while node != network.ground_id:
            node = next_hop(network, protocol, node, network.ground_id)
            walked.append(node)
        assert tuple(walked) == want


def bundle_example_network():
    """One probe choice among three relays plus the excluded direct hop.

    Geometric distances to the ground station: probe 10, relay2 8,
    relay3 6, relay4 12; forward candidates are therefore relays 2 and 3.
    """
    network = build_custom_network(
        [
            (NodeKind.PROBE, 10.0, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, 8.0, 0.0),
            (NodeKind.RELAY, 0.0, 6.0),
            (NodeKind.RELAY, 12.0, 0.0),
        ],
        min_coord_km=0.5,
    )
    set_link(network, 0, 2, quality=0.5)
    set_link(network, 0, 3, quality=0.4)
    set_link(network, 0, 4, quality=0.9)
    set_link(network, 0, 1, quality=0.05)
    return network


def test_bundle_picks_best_quality_forward_candidate():
    network = bundle_example_network()
    # relay 4 is farther from the ground than the probe, so its excellent
    # link must lose to relay 2's 0.5 despite relay 3 being nearer.
    assert next_hop(network, ProtocolKind.BUNDLE, 0, 1) == 2


def test_bundle_quality_tie_prefers_lowest_id():
    network = bundle_example_network()
    set_link(network, 0, 3, quality=0.5)  # tie with relay 2
    assert next_hop(network, ProtocolKind.BUNDLE, 0, 1) == 2


def test_bundle_excludes_direct_hop_when_relays_exist():
    network = bundle_example_network()
    set_link(network, 0, 1, quality=1.0)  # perfect direct link, still skipped
    assert next_hop(network, ProtocolKind.BUNDLE, 0, 1) == 2


def test_bundle_two_node_network_goes_direct():
    network = build_custom_network(
        [(NodeKind.PROBE, 100.0, 0.0), (NodeKind.GROUND, 0.0, 0.0)]
    )
    assert next_hop(network, ProtocolKind.BUNDLE, 0, 1) == 1


def test_bundle_falls_back_to_destination_when_no_forward_candidate(caplog):
    # Every relay sits farther from the ground than the probe itself.
    network = build_custom_network(
        [
            (NodeKind.PROBE, 100.0, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, 60.0, 90.0),
            (NodeKind.RELAY, 50.0, -99.0),
        ],
        min_coord_km=0.5,
    )
    with caplog.at_level(logging.WARNING):
        assert next_hop(network, ProtocolKind.BUNDLE, 0, 1) == 1
    assert any("degenerate topology" in r.message for r in caplog.records)


def test_bundle_route_monotone_progress_under_perturbation():
    # Progress is judged against build-time geometry, so every hop must
    # strictly shrink the distance to the destination even while link state
    # jitters between decisions; routes therefore stay loop-free and short.
    routes = 0
    for seed in range(30):
        network = build_random_network(seed=400 + seed)
        r = rng(seed)
        n = network.node_count
        for _ in range(20):
            reset(network)
            node = network.probe_id
            walked = [node]
            while node != network.ground_id:
                perturb(network, r, 0.05)
                node = next_hop(network, ProtocolKind.BUNDLE, node, network.ground_id)
                walked.append(node)
            dists = [distance_to(network, v, network.ground_id) for v in walked]
            assert all(b < a for a, b in zip(dists, dists[1:]))
            assert len(walked) - 1 <= n - 1
            routes += 1
    assert routes == 600


def test_most_frequent_path_majority():
    routes = [(0, 2, 1), (0, 3, 1), (0, 2, 1), (0, 2, 1), (0, 3, 1)]
    assert most_frequent_path(routes) == (0, 2, 1)


def test_most_frequent_path_singleton():
    assert most_frequent_path([(0, 1)]) == (0, 1)


def test_most_frequent_path_tie_keeps_first_seen():
    assert most_frequent_path([(0, 3, 1), (0, 2, 1), (0, 2, 1), (0, 3, 1)]) == (0, 3, 1)


def test_most_frequent_path_rejects_empty():
    with pytest.raises(ValueError):
        most_frequent_path([])
